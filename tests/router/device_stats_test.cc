#include "router/device_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.h"

namespace gametrace::router {
namespace {

TEST(DeviceStats, SegmentNames) {
  EXPECT_STREQ(SegmentName(Segment::kServerToNat), "server->NAT");
  EXPECT_STREQ(SegmentName(Segment::kNatToClients), "NAT->clients");
  EXPECT_STREQ(SegmentName(Segment::kClientsToNat), "clients->NAT");
  EXPECT_STREQ(SegmentName(Segment::kNatToServer), "NAT->server");
}

TEST(DeviceStats, CountsPerSegment) {
  DeviceStats stats(1.0);
  stats.Count(Segment::kClientsToNat, 0.5);
  stats.Count(Segment::kClientsToNat, 1.5);
  stats.Count(Segment::kNatToServer, 0.6);
  EXPECT_EQ(stats.packets(Segment::kClientsToNat), 2u);
  EXPECT_EQ(stats.packets(Segment::kNatToServer), 1u);
  EXPECT_EQ(stats.packets(Segment::kServerToNat), 0u);
}

TEST(DeviceStats, LoadSeriesBinsByTime) {
  DeviceStats stats(1.0);
  stats.Count(Segment::kServerToNat, 0.1);
  stats.Count(Segment::kServerToNat, 0.9);
  stats.Count(Segment::kServerToNat, 2.5);
  const auto& series = stats.load_series(Segment::kServerToNat);
  EXPECT_DOUBLE_EQ(series[0], 2.0);
  EXPECT_DOUBLE_EQ(series[2], 1.0);
}

TEST(DeviceStats, LossRatesFromSegmentDifference) {
  DeviceStats stats(1.0);
  for (int i = 0; i < 1000; ++i) stats.Count(Segment::kClientsToNat, 0.0);
  for (int i = 0; i < 987; ++i) stats.Count(Segment::kNatToServer, 0.0);
  for (int i = 0; i < 500; ++i) stats.Count(Segment::kServerToNat, 0.0);
  for (int i = 0; i < 498; ++i) stats.Count(Segment::kNatToClients, 0.0);
  EXPECT_NEAR(stats.loss_rate_incoming(), 0.013, 1e-9);
  EXPECT_NEAR(stats.loss_rate_outgoing(), 0.004, 1e-9);
}

TEST(DeviceStats, LossRateZeroWhenEmpty) {
  DeviceStats stats(1.0);
  EXPECT_DOUBLE_EQ(stats.loss_rate_incoming(), 0.0);
  EXPECT_DOUBLE_EQ(stats.loss_rate_outgoing(), 0.0);
}

TEST(DeviceStats, DropsTracked) {
  DeviceStats stats(1.0);
  stats.CountDrop(Segment::kClientsToNat, 0.0);
  stats.CountDrop(Segment::kClientsToNat, 0.1);
  stats.CountDrop(Segment::kServerToNat, 0.2);
  EXPECT_EQ(stats.drops(Segment::kClientsToNat), 2u);
  EXPECT_EQ(stats.drops(Segment::kServerToNat), 1u);
}

TEST(DeviceStats, AccessorsAreThinReadsOverTheRegistry) {
  DeviceStats stats(1.0);
  stats.Count(Segment::kClientsToNat, 0.5);
  stats.Count(Segment::kClientsToNat, 0.6);
  stats.CountDrop(Segment::kServerToNat, 0.7);
  EXPECT_EQ(stats.metrics().counter_value("nat.clients_to_nat.packets"), 2u);
  EXPECT_EQ(stats.metrics().counter_value("nat.server_to_nat.drops"), 1u);
  EXPECT_EQ(stats.packets(Segment::kClientsToNat),
            stats.metrics().counter_value("nat.clients_to_nat.packets"));
  EXPECT_EQ(stats.drops(Segment::kServerToNat),
            stats.metrics().counter_value("nat.server_to_nat.drops"));
}

TEST(DeviceStats, SegmentSlugs) {
  EXPECT_STREQ(SegmentSlug(Segment::kServerToNat), "server_to_nat");
  EXPECT_STREQ(SegmentSlug(Segment::kNatToClients), "nat_to_clients");
  EXPECT_STREQ(SegmentSlug(Segment::kClientsToNat), "clients_to_nat");
  EXPECT_STREQ(SegmentSlug(Segment::kNatToServer), "nat_to_server");
}

TEST(DeviceStats, CopyRebindsCachedCounters) {
  DeviceStats original(1.0);
  original.Count(Segment::kClientsToNat, 0.1);

  // Copies (result structs return DeviceStats by value) must re-bind the
  // cached counter pointers into their own registry: updating the copy may
  // not bleed into the original, and vice versa.
  DeviceStats copy(original);
  EXPECT_EQ(copy.packets(Segment::kClientsToNat), 1u);
  copy.Count(Segment::kClientsToNat, 0.2);
  copy.Count(Segment::kNatToServer, 0.3);
  EXPECT_EQ(copy.packets(Segment::kClientsToNat), 2u);
  EXPECT_EQ(copy.packets(Segment::kNatToServer), 1u);
  EXPECT_EQ(original.packets(Segment::kClientsToNat), 1u);
  EXPECT_EQ(original.packets(Segment::kNatToServer), 0u);

  DeviceStats assigned(5.0);
  assigned = original;
  assigned.CountDrop(Segment::kClientsToNat, 0.4);
  EXPECT_EQ(assigned.drops(Segment::kClientsToNat), 1u);
  EXPECT_EQ(original.drops(Segment::kClientsToNat), 0u);
}

TEST(DeviceStats, DelayStatistics) {
  DeviceStats stats(1.0);
  for (int i = 1; i <= 100; ++i) stats.RecordDelay(i * 1e-3);
  EXPECT_NEAR(stats.delay().mean(), 0.0505, 1e-6);
  EXPECT_NEAR(stats.delay_p50(), 0.050, 0.005);
  EXPECT_NEAR(stats.delay_p99(), 0.099, 0.005);
  EXPECT_DOUBLE_EQ(stats.delay().max(), 0.1);

  // The meltdown shape: a calm device (~1 ms), then a filling queue whose
  // delay ramps to 80 ms. p50 sits in the calm phase and p99 on the ramp;
  // both must be within 1% of the exact order statistic.
  sim::Rng rng(15);
  std::vector<double> delays;
  for (int i = 0; i < 6000; ++i) delays.push_back(0.9e-3 + 0.2e-3 * rng.NextDouble());
  for (int i = 0; i < 4000; ++i) delays.push_back(1e-3 + 79e-3 * (i + rng.NextDouble()) / 4000.0);
  DeviceStats meltdown(1.0);
  for (const double d : delays) meltdown.RecordDelay(d);
  std::sort(delays.begin(), delays.end());
  const auto exact = [&delays](double q) {
    return delays[static_cast<std::size_t>(q * static_cast<double>(delays.size() - 1))];
  };
  EXPECT_NEAR(meltdown.delay_p50(), exact(0.50), 0.01 * exact(0.50));
  EXPECT_NEAR(meltdown.delay_p99(), exact(0.99), 0.01 * exact(0.99));
}

}  // namespace
}  // namespace gametrace::router
