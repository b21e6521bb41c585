#include "router/device_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
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
  stats.CountDrop(Segment::kClientsToNat);
  stats.CountDrop(Segment::kClientsToNat);
  stats.CountDrop(Segment::kServerToNat);
  EXPECT_EQ(stats.drops(Segment::kClientsToNat), 2u);
  EXPECT_EQ(stats.drops(Segment::kServerToNat), 1u);
}

TEST(DeviceStats, MetricsAgreeWithTheAccessors) {
  DeviceStats stats(1.0);
  stats.Count(Segment::kClientsToNat, 0.5);
  stats.Count(Segment::kClientsToNat, 0.6);
  stats.CountDrop(Segment::kServerToNat);
  const obs::MetricsRegistry metrics = stats.metrics();
  EXPECT_EQ(metrics.counter_value("nat.clients_to_nat.packets"), 2u);
  EXPECT_EQ(metrics.counter_value("nat.server_to_nat.drops"), 1u);
  EXPECT_EQ(stats.packets(Segment::kClientsToNat),
            metrics.counter_value("nat.clients_to_nat.packets"));
  EXPECT_EQ(stats.drops(Segment::kServerToNat), metrics.counter_value("nat.server_to_nat.drops"));
}

TEST(DeviceStats, HighWaterKeepsTheLargestOccupancy) {
  DeviceStats stats(1.0);
  for (std::size_t n = 1; n <= 7; ++n) stats.RecordOccupancy(Segment::kServerToNat, n);
  for (std::size_t n = 1; n <= 3; ++n) stats.RecordOccupancy(Segment::kServerToNat, n);
  stats.RecordOccupancy(Segment::kClientsToNat, 2);
  EXPECT_EQ(stats.high_water(Segment::kServerToNat), 7u);
  EXPECT_EQ(stats.high_water(Segment::kClientsToNat), 2u);
}

// Queue and device names are derived from the segment counts when they are
// published, never counted a second time.
TEST(DeviceStats, PublishCountsDerivesQueueAndDeviceNames) {
  DeviceStats stats(1.0);
  for (int i = 0; i < 10; ++i) stats.Count(Segment::kServerToNat, 0.0);
  for (int i = 0; i < 7; ++i) stats.Count(Segment::kNatToClients, 0.0);
  for (int i = 0; i < 3; ++i) stats.CountDrop(Segment::kServerToNat);
  for (int i = 0; i < 20; ++i) stats.Count(Segment::kClientsToNat, 0.0);
  for (int i = 0; i < 15; ++i) stats.Count(Segment::kNatToServer, 0.0);
  for (int i = 0; i < 5; ++i) stats.CountDrop(Segment::kClientsToNat);
  stats.RecordOccupancy(Segment::kServerToNat, 4);
  stats.RecordOccupancy(Segment::kClientsToNat, 9);

  obs::MetricsRegistry metrics;
  stats.PublishCounts(metrics);
  EXPECT_EQ(metrics.counter_count(), 14u);
  EXPECT_EQ(metrics.gauge_count(), 2u);
  EXPECT_EQ(metrics.counter_value("nat.lan_q.pushes"), 7u);
  EXPECT_EQ(metrics.counter_value("nat.lan_q.drops"), 3u);
  EXPECT_EQ(metrics.counter_value("nat.wan_q.pushes"), 15u);
  EXPECT_EQ(metrics.counter_value("nat.wan_q.drops"), 5u);
  EXPECT_EQ(metrics.counter_value("nat.device.packets"), 30u);
  EXPECT_EQ(metrics.counter_value("nat.device.drops"), 8u);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("nat.lan_q.high_water"), 4.0);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("nat.wan_q.high_water"), 9.0);
  EXPECT_EQ(metrics.ToJson(), stats.metrics().ToJson());

  // Two devices published into one registry: counts add, high water is
  // the larger of the two.
  DeviceStats other(1.0);
  other.Count(Segment::kServerToNat, 0.0);
  other.RecordOccupancy(Segment::kServerToNat, 1);
  other.RecordOccupancy(Segment::kClientsToNat, 12);
  other.PublishCounts(metrics);
  EXPECT_EQ(metrics.counter_value("nat.server_to_nat.packets"), 11u);
  EXPECT_EQ(metrics.counter_value("nat.lan_q.pushes"), 8u);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("nat.lan_q.high_water"), 4.0);
  EXPECT_DOUBLE_EQ(metrics.gauge_value("nat.wan_q.high_water"), 12.0);
}

TEST(DeviceStats, SegmentSlugs) {
  EXPECT_STREQ(SegmentSlug(Segment::kServerToNat), "server_to_nat");
  EXPECT_STREQ(SegmentSlug(Segment::kNatToClients), "nat_to_clients");
  EXPECT_STREQ(SegmentSlug(Segment::kClientsToNat), "clients_to_nat");
  EXPECT_STREQ(SegmentSlug(Segment::kNatToServer), "nat_to_server");
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
