#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/check.h"
#include "json_reader.h"

namespace gametrace::obs {
namespace {

using gametrace::testing::JsonReader;

TEST(MetricsRegistry, CountersAccumulateAndReadBack) {
  MetricsRegistry registry;
  registry.counter("a").Add();
  registry.counter("a").Add(41);
  EXPECT_EQ(registry.counter_value("a"), 42u);
  EXPECT_EQ(registry.counter_value("missing"), 0u);
  EXPECT_EQ(registry.counter_count(), 1u);
}

TEST(MetricsRegistry, InstrumentReferencesAreStable) {
  MetricsRegistry registry;
  Counter& a = registry.counter("a");
  // Registering many more instruments must not move the first one.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    registry.counter(name);
  }
  EXPECT_EQ(&a, &registry.counter("a"));
}

TEST(MetricsRegistry, GaugeMergeModes) {
  MetricsRegistry left;
  left.gauge("players", Gauge::MergeMode::kSum).Set(10.0);
  left.gauge("high_water", Gauge::MergeMode::kMax).SetMax(7.0);

  MetricsRegistry right;
  right.gauge("players", Gauge::MergeMode::kSum).Set(5.0);
  right.gauge("high_water", Gauge::MergeMode::kMax).SetMax(3.0);

  left.Merge(right);
  EXPECT_DOUBLE_EQ(left.gauge_value("players"), 15.0);
  EXPECT_DOUBLE_EQ(left.gauge_value("high_water"), 7.0);
}

TEST(MetricsRegistry, MergeCopiesOneSidedInstruments) {
  MetricsRegistry left;
  left.counter("only_left").Add(1);
  MetricsRegistry right;
  right.counter("only_right").Add(2);
  right.histogram("h", 0.0, 10.0, 5).Add(3.0);

  left.Merge(right);
  EXPECT_EQ(left.counter_value("only_left"), 1u);
  EXPECT_EQ(left.counter_value("only_right"), 2u);
  ASSERT_NE(left.find_histogram("h"), nullptr);
  EXPECT_EQ(left.find_histogram("h")->total(), 1u);
}

TEST(MetricsRegistry, MergeRejectsGaugeModeConflict) {
  MetricsRegistry left;
  left.gauge("g", Gauge::MergeMode::kSum);
  MetricsRegistry right;
  right.gauge("g", Gauge::MergeMode::kMax);
  EXPECT_THROW(left.Merge(right), ContractViolation);
}

TEST(MetricsRegistry, MergeRejectsHistogramGeometryConflict) {
  MetricsRegistry left;
  left.histogram("h", 0.0, 10.0, 5);
  MetricsRegistry right;
  right.histogram("h", 0.0, 20.0, 5);
  EXPECT_THROW(left.Merge(right), ContractViolation);
}

TEST(MetricsRegistry, MergeIsOrderIndependentForSnapshots) {
  // Two shards' registries merged in either order must snapshot
  // byte-identically - the property the fleet determinism tests lean on.
  auto shard = [](std::uint64_t packets, double peak) {
    MetricsRegistry r;
    r.counter("packets").Add(packets);
    r.gauge("peak", Gauge::MergeMode::kMax).SetMax(peak);
    r.histogram("occ", 0.0, 8.0, 8).Add(peak / 2.0);
    return r;
  };
  MetricsRegistry ab = shard(100, 5.0);
  ab.Merge(shard(50, 7.0));
  MetricsRegistry ba = shard(50, 7.0);
  ba.Merge(shard(100, 5.0));
  EXPECT_EQ(ab.ToJson(), ba.ToJson());
}

TEST(MetricsRegistry, JsonRoundTripParses) {
  MetricsRegistry registry;
  registry.counter("server.packets").Add(12345);
  registry.gauge("server.peak", Gauge::MergeMode::kMax).SetMax(22.0);
  registry.gauge("fleet.players", Gauge::MergeMode::kSum).Set(88.5);
  auto& h = registry.histogram("occupancy", 0.0, 4.0, 4);
  h.Add(-1.0);  // underflow
  h.Add(1.5);
  h.Add(9.0);  // overflow

  const auto doc = JsonReader::Parse(registry.ToJson());
  EXPECT_EQ(doc.at("counters").at("server.packets").number, 12345.0);
  EXPECT_EQ(doc.at("gauges").at("server.peak").at("value").number, 22.0);
  EXPECT_EQ(doc.at("gauges").at("server.peak").at("merge").text, "max");
  EXPECT_EQ(doc.at("gauges").at("fleet.players").at("merge").text, "sum");
  const auto& hist = doc.at("histograms").at("occupancy");
  EXPECT_EQ(hist.at("underflow").number, 1.0);
  EXPECT_EQ(hist.at("overflow").number, 1.0);
  EXPECT_EQ(hist.at("total").number, 3.0);
  EXPECT_EQ(hist.at("bins").items.size(), 4u);
}

TEST(MetricsRegistry, JsonEscapesAwkwardNames) {
  MetricsRegistry registry;
  registry.counter("weird \"name\"\nwith\tcontrol").Add(1);
  const auto doc = JsonReader::Parse(registry.ToJson());
  EXPECT_EQ(doc.at("counters").at("weird \"name\"\nwith\tcontrol").number, 1.0);
}

TEST(AppendJsonNumber, HandlesNonFiniteAsNull) {
  std::string out;
  AppendJsonNumber(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  out.clear();
  AppendJsonNumber(out, 0.0);
  EXPECT_EQ(out, "0");
}

}  // namespace
}  // namespace gametrace::obs
