// BuildSchedReport tests: the critical-path decomposition is a pure
// function of the scheduler's samples - residual idle makes the four
// components sum to each worker's span exactly, stragglers sort by
// duration, and the scheduler SLO rules fire on the ratios the report
// derives.
#include "obs/sched_report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

#include "json_reader.h"

namespace gametrace::obs {
namespace {

using gametrace::testing::JsonReader;
using gametrace::testing::JsonValue;

SchedWorkerSample Sample(std::uint64_t span, std::uint64_t work, std::uint64_t stall,
                         std::uint64_t merge) {
  SchedWorkerSample sample;
  sample.span_ns = span;
  sample.work_ns = work;
  sample.stall_ns = stall;
  sample.merge_ns = merge;
  return sample;
}

TEST(SchedReport, ComponentsSumToSpanViaResidualIdle) {
  // 1000 span, 700 accounted: idle must absorb the remaining 300.
  std::vector<SchedWorkerSample> workers = {Sample(1000, 400, 220, 80)};
  const SchedReport report = BuildSchedReport(workers, {});

  ASSERT_EQ(report.workers, 1);
  const SchedReport::Worker& w = report.per_worker[0];
  EXPECT_EQ(w.idle_ns, 300u);
  EXPECT_EQ(w.work_ns + w.stall_ns + w.merge_ns + w.idle_ns, w.span_ns);
  EXPECT_DOUBLE_EQ(w.busy_ratio, (400.0 + 80.0) / 1000.0);
  EXPECT_EQ(report.makespan_ns, 1000u);
}

TEST(SchedReport, ResidualIdleClampsAtZero) {
  // Components over-account the span (timer quantization can do this);
  // idle clamps at zero rather than wrapping the unsigned subtraction.
  std::vector<SchedWorkerSample> workers = {Sample(100, 90, 20, 0)};
  const SchedReport report = BuildSchedReport(workers, {});
  EXPECT_EQ(report.per_worker[0].idle_ns, 0u);
}

TEST(SchedReport, MakespanIsTheSlowestWorker) {
  std::vector<SchedWorkerSample> workers = {Sample(500, 500, 0, 0),
                                            Sample(900, 400, 0, 0),
                                            Sample(700, 700, 0, 0)};
  const SchedReport report = BuildSchedReport(workers, {});
  EXPECT_EQ(report.makespan_ns, 900u);
}

TEST(SchedReport, ImbalanceAndStallRatios) {
  // busy ratios 0.9 and 0.3: mean 0.6, max 0.9 -> imbalance 1.5.
  // stalls 100 + 300 over spans 1000 + 1000 -> stall fraction 0.2.
  std::vector<SchedWorkerSample> workers = {Sample(1000, 900, 100, 0),
                                            Sample(1000, 300, 300, 0)};
  const SchedReport report = BuildSchedReport(workers, {});
  EXPECT_DOUBLE_EQ(report.imbalance_ratio, 1.5);
  EXPECT_DOUBLE_EQ(report.admission_stall_fraction, 0.2);
}

TEST(SchedReport, StragglersSortByDurationThenUnit) {
  std::vector<SchedWorkerSample> workers = {Sample(100, 100, 0, 0)};
  std::vector<SchedUnitSample> units = {
      {.unit = 2, .worker = 0, .first_shard = 4, .shard_count = 2, .dur_ns = 50},
      {.unit = 0, .worker = 0, .first_shard = 0, .shard_count = 2, .dur_ns = 90},
      {.unit = 3, .worker = 0, .first_shard = 6, .shard_count = 1, .dur_ns = 50},
      {.unit = 1, .worker = 0, .first_shard = 2, .shard_count = 2, .dur_ns = 70},
  };
  const SchedReport report = BuildSchedReport(workers, units, /*top_k=*/3);

  ASSERT_EQ(report.stragglers.size(), 3u);
  EXPECT_EQ(report.stragglers[0].unit, 0);
  EXPECT_EQ(report.stragglers[1].unit, 1);
  // 50 ns tie between units 2 and 3 breaks toward the lower unit index.
  EXPECT_EQ(report.stragglers[2].unit, 2);
  EXPECT_EQ(report.stragglers[0].dur_ns, 90u);
}

TEST(SchedReport, EmptyInputMakesAnEmptyReport) {
  const SchedReport report = BuildSchedReport({}, {});
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(report.makespan_ns, 0u);
  EXPECT_TRUE(report.alerts.empty());
}

TEST(SchedReport, SchedulerRulesFireOnBadRatios) {
  // Imbalance 0.9/0.5 = 1.8 > 1.5 and stall 600/2000 = 0.3 > 0.25: both
  // scheduler SLO rules must fire, into the report (diagnostic channel),
  // never into the deterministic alert stream.
  std::vector<SchedWorkerSample> workers = {Sample(1000, 900, 0, 0),
                                            Sample(1000, 100, 600, 0)};
  const SchedReport report = BuildSchedReport(workers, {});
  ASSERT_EQ(report.alerts.size(), 2u);
  EXPECT_EQ(report.alerts[0].rule, "fleet.worker.imbalance");
  EXPECT_EQ(report.alerts[1].rule, "fleet.admission.stall");
  EXPECT_GT(report.alerts[0].value, 1.5);
  EXPECT_GT(report.alerts[1].value, 0.25);
}

TEST(SchedReport, BalancedFleetRaisesNoAlerts) {
  std::vector<SchedWorkerSample> workers = {Sample(1000, 800, 60, 100),
                                            Sample(1000, 790, 80, 90)};
  const SchedReport report = BuildSchedReport(workers, {});
  EXPECT_TRUE(report.alerts.empty());
}

TEST(SchedReport, DumpIntoExportsCritpathInstruments) {
  std::vector<SchedWorkerSample> workers = {Sample(1000, 900, 0, 0),
                                            Sample(800, 100, 600, 0)};
  const SchedReport report = BuildSchedReport(workers, {});
  MetricsRegistry registry;
  report.DumpInto(registry);

  EXPECT_EQ(registry.gauge_value("fleet.critpath.makespan_ns"), 1000.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("fleet.critpath.imbalance_ratio"),
                   report.imbalance_ratio);
  EXPECT_DOUBLE_EQ(registry.gauge_value("fleet.critpath.admission_stall_fraction"),
                   report.admission_stall_fraction);
  EXPECT_DOUBLE_EQ(registry.gauge_value("fleet.critpath.worker.0.busy_ratio"),
                   report.per_worker[0].busy_ratio);
  EXPECT_EQ(registry.counter_value("fleet.critpath.alerts"),
            static_cast<std::uint64_t>(report.alerts.size()));
}

TEST(SchedReport, ToJsonRoundTripsThroughAStrictParser) {
  SchedWorkerSample w0 = Sample(1000, 600, 200, 100);
  SchedWorkerSample w1 = Sample(900, 850, 20, 10);
  w0.units = 3;
  w0.shards = 6;
  std::vector<SchedUnitSample> units = {
      {.unit = 0, .worker = 0, .first_shard = 0, .shard_count = 2, .dur_ns = 400},
      {.unit = 1, .worker = 1, .first_shard = 2, .shard_count = 2, .dur_ns = 500},
  };
  const SchedReport report = BuildSchedReport({w0, w1}, units);

  const JsonValue doc = JsonReader::Parse(report.ToJson());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("workers").number, 2.0);
  EXPECT_EQ(doc.at("makespan_ns").number, 1000.0);
  ASSERT_EQ(doc.at("per_worker").items.size(), 2u);
  const JsonValue& worker0 = doc.at("per_worker").items[0];
  EXPECT_EQ(worker0.at("work_ns").number, 600.0);
  EXPECT_EQ(worker0.at("idle_ns").number, 100.0);
  EXPECT_EQ(worker0.at("units").number, 3.0);
  ASSERT_EQ(doc.at("stragglers").items.size(), 2u);
  EXPECT_EQ(doc.at("stragglers").items[0].at("unit").number, 1.0);
  EXPECT_TRUE(doc.has("imbalance_ratio"));
  EXPECT_TRUE(doc.has("admission_stall_fraction"));
  EXPECT_TRUE(doc.has("alerts"));
}

}  // namespace
}  // namespace gametrace::obs
