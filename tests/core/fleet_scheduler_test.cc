// Fleet scheduler tests: the streaming ordered reduction must keep the
// fleet result a pure function of (config, base_seed) whatever the worker
// count or unit grouping - even when the per-shard workloads are
// deliberately uneven - while the live-unit window bounds memory, the
// telemetry accounts for every shard, and a failing shard stops the whole
// pool without hanging it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "game/client.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"

#include "core/check.h"

namespace gametrace::core {
namespace {

// A fleet whose shards differ strongly in cost: shard s hosts between 4
// and 21 slots and sees its own arrival pressure, so unit runtimes are
// skewed and completion order under threads is far from submission order.
FleetConfig UnevenFleet(int shards) {
  FleetConfig config = FleetConfig::Scaled(shards, 120.0);
  config.base_seed = 99;
  config.configure_shard = [](int shard, game::GameConfig& server) {
    server.max_players = 4 + (shard * 7) % 18;
    server.sessions.fresh_attempt_rate *= 0.5 + 0.25 * (shard % 5);
    server.sessions.initial_players = server.max_players - 2;
  };
  return config;
}

TEST(FleetScheduler, ReportBitIdenticalAcrossWorkerCounts) {
  FleetConfig config = UnevenFleet(7);

  config.threads = 1;
  const auto one = RunFleet(config);
  config.threads = 3;
  const auto three = RunFleet(config);
  config.threads = 7;
  const auto seven = RunFleet(config);

  const std::string baseline = one.metrics.ToJson();
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(baseline, three.metrics.ToJson());
  EXPECT_EQ(baseline, seven.metrics.ToJson());
  EXPECT_EQ(one.total_packets, three.total_packets);
  EXPECT_EQ(one.total_packets, seven.total_packets);
  EXPECT_EQ(one.total_players.values(), three.total_players.values());
  EXPECT_EQ(one.total_players.values(), seven.total_players.values());
  EXPECT_EQ(one.report.summary.app_bytes_total(), three.report.summary.app_bytes_total());
  EXPECT_EQ(one.report.summary.size_stats_out().variance(),
            seven.report.summary.size_stats_out().variance());
  EXPECT_EQ(one.report.minute_packets_in.values(), seven.report.minute_packets_in.values());
  EXPECT_EQ(one.report.hurst.mid_scale, seven.report.hurst.mid_scale);
}

// A fleet above 511 servers groups two servers per unit (unit_size =
// shards / 256), run at 1 and 3 workers. Short shards keep it cheap; the
// runs are shared by the three grouping tests below.
struct GroupedRuns {
  static constexpr int kShards = 520;
  static constexpr int kUnitSize = 2;
  static constexpr int kUnits = kShards / kUnitSize;
  FleetResult one;
  FleetResult three;
};

FleetResult RunGrouped(int threads) {
  FleetConfig config = FleetConfig::Scaled(GroupedRuns::kShards, 5.0);
  config.base_seed = 11;
  config.threads = threads;
  return RunFleet(config);
}

const GroupedRuns& Grouped() {
  static const GroupedRuns runs{.one = RunGrouped(1), .three = RunGrouped(3)};
  return runs;
}

// Unit grouping and the worker count move work between workers and change
// the completion order, but the fold order is always the server order: the
// result bits cannot depend on either.
TEST(FleetScheduler, ReportBitIdenticalAcrossScheduleShapes) {
  const GroupedRuns& runs = Grouped();
  ASSERT_EQ(runs.one.scheduler_metrics.gauge_value("fleet.scheduler.unit_size"),
            static_cast<double>(GroupedRuns::kUnitSize));
  EXPECT_EQ(runs.one.metrics.ToJson(), runs.three.metrics.ToJson());
  EXPECT_EQ(runs.one.total_packets, runs.three.total_packets);
  EXPECT_EQ(runs.one.total_players.values(), runs.three.total_players.values());
  EXPECT_EQ(runs.one.report.summary.app_bytes_total(),
            runs.three.report.summary.app_bytes_total());
  EXPECT_EQ(runs.one.report.summary.size_stats_out().variance(),
            runs.three.report.summary.size_stats_out().variance());
  EXPECT_EQ(runs.one.report.minute_bytes_out.values(),
            runs.three.report.minute_bytes_out.values());
  EXPECT_EQ(runs.one.report.hurst.small_scale, runs.three.report.hurst.small_scale);
}

// The window is 2 x workers units, and the live set never exceeds it.
TEST(FleetScheduler, AdmissionWindowBoundsLiveUnits) {
  const GroupedRuns& runs = Grouped();
  for (const FleetResult* result : {&runs.one, &runs.three}) {
    const obs::MetricsRegistry& sched = result->scheduler_metrics;
    const double window = sched.gauge_value("fleet.scheduler.window_units");
    EXPECT_EQ(window, 2.0 * result->threads_used);
    EXPECT_LE(sched.gauge_value("fleet.scheduler.peak_live_units"), window);
    EXPECT_GE(sched.gauge_value("fleet.scheduler.peak_live_units"), 1.0);
  }
}

TEST(FleetScheduler, TelemetryAccountsForEveryShardAndUnit) {
  const GroupedRuns& runs = Grouped();
  for (const FleetResult* result : {&runs.one, &runs.three}) {
    const obs::MetricsRegistry& sched = result->scheduler_metrics;
    const int workers = result->threads_used;
    EXPECT_EQ(sched.gauge_value("fleet.scheduler.workers"), static_cast<double>(workers));
    EXPECT_EQ(sched.gauge_value("fleet.scheduler.units"),
              static_cast<double>(GroupedRuns::kUnits));
    EXPECT_EQ(sched.gauge_value("fleet.scheduler.unit_size"),
              static_cast<double>(GroupedRuns::kUnitSize));
    EXPECT_EQ(sched.counter_value("fleet.scheduler.merged_units"),
              static_cast<std::uint64_t>(GroupedRuns::kUnits));

    std::uint64_t shards_run = 0;
    std::uint64_t units_run = 0;
    for (int w = 0; w < workers; ++w) {
      const std::string prefix = "fleet.worker." + std::to_string(w);
      shards_run += sched.counter_value(prefix + ".shards_run");
      units_run += sched.counter_value(prefix + ".units_run");
    }
    EXPECT_EQ(shards_run, static_cast<std::uint64_t>(GroupedRuns::kShards)) << workers;
    EXPECT_EQ(units_run, static_cast<std::uint64_t>(GroupedRuns::kUnits)) << workers;
  }
}

// A shard that fails mid-fleet must fail the whole run: the worker that
// hit it wakes the peers blocked in admission (the failing unit holds the
// merge cursor, so later units fill the window and wait), every worker
// stops, and RunFleet rethrows the shard's exception instead of hanging.
TEST(FleetScheduler, MidFleetShardFailureRethrowsWithoutHanging) {
  FleetConfig config = UnevenFleet(24);
  config.threads = 3;
  const auto uneven = config.configure_shard;
  config.configure_shard = [uneven](int shard, game::GameConfig& server) {
    if (shard == 8) {
      // Hold the merge cursor long enough for the peers to fill the window.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      throw std::runtime_error("shard 8 failed");
    }
    uneven(shard, server);
  };
  EXPECT_THROW((void)RunFleet(config), std::runtime_error);
}

// Scheduler telemetry is worker-count-dependent by design, so it must stay
// out of the merged result registry - which keeps the bit-identity
// contract - and live only in scheduler_metrics.
TEST(FleetScheduler, SchedulerTelemetryStaysOutOfMergedMetrics) {
  FleetConfig config = UnevenFleet(4);
  config.threads = 2;
  const auto result = RunFleet(config);
  EXPECT_EQ(result.metrics.ToJson().find("fleet."), std::string::npos);
  EXPECT_NE(result.scheduler_metrics.ToJson().find("fleet.scheduler.units"), std::string::npos);
}

// Parses "unit <u> [a,b)" and returns b - a, the unit's shard count.
int ShardCountFromSpanName(const std::string& name) {
  const std::size_t open = name.find('[');
  const std::size_t comma = name.find(',', open);
  const std::size_t close = name.find(')', comma);
  GT_CHECK(open != std::string::npos && comma != std::string::npos &&
           close != std::string::npos);
  const int a = std::stoi(name.substr(open + 1, comma - open - 1));
  const int b = std::stoi(name.substr(comma + 1, close - comma - 1));
  return b - a;
}

// The timeline and the counters are two views of the same execution: for
// every worker track, the number of unit spans and their summed shard
// ranges must equal the fleet.worker.* counters, every
// span must nest inside its worker's lifetime span, unit spans within a
// track must not overlap (one worker runs one unit at a time), and every
// unit must appear in exactly one track.
TEST(FleetScheduler, TimelineSpansReconcileWithCounters) {
  for (const int threads : {1, 3, 7}) {
    FleetConfig config = UnevenFleet(9);
    config.threads = threads;
    config.sched_trace = true;  // 9 shards: 9 single-server units
    const auto result = RunFleet(config);
    const obs::MetricsRegistry& sched = result.scheduler_metrics;

    // Group the merged timeline back into per-worker tracks.
    std::map<int, std::vector<const obs::TraceLog::Event*>> tracks;
    for (const obs::TraceLog::Event& event : result.sched_trace.events()) {
      tracks[event.pid].push_back(&event);
    }
    EXPECT_EQ(result.sched_trace.dropped(), 0u) << threads << " workers";
    ASSERT_EQ(tracks.size(), static_cast<std::size_t>(threads)) << threads << " workers";

    std::set<std::string> units_seen;
    for (const auto& [worker, events] : tracks) {
      const std::string prefix = "fleet.worker." + std::to_string(worker);
      const obs::TraceLog::Event* lifetime = nullptr;
      std::vector<const obs::TraceLog::Event*> unit_spans;
      std::uint64_t shard_sum = 0;
      for (const obs::TraceLog::Event* event : events) {
        const std::string cat = event->cat;
        if (cat == "worker") {
          EXPECT_EQ(lifetime, nullptr) << "two lifetime spans on worker " << worker;
          lifetime = event;
        } else if (cat == "unit") {
          unit_spans.push_back(event);
          shard_sum += static_cast<std::uint64_t>(ShardCountFromSpanName(event->name));
          // Globally: each unit runs on exactly one worker, exactly once.
          EXPECT_TRUE(units_seen.insert(event->name).second)
              << event->name << " ran twice (" << threads << " workers)";
        }
      }

      EXPECT_EQ(unit_spans.size(), sched.counter_value(prefix + ".units_run"));
      EXPECT_EQ(shard_sum, sched.counter_value(prefix + ".shards_run"));

      ASSERT_NE(lifetime, nullptr) << "worker " << worker << " has no lifetime span";
      constexpr double kEpsUs = 1e-3;  // double round-trip through seconds
      for (const obs::TraceLog::Event* event : events) {
        if (event == lifetime) continue;
        EXPECT_GE(event->ts_us, lifetime->ts_us - kEpsUs) << event->name;
        EXPECT_LE(event->ts_us + event->dur_us, lifetime->ts_us + lifetime->dur_us + kEpsUs)
            << event->name;
      }
      std::sort(unit_spans.begin(), unit_spans.end(),
                [](const obs::TraceLog::Event* a, const obs::TraceLog::Event* b) {
                  return a->ts_us < b->ts_us;
                });
      for (std::size_t i = 1; i < unit_spans.size(); ++i) {
        EXPECT_LE(unit_spans[i - 1]->ts_us + unit_spans[i - 1]->dur_us,
                  unit_spans[i]->ts_us + kEpsUs)
            << "overlapping units on worker " << worker;
      }
    }
    EXPECT_EQ(units_seen.size(), 9u) << threads << " workers";
  }
}

// Tracing is observability, not behavior: with spans on, the merged
// surfaces stay byte-identical to the untraced run at any worker count,
// and with tracing off the diagnostic timeline stays empty while the
// critical-path report is still populated.
TEST(FleetScheduler, TracingLeavesMergedSurfacesByteIdentical) {
  FleetConfig config = UnevenFleet(7);
  config.threads = 3;
  const auto untraced = RunFleet(config);
  const std::string baseline = untraced.metrics.ToJson();
  EXPECT_EQ(untraced.sched_trace.size(), 0u);
  EXPECT_FALSE(untraced.sched_report.empty());

  config.sched_trace = true;
  for (const int threads : {1, 3, 7}) {
    config.threads = threads;
    const auto traced = RunFleet(config);
    EXPECT_EQ(baseline, traced.metrics.ToJson()) << threads << " workers";
    EXPECT_GT(traced.sched_trace.size(), 0u);
  }
}

// The report's four components are measured plus residual, so they must
// cover each worker's span exactly - not approximately - and the
// makespan must be the slowest worker's span.
TEST(FleetScheduler, CriticalPathComponentsSumToWorkerSpans) {
  FleetConfig config = UnevenFleet(8);
  config.threads = 3;
  const auto result = RunFleet(config);
  const obs::SchedReport& report = result.sched_report;

  ASSERT_EQ(report.workers, 3);
  std::uint64_t max_span = 0;
  std::uint64_t units = 0;
  std::uint64_t shards = 0;
  for (const obs::SchedReport::Worker& w : report.per_worker) {
    EXPECT_EQ(w.work_ns + w.stall_ns + w.merge_ns + w.idle_ns, w.span_ns)
        << "worker " << w.worker;
    max_span = std::max(max_span, w.span_ns);
    units += w.units;
    shards += w.shards;
  }
  EXPECT_EQ(report.makespan_ns, max_span);
  EXPECT_EQ(shards, 8u);
  EXPECT_EQ(units,
            static_cast<std::uint64_t>(
                result.scheduler_metrics.gauge_value("fleet.scheduler.units")));
  EXPECT_GE(report.imbalance_ratio, 1.0);
  // The report's headline gauges landed in the scheduler registry too.
  EXPECT_EQ(result.scheduler_metrics.gauge_value("fleet.critpath.makespan_ns"),
            static_cast<double>(report.makespan_ns));
}

// The naming seam the byte-identity exemption hangs on (DESIGN.md "Fleet
// scheduling"): every scheduler instrument lives under the fleet.* prefix
// in scheduler_metrics, and the merged registry carries no fleet.* name -
// so "diagnostic channel" is a checkable property, not a convention.
TEST(FleetScheduler, SchedulerMetricsRespectTheNamingSeam) {
  FleetConfig config = UnevenFleet(5);
  config.threads = 2;
  config.sched_trace = true;
  const auto result = RunFleet(config);

  std::vector<std::string> names;
  result.scheduler_metrics.ForEachCounter(
      [&](std::string_view name, const obs::Counter&) { names.emplace_back(name); });
  result.scheduler_metrics.ForEachGauge(
      [&](std::string_view name, const obs::Gauge&) { names.emplace_back(name); });
  EXPECT_FALSE(names.empty());
  for (const std::string& name : names) {
    const bool in_namespace = name.rfind("fleet.scheduler.", 0) == 0 ||
                              name.rfind("fleet.worker.", 0) == 0 ||
                              name.rfind("fleet.critpath.", 0) == 0;
    EXPECT_TRUE(in_namespace) << name << " escapes the scheduler namespace";
  }

  std::vector<std::string> merged_names;
  result.metrics.ForEachCounter(
      [&](std::string_view name, const obs::Counter&) { merged_names.emplace_back(name); });
  result.metrics.ForEachGauge(
      [&](std::string_view name, const obs::Gauge&) { merged_names.emplace_back(name); });
  for (const std::string& name : merged_names) {
    EXPECT_NE(name.rfind("fleet.", 0), 0u) << name << " leaked into the merged registry";
  }
}

// 250 shards exceeds the old one-octet-per-shard limit of 245: the packed
// namespace keeps every shard's clients disjoint, so the merged unique
// client count is exactly the sum over shards.
TEST(FleetScheduler, WideNamespaceKeepsManyShardsDisjoint) {
  FleetConfig config = FleetConfig::Scaled(250, 15.0);
  config.threads = 0;
  config.base_seed = 7;
  const auto result = RunFleet(config);

  std::uint64_t per_shard_unique = 0;
  for (const auto& shard : result.shards) per_shard_unique += shard.stats.unique_attempting;
  EXPECT_EQ(result.report.summary.unique_clients_attempting(), per_shard_unique);
  EXPECT_EQ(result.report.summary.total_packets(), result.total_packets);
}

TEST(FleetScheduler, ConfigureShardCannotGrowTheIdentityPool) {
  FleetConfig config = FleetConfig::Scaled(2, 10.0);
  config.threads = 1;
  config.configure_shard = [](int, game::GameConfig& server) {
    server.sessions.population *= 2;  // would collide with the next shard
  };
  EXPECT_THROW((void)RunFleet(config), gametrace::ContractViolation);
}

TEST(IdentityNamespace, PackingMathMatchesTheDocumentedScheme) {
  EXPECT_EQ(game::IdentityIndexBits(1), 0);
  EXPECT_EQ(game::IdentityIndexBits(2), 1);
  EXPECT_EQ(game::IdentityIndexBits(9000), 14);
  EXPECT_EQ(game::IdentityIndexBits(std::size_t{1} << 24), 24);

  EXPECT_EQ(game::MaxDisjointServers(9000), std::size_t{246} << 10);  // 251,904
  EXPECT_EQ(game::MaxDisjointServers(std::size_t{1} << 24), 246u);

  // Ids up to 245 reproduce the classic per-octet shift exactly.
  EXPECT_EQ(game::ShardIpShift(0, 9000), 0u);
  EXPECT_EQ(game::ShardIpShift(1, 9000), 1u << 24);
  EXPECT_EQ(game::ShardIpShift(245, 9000), 245u << 24);
  // Id 246 wraps to octet 0 at sub-namespace offset 1.
  EXPECT_EQ(game::ShardIpShift(246, 9000), 1u);
  EXPECT_EQ(game::ShardIpShift(247, 9000), (1u << 24) | 1u);

  // Out-of-range ids are a contract violation, not a silent collision.
  EXPECT_THROW((void)game::ShardIpShift(251904, 9000), gametrace::ContractViolation);
}

}  // namespace
}  // namespace gametrace::core
