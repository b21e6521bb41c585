// SchedReport: critical-path attribution for one fleet scheduler run.
//
// The fleet engine (core/fleet) measures, per worker, where the
// wall-clock went - executing shards, blocked on the reduction admission
// window, folding the merge cursor - and hands
// the raw samples here. BuildSchedReport decomposes each worker's
// lifetime into those components (plus a residual idle term, so the
// components always sum to the measured span exactly), names the top-k
// straggler units, computes the utilization-imbalance ratio that tells a
// "scaling is sublinear" result *why*, and evaluates the scheduler SLO
// rules (WatchdogEngine::SchedulerRules) against the result.
//
// Channel contract: everything in this report is wall-clock- and
// worker-count-DEPENDENT. It belongs to the diagnostic channel
// (FleetResult::scheduler_metrics / sched_trace / sched_report) and must
// never be folded into the merged analysis surfaces, which stay
// bit-identical across worker counts (DESIGN.md "Fleet scheduling").
//
// Determinism within the channel: BuildSchedReport is a pure function of
// its samples (no clocks, no unordered iteration), so a report, its JSON
// and its fleet.critpath.* metrics are reproducible from a recorded run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/watchdog.h"

namespace gametrace::obs {

class MetricsRegistry;

// One worker's measured wall-clock decomposition, indexed by position
// (sample i describes worker i). All _ns components are disjoint
// intervals of the worker's lifetime except span_ns, which covers it.
struct SchedWorkerSample {
  std::uint64_t span_ns = 0;   // worker start to worker exit
  std::uint64_t work_ns = 0;   // executing unit shards
  std::uint64_t stall_ns = 0;  // blocked on the reduction admission window
  std::uint64_t merge_ns = 0;  // inside Commit (parking + cursor folds)
  std::uint64_t units = 0;
  std::uint64_t shards = 0;
};

// One executed work unit: which worker ran it, which shard range, and for
// how long. Straggler attribution sorts these by duration.
struct SchedUnitSample {
  int unit = 0;
  int worker = 0;
  int first_shard = 0;
  int shard_count = 0;
  std::uint64_t dur_ns = 0;
};

struct SchedReport {
  // How many straggler units BuildSchedReport keeps by default.
  static constexpr int kDefaultTopK = 5;

  struct Worker {
    int worker = 0;
    std::uint64_t span_ns = 0;
    std::uint64_t work_ns = 0;
    std::uint64_t stall_ns = 0;
    std::uint64_t merge_ns = 0;
    // Residual: span - (work + stall + merge), clamped at 0, so the four
    // components sum to span_ns exactly. Unit claims (one fetch_add each),
    // admission bookkeeping and scheduling gaps land here.
    std::uint64_t idle_ns = 0;
    std::uint64_t units = 0;
    std::uint64_t shards = 0;
    // Always 0: the scheduler has no stealing. Kept only because the
    // end-to-end benchmark still reads both fields.
    std::uint64_t steal_ns = 0;
    std::uint64_t steals = 0;
    // Useful fraction of the lifetime: (work + merge) / span.
    double busy_ratio = 0.0;
  };

  int workers = 0;
  // Slowest worker's span: the run's measured makespan (workers start
  // together, so the last to exit sets the wall-clock).
  std::uint64_t makespan_ns = 0;
  std::vector<Worker> per_worker;
  // Top-k units by duration, longest first (ties broken by unit index).
  std::vector<SchedUnitSample> stragglers;
  // max(busy_ratio) / mean(busy_ratio): 1.0 is a perfectly balanced
  // fleet; the makespan of an imbalanced one is set by its stragglers.
  double imbalance_ratio = 0.0;
  // sum(stall_ns) / sum(span_ns): fraction of total worker-time blocked
  // on the admission window - a straggler unit holding the merge cursor
  // while 2 x workers later units complete.
  double admission_stall_fraction = 0.0;
  // Scheduler SLO alerts (WatchdogEngine::SchedulerRules) evaluated
  // against this report. Diagnostic-channel only: they never join the
  // deterministic --alerts-out stream.
  std::vector<Alert> alerts;

  [[nodiscard]] bool empty() const noexcept { return workers == 0; }

  // Exports the headline numbers as fleet.critpath.* instruments (kMax
  // gauges plus an alert counter) into the scheduler-metrics registry.
  void DumpInto(MetricsRegistry& registry) const;

  // Machine-readable JSON (one object; stable field order; no clocks).
  void WriteJson(std::ostream& out) const;
  [[nodiscard]] std::string ToJson() const;
};

// Builds the report from the scheduler's measured samples: derives the
// residual idle term, busy ratios, imbalance and stall fractions, sorts
// out the top_k stragglers, then evaluates the scheduler watchdog rules.
// `units` may arrive in any order.
[[nodiscard]] SchedReport BuildSchedReport(const std::vector<SchedWorkerSample>& workers,
                                           const std::vector<SchedUnitSample>& units,
                                           int top_k = SchedReport::kDefaultTopK);

}  // namespace gametrace::obs
