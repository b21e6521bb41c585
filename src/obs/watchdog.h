// WatchdogEngine: declarative SLO rules evaluated over flight snapshots.
//
// Each rule names a metric, a way of reading it (level, delta, or rate
// between consecutive snapshots), an optional normalizing gauge and a
// threshold. The built-in rules encode the paper's provisioning limits:
//
//   client.bandwidth.saturation  per-client downstream bits/s above the
//                                56k modem ceiling (Fig 11: healthy play
//                                sits near 33-40 kbps/player)
//   nat.meltdown                 offered pps into the COTS NAT device
//                                above ~850 pps (Table IV, Figs 14-15)
//   server.refusals.spike        connection refusals/s against the
//                                22-slot cap (Table III)
//   sim.queue.growth             event-queue high-water growth, the
//                                simulator's own "falling behind" signal
//   client.bandwidth.p99         p99 of the per-client kbps sketch above
//                                the 56 kbps ceiling - the tail version of
//                                client.bandwidth.saturation (Fig 11)
//   server.load.selfsimilar      mid-scale Hurst of the server load ring
//                                above 0.9: burstier long-range dependence
//                                than the paper's trace (Fig 5)
//
// Determinism: rules are pure functions of snapshot pairs, and the merged
// fleet snapshot stream is bit-identical at any worker count, so the alert
// sequence is too. Alerts surface three ways, all at export time so the
// deterministic merge never sees them: "alert.<rule>" counters
// (DumpInto(MetricsRegistry&)), TraceLog instants in the "alert" category
// (DumpInto(TraceLog&)), and one JSON object per alert (WriteJsonl).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace gametrace::obs {

class TraceLog;

struct SloRule {
  // How the rule reads its metric from a snapshot pair.
  enum class Signal : std::uint8_t {
    kGaugeValue = 0,            // current gauge level
    kGaugeDelta = 1,            // gauge level change since previous snapshot
    kCounterDelta = 2,          // counter increase since previous snapshot
    kCounterRatePerSecond = 3,  // counter increase / elapsed sim seconds
    kSketchQuantile = 4,        // quantile `quantile` of a sketch instrument
    kRingHurstMid = 5           // mid-scale Hurst of a ring's online estimator
  };
  enum class Direction : std::uint8_t { kAbove = 0, kBelow = 1 };

  std::string name;    // alert identity; exported as counter "alert.<name>"
  std::string metric;  // registry instrument the signal reads
  Signal signal = Signal::kGaugeValue;
  Direction direction = Direction::kAbove;
  double threshold = 0.0;
  // Which quantile a kSketchQuantile rule reads; ignored by other signals.
  double quantile = 0.99;
  // Applied to the signal before comparison (e.g. 8.0 turns a bytes/s rate
  // into bits/s).
  double scale = 1.0;
  // When non-empty, the scaled signal divides by this gauge's current
  // value (e.g. per-client normalization by "server.active_players"). A
  // zero or negative denominator skips the rule for that snapshot.
  std::string divide_by_gauge = {};
  std::string description;
};

struct Alert {
  double t_seconds = 0.0;
  std::string rule;
  double value = 0.0;      // the scaled/normalized signal that tripped
  double threshold = 0.0;  // copied from the rule for self-contained logs
  std::string description;
};

// Appends `alert` as one JSON object (no trailing newline):
//   {"t": ..., "rule": ..., "value": ..., "threshold": ..., "description": ...}
// The alerts JSONL and the scheduler report share this writer.
void AppendAlertJson(std::string& out, const Alert& alert);

class WatchdogEngine {
 public:
  // Starts with no rules; a default-constructed engine never alerts.
  WatchdogEngine() = default;
  explicit WatchdogEngine(std::vector<SloRule> rules) : rules_(std::move(rules)) {}

  void AddRule(SloRule rule) { rules_.push_back(std::move(rule)); }
  [[nodiscard]] const std::vector<SloRule>& rules() const noexcept { return rules_; }

  // The paper-threshold rule set described in the header comment.
  [[nodiscard]] static std::vector<SloRule> BuiltinRules();

  // Scheduler-health rules for the fleet's diagnostic channel. They read
  // the fleet.critpath.* gauges a SchedReport dumps, so they only ever
  // fire when evaluated against scheduler metrics (BuildSchedReport runs
  // them; the deterministic flight stream never carries those gauges):
  //
  //   fleet.worker.imbalance   peak worker busy-ratio > 1.5x the mean -
  //                            the makespan is set by stragglers, not by
  //                            total work (check configure_shard's shard
  //                            cost skew)
  //   fleet.admission.stall    > 25% of summed worker wall-clock blocked
  //                            on the reduction admission window - a
  //                            straggler unit holds the merge cursor
  //                            (same remedy)
  [[nodiscard]] static std::vector<SloRule> SchedulerRules();

  // Evaluates every rule against one snapshot transition. A null
  // `previous` means "start of history": delta and rate signals use a
  // zero-valued registry at t = 0 as the baseline, which is exact for a
  // simulation that begins with zeroed instruments.
  void Observe(const FlightRecorder::Snapshot* previous, const FlightRecorder::Snapshot& current);

  // Evaluates all recorder snapshots this engine has not seen yet (by
  // global sequence number), so interleaving live CatchUp calls during a
  // run with one final CatchUp after a fleet merge never double-counts.
  void CatchUp(const FlightRecorder& recorder);

  [[nodiscard]] const std::vector<Alert>& alerts() const noexcept { return alerts_; }

  // Export-time surfaces; see the header comment. Counters land as
  // "alert.<rule>" with the number of snapshots that tripped the rule.
  void DumpInto(MetricsRegistry& registry) const;
  void DumpInto(TraceLog& trace) const;

  // One AppendAlertJson object per line.
  void WriteJsonl(std::ostream& out) const;
  [[nodiscard]] std::string ToJsonl() const;

 private:
  std::vector<SloRule> rules_;
  std::vector<Alert> alerts_;
  // Global sequence number (FlightRecorder::sequence_of) of the next
  // snapshot CatchUp should evaluate.
  std::uint64_t cursor_ = 0;
};

}  // namespace gametrace::obs
