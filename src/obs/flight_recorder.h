// FlightRecorder: a bounded sim-time ring of MetricsRegistry snapshots.
//
// The paper's provisioning findings are threshold *events* - last-mile
// saturation near 40 kbps/player (Fig 11), refusals against the 22-slot
// cap (Table III), the NAT device melting at ~850 pps (Table IV) - and a
// terminal metrics dump cannot say *when* a run crossed one. The flight
// recorder samples the full registry on a sim-time period (default one
// sim-minute) into a bounded ring, giving every run a time-series view
// that the WatchdogEngine evaluates and tools/flight_view.py renders.
//
// Determinism contract (mirrors MetricsRegistry):
//  - Shards sample on the same sim-time grid, so shard recorders hold
//    snapshots with pairwise-equal timestamps; Merge() reduces them
//    snapshot-by-snapshot via MetricsRegistry::Merge in shard order.
//  - ToJsonl() serializes name-sorted registries with a stable per-line
//    layout, so an N-worker fleet run exports a byte-identical snapshot
//    stream to a 1-worker run (tests/core/flight_fleet_test.cc).
//
// Black box: ScopedFlightDump installs a chaining ContractHandler so any
// GT_CHECK violation writes flight_dump.json - the last snapshots, the
// trace tail and the cost ledger - before the previous handler
// (abort or throw) takes over. CsServer calls DumpFlightNow() when an
// injected outage begins, so provisioning failures leave the same trail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace gametrace {
struct ContractFailure;
}

namespace gametrace::obs {

class TraceLog;

class FlightRecorder {
 public:
  struct Options {
    // Sim-time seconds between samples; front-ends expose --flight-sample.
    double sample_period_seconds = 60.0;
    // Ring capacity. 4096 one-minute snapshots cover ~2.8 sim-days before
    // eviction starts; evicted() reports how many fell off the front.
    std::size_t max_snapshots = 4096;
  };

  struct Snapshot {
    double t_seconds = 0.0;
    MetricsRegistry metrics;
  };

  FlightRecorder() = default;
  // GT_CHECKs that the period is positive and the ring holds >= 1 snapshot.
  explicit FlightRecorder(Options options);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  // Records `metrics` (a copy the caller built, taken by value so merged
  // views can be moved in) as the sample at sim-time `t_seconds`, evicting
  // the oldest snapshot once the ring is full. Timestamps strictly increase
  // (GT_CHECK enforced); runs that each start at t = 0 sample recorders of
  // their own and fold them with Merge (obs::ShardScope).
  void Sample(double t_seconds, MetricsRegistry metrics);

  // Snapshots currently held (<= max_snapshots).
  [[nodiscard]] std::size_t size() const noexcept { return snapshots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return snapshots_.empty(); }
  // Samples ever taken, including evicted ones.
  [[nodiscard]] std::uint64_t total_samples() const noexcept { return total_samples_; }
  [[nodiscard]] std::uint64_t evicted() const noexcept {
    return total_samples_ - snapshots_.size();
  }
  // The global sequence number of held snapshot `i` (stable across
  // eviction; what "seq" means in the JSONL stream).
  [[nodiscard]] std::uint64_t sequence_of(std::size_t i) const noexcept {
    return evicted() + i;
  }

  [[nodiscard]] const Snapshot& at(std::size_t i) const { return snapshots_.at(i); }
  [[nodiscard]] const Snapshot& latest() const { return snapshots_.back(); }

  // Shard-order reduction: snapshot i of `other` merges into snapshot i of
  // this recorder via MetricsRegistry::Merge. Both sides must have sampled
  // the same sim-time grid (GT_CHECK enforced) - shards of one fleet run
  // always do. An empty side adopts the other wholesale.
  void Merge(const FlightRecorder& other);

  // One JSON object per line:
  //   {"t": <seconds>, "seq": <global index>, "metrics": {...}}
  // with the registry in AppendCompactJson form. Byte-identical for equal
  // recorders - the fleet bit-identity tests compare these strings.
  void WriteJsonl(std::ostream& out) const;
  [[nodiscard]] std::string ToJsonl() const;

  // Appends the single-line JSON object for held snapshot `i` (no
  // trailing newline). Shared by WriteJsonl and the flight dump.
  void AppendSnapshotJson(std::string& out, std::size_t i) const;

 private:
  Options options_;
  std::deque<Snapshot> snapshots_;
  std::uint64_t total_samples_ = 0;
};

struct FlightDumpOptions {
  std::size_t last_snapshots = 16;
  std::size_t last_trace_events = 256;
};

// Writes the black-box document: the dump reason, the contract failure (if
// any), the most recent snapshots, the sim-time trace tail and the cost
// ledger's current per-layer tallies. Null recorder/trace are allowed and
// produce empty sections - a dump is best-effort by design.
void WriteFlightDump(std::ostream& out, std::string_view reason, const FlightRecorder* recorder,
                     const TraceLog* trace, const ContractFailure* failure,
                     const FlightDumpOptions& options = {});

// Installs a process-wide contract handler that writes the black box for
// the calling thread's ambient ObsContext to `path`, then chains to the
// previously installed handler (which aborts or throws; contract handlers
// never return). One guard may be active at a time; the destructor
// restores the previous handler.
class ScopedFlightDump {
 public:
  explicit ScopedFlightDump(std::string path, FlightDumpOptions options = {});
  ~ScopedFlightDump();

  ScopedFlightDump(const ScopedFlightDump&) = delete;
  ScopedFlightDump& operator=(const ScopedFlightDump&) = delete;
};

// Writes the black box for the calling thread's ambient ObsContext to the
// active ScopedFlightDump's path without failing the process - used by
// injected-outage paths that are survivable but worth a post-mortem.
// Returns false (and does nothing) when no guard is active or the file
// cannot be written.
bool DumpFlightNow(std::string_view reason);

}  // namespace gametrace::obs
