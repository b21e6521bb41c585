// Sharded parallel simulation engine: a fleet of independent servers.
//
// The paper's single-server analysis scopes itself carefully (§IV-B): the
// *aggregate* traffic of the whole collection of Counter-Strike servers
// smooths out and inherits its scaling from the user population. To study
// fleet-scale populations without being wall-clock-bound to one thread,
// this engine runs N independent 22-slot server shards concurrently and
// reduces their analyses with the exact Merge operations of the
// stats/trace/core layers.
//
// Scheduling (DESIGN.md "Fleet scheduling"): servers are grouped into
// contiguous *work units* (max(1, shards / 256) servers each), and workers
// claim units from one shared cursor, so units are claimed in ascending
// order and a worker that finishes early simply claims the next one. Shard
// results are *streamed* into the master accumulators as units complete -
// an admission window of 2 x workers units bounds the in-flight set, so
// peak memory is O(live units), never O(total shards).
//
// Determinism invariant: the merged CharacterizationReport is a pure
// function of (config, base_seed) - bit-identical for any worker-thread
// count or completion order - because each shard is a deterministic
// single-threaded simulation seeded from its own SplitMix64 substream
// (sim::SubstreamSeed), and the streaming reduction folds per-server
// results in strictly increasing server order regardless of which worker
// finished first (completed units park in a bounded ring until the merge
// cursor reaches them).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/function_ref.h"
#include "game/config.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sched_report.h"
#include "obs/trace_log.h"

namespace gametrace::core {

struct FleetConfig {
  // Number of independent server shards. Each shard's clients live in
  // their own IP namespace (game::ShardIpShift packs servers into the
  // host bits the identity pool leaves unused), so thousands of shards -
  // up to game::MaxDisjointServers(population), 251,904 at the default
  // 9000-identity pool - stay exactly mergeable.
  int shards = 4;
  // Worker threads; 0 = one per hardware core, always capped at the work
  // unit count; negative is rejected. Changes wall-clock only, never the
  // result.
  int threads = 0;
  // Shard s simulates with seed sim::SubstreamSeed(base_seed, s).
  std::uint64_t base_seed = 42;
  // Template server configuration; `seed` is overridden per shard and
  // `trace_duration` is the simulated window of every shard.
  game::GameConfig server;
  // Optional per-shard specialisation, applied after the substream seed
  // is assigned: heterogeneous fleets (mixed slot caps, rates, genres)
  // and deliberately uneven test workloads. Must be a pure function of
  // the shard index and thread-safe (it runs on worker threads in any
  // order), and must leave trace_duration and the analysis geometry
  // alone so shard results stay mergeable on one grid.
  std::function<void(int shard, game::GameConfig&)> configure_shard;
  CharacterizationOptions analysis;
  // Scheduler timeline tracing: record every unit execution (with its
  // shard range), blocked admission-window wait and merge-cursor fold as
  // wall-clock spans, one TraceLog track per worker (FleetResult::
  // sched_trace, pid = worker index) - a fleet run opens in Perfetto as a
  // worker timeline. Diagnostic channel: spans are wall-clock- and
  // worker-count-dependent and never touch the merged surfaces. Off by
  // default; the per-worker counters and the critical-path report are
  // measured either way.
  bool sched_trace = false;
  // Per-shard trace-log capacity. The default matches a standalone run;
  // tests shrink it to exercise bounded-buffer drop accounting.
  std::size_t trace_max_events = obs::TraceLog::kDefaultMaxEvents;

  // A fleet of `shards` calibrated servers each simulating `duration`
  // seconds (rates and shapes untouched, as in GameConfig::ScaledDefaults).
  [[nodiscard]] static FleetConfig Scaled(int shards, double duration);
};

struct ShardOutcome {
  int shard_id = 0;
  std::uint64_t seed = 0;
  game::CsServer::Stats stats;
};

struct FleetResult {
  // Exact merge of every shard's analysis, finished against the common
  // simulated window.
  CharacterizationReport report;
  std::vector<ShardOutcome> shards;
  // Fleet-wide concurrent player count (sum of per-shard gauge series).
  stats::TimeSeries total_players{0.0, 60.0};
  std::uint64_t total_packets = 0;
  int threads_used = 0;
  // Every shard's obs::ShardScope folded in shard order; a copy also folds
  // into the caller's ambient context. Byte-identical at any worker count.
  // The log keeps each event's shard as its pid; the recorder is empty
  // unless the ambient context binds one.
  obs::MetricsRegistry metrics;
  obs::TraceLog trace_log;
  obs::FlightRecorder recorder;
  // Scheduler telemetry: fleet.worker.<i>.{work_ns,admission_stall_ns,
  // merge_ns,span_ns,idle_ns,shards_run,units_run} counters,
  // fleet.scheduler.{units,unit_size,window_units,workers,
  // merged_units,peak_live_units}, and the fleet.critpath.* gauges the
  // sched report dumps. Worker-count-DEPENDENT by nature, so it lives
  // here - never in `metrics`, the flight stream or the ambient context,
  // which stay bit-identical across worker counts (the diagnostic-channel
  // exemption DESIGN.md "Fleet scheduling" documents).
  obs::MetricsRegistry scheduler_metrics;
  // Critical-path attribution built from the same measurements: per-worker
  // work/stall/merge/idle decomposition (components sum to each worker's
  // span exactly), top-k straggler units, imbalance ratio and scheduler
  // SLO alerts. Always populated.
  obs::SchedReport sched_report;
  // The worker timeline (empty unless config.sched_trace): per-worker span
  // tracks on the wall-clock axis, pid = worker index, Perfetto-openable
  // via TraceLog::WriteJson. Same diagnostic channel as the above.
  obs::TraceLog sched_trace;
};

// Runs every shard's RunServerTrace on the worker pool and streams the
// per-shard partials into the master accumulators in shard order as units
// complete. The first exception any shard throws (e.g. from
// configure_shard) is rethrown here once every worker has stopped.
[[nodiscard]] FleetResult RunFleet(const FleetConfig& config);

// Resolved worker count for `n` work items: `threads` if positive, else one
// per hardware core; always clamped to [1, n].
[[nodiscard]] int ResolveWorkerCount(int n, int threads) noexcept;

// Runs fn(0), ..., fn(n-1) across `threads` workers (resolved as above;
// negative is rejected) and blocks until all complete. Items are claimed
// in ascending order from one shared cursor; fn must only write state
// owned by its own index. The first exception thrown by any fn is
// rethrown on the calling thread after the pool drains. Takes a
// FunctionRef, so the dispatch path never allocates: the callable is
// borrowed for the duration of the call, which joins before returning.
void ParallelFor(int n, int threads, FunctionRef<void(int)> fn);

}  // namespace gametrace::core
