#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/thread_annotations.h"
#include "game/client.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/watchdog.h"
#include "sim/rng.h"
#include "trace/capture.h"

#include "core/check.h"

namespace gametrace::core {
namespace {

// Everything one shard produces, parked until the merge cursor reaches it.
struct ServerResult {
  std::uint64_t seed = 0;
  game::CsServer::Stats stats;
  stats::TimeSeries players{0.0, 60.0};
  std::optional<Characterizer> partial;
  obs::MetricsRegistry metrics;
  std::optional<obs::TraceLog> trace;
  std::optional<obs::FlightRecorder> recorder;
};

// A contiguous run of shards executed as one schedulable task. Per-server
// results are kept separate (not pre-folded) so the master reduction can
// fold in strictly increasing server order whatever the unit size - the
// merge operators on floating accumulators are deterministic for a fixed
// fold order but not associative in bits, so grouping must never reach
// the fold.
struct UnitResult {
  int first_server = 0;
  std::vector<ServerResult> servers;
};

// Per-worker scheduler telemetry, written by exactly one worker thread and
// read after the join. The _ns components are disjoint slices of the
// worker's lifetime (span_ns); BuildSchedReport derives the residual idle
// term, so the decomposition always sums to the measured span exactly.
struct WorkerTelemetry {
  std::uint64_t work_ns = 0;   // executing unit shards
  std::uint64_t stall_ns = 0;  // blocked on the reduction admission window
  std::uint64_t merge_ns = 0;  // inside Commit (parking + cursor folds)
  std::uint64_t span_ns = 0;   // worker start to worker exit
  std::uint64_t shards_run = 0;
  std::uint64_t units_run = 0;
  std::vector<obs::SchedUnitSample> units;  // one record per executed unit
};

// Wall-clock for the scheduler's diagnostic channel. steady_clock by
// contract: spans must be monotone within a worker track, and the
// diagnostic channel is exempt from the determinism lint that bans clocks
// in merge paths (nothing here ever reaches a merged surface).
using SchedClock = std::chrono::steady_clock;

std::uint64_t NsBetween(SchedClock::time_point t0, SchedClock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// Per-worker event cap for the scheduler timeline; past it a track counts
// drops (TraceLog::dropped) instead of growing.
constexpr std::size_t kSchedTraceMaxEventsPerWorker = std::size_t{1} << 16;

// The one place worker threads are spawned: runs body(0), ..., body(workers
// - 1), each on its own thread (inline on the caller when workers == 1),
// joins them all, then rethrows the first exception any body threw. A body
// that throws must first make its peers wind down, or the join waits for
// them to finish their remaining work.
void RunWorkers(int workers, FunctionRef<void(int)> body) {
  if (workers == 1) {
    body(0);
    return;
  }
  struct ErrorSlot {
    core::Mutex m;
    std::exception_ptr error GT_GUARDED_BY(m);
  } slot;
  {
    // jthread joins on destruction, so the workers already started are
    // joined even when spawning a later one throws.
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&slot, body, w] {
        try {
          body(w);
        } catch (...) {
          const core::MutexLock lock(slot.m);
          if (!slot.error) slot.error = std::current_exception();
        }
      });
    }
  }
  const core::MutexLock lock(slot.m);  // uncontended: every worker is joined
  if (slot.error) std::rethrow_exception(slot.error);
}

// The streaming ordered reduction. Completed-but-unmerged units park in a
// bounded ring; in-flight units always lie in [cursor, cursor + window),
// so indexing by unit % window is collision-free and the ring is the whole
// memory bound. Every piece of cross-worker state is a member here, guarded
// by m_.
class StreamingReduction {
 public:
  StreamingReduction(int servers, int window_units)
      : window_units_(window_units),
        parked_(static_cast<std::size_t>(window_units)),
        shard_outcomes_(static_cast<std::size_t>(servers)) {}

  // Admission: holds the *claimed* unit until it fits the live window.
  // Waiting here (not before claiming) is what bounds memory - the unit's
  // results do not exist yet. Units are claimed in ascending order, so the
  // unit at the merge cursor is always claimed, and its claimer never waits
  // here (cursor < cursor + window): the fold always progresses. Returns
  // false if the run failed; accumulates any blocked time into `stall_ns`.
  [[nodiscard]] bool Admit(int unit, std::uint64_t& stall_ns) GT_EXCLUDES(m_) {
    const core::MutexLock lock(m_);
    if (unit >= cursor_ + window_units_ && !failed_) {
      const auto wait_start = SchedClock::now();
      // Guarded predicate spelled as an explicit loop: a wait lambda would
      // read cursor_ outside any annotated scope (see CondVar::Wait note).
      while (!failed_ && unit >= cursor_ + window_units_) admission_cv_.Wait(m_);
      stall_ns += NsBetween(wait_start, SchedClock::now());
    }
    if (failed_) return false;
    ++live_units_;
    peak_live_units_ = std::max(peak_live_units_, live_units_);
    return true;
  }

  // Parks the completed unit, then drains every consecutive ready unit
  // starting at the cursor. Whichever worker completes the missing unit
  // performs the whole run of merges; the fold order is the unit order
  // (hence the server order), never the completion order. Returns how
  // many units this call folded (0 = parked only), for the merge span's
  // label and the reconciliation tests.
  int Commit(int unit, UnitResult&& result) GT_EXCLUDES(m_) {
    const core::MutexLock lock(m_);
    parked_[static_cast<std::size_t>(unit % window_units_)] = std::move(result);
    int folded = 0;
    while (parked_[static_cast<std::size_t>(cursor_ % window_units_)].has_value()) {
      UnitResult ready =
          std::move(*parked_[static_cast<std::size_t>(cursor_ % window_units_)]);
      parked_[static_cast<std::size_t>(cursor_ % window_units_)].reset();
      Absorb(std::move(ready));
      ++cursor_;
      --live_units_;
      ++merged_units_;
      ++folded;
    }
    admission_cv_.NotifyAll();
    return folded;
  }

  // Fails the run: every admission waiter wakes and gives up, and no
  // further unit is admitted. The flag is set under m_, so a peer that just
  // evaluated the admission predicate cannot miss the notify and sleep
  // forever once this worker - possibly the last notifier - exits.
  void Poison() GT_EXCLUDES(m_) {
    {
      const core::MutexLock lock(m_);
      failed_ = true;
    }
    admission_cv_.NotifyAll();
  }

  // Post-join: moves the master accumulators out. Locking is uncontended
  // here (workers are joined) but keeps the contract uniform - no member
  // is ever touched without its capability.
  struct Harvest {
    std::optional<Characterizer> master;
    std::optional<stats::TimeSeries> total_players;
    std::vector<ShardOutcome> shard_outcomes;
    std::uint64_t total_packets = 0;
    obs::MetricsRegistry metrics;
    obs::TraceLog trace;
    obs::FlightRecorder recorder;
    std::uint64_t merged_units = 0;
    int peak_live_units = 0;
  };
  [[nodiscard]] Harvest TakeResults() GT_EXCLUDES(m_) {
    const core::MutexLock lock(m_);
    Harvest h;
    h.master = std::move(master_);
    h.total_players = std::move(total_players_);
    h.shard_outcomes = std::move(shard_outcomes_);
    h.total_packets = total_packets_;
    h.metrics = std::move(merged_metrics_);
    h.trace = std::move(merged_trace_);
    h.recorder = std::move(merged_recorder_);
    h.merged_units = merged_units_;
    h.peak_live_units = peak_live_units_;
    return h;
  }

 private:
  // Master fold, strictly in server order.
  void Absorb(UnitResult&& unit) GT_REQUIRES(m_) {
    GT_PROF_SCOPE("core.fleet.merge");
    int server = unit.first_server;
    for (ServerResult& r : unit.servers) {
      if (!master_.has_value()) {
        master_.emplace(std::move(*r.partial));
        total_players_.emplace(std::move(r.players));
      } else {
        master_->Merge(std::move(*r.partial));
        total_players_->Merge(r.players);
      }
      shard_outcomes_[static_cast<std::size_t>(server)] =
          ShardOutcome{server, r.seed, r.stats};
      total_packets_ += r.stats.packets_emitted;
      merged_metrics_.Merge(r.metrics);
      merged_trace_.Merge(std::move(*r.trace));
      if (r.recorder.has_value()) merged_recorder_.Merge(*r.recorder);
      ++server;
    }
  }

  const int window_units_;

  core::Mutex m_;
  core::CondVar admission_cv_;
  int cursor_ GT_GUARDED_BY(m_) = 0;  // next unit index the master fold will absorb
  int live_units_ GT_GUARDED_BY(m_) = 0;
  int peak_live_units_ GT_GUARDED_BY(m_) = 0;
  std::uint64_t merged_units_ GT_GUARDED_BY(m_) = 0;
  bool failed_ GT_GUARDED_BY(m_) = false;
  std::vector<std::optional<UnitResult>> parked_ GT_GUARDED_BY(m_);

  std::optional<Characterizer> master_ GT_GUARDED_BY(m_);
  std::optional<stats::TimeSeries> total_players_ GT_GUARDED_BY(m_);
  std::vector<ShardOutcome> shard_outcomes_ GT_GUARDED_BY(m_);
  std::uint64_t total_packets_ GT_GUARDED_BY(m_) = 0;
  obs::MetricsRegistry merged_metrics_ GT_GUARDED_BY(m_);
  obs::TraceLog merged_trace_ GT_GUARDED_BY(m_);
  obs::FlightRecorder merged_recorder_ GT_GUARDED_BY(m_);
};

}  // namespace

FleetConfig FleetConfig::Scaled(int shards, double duration) {
  FleetConfig config;
  config.shards = shards;
  config.server = game::GameConfig::ScaledDefaults(duration);
  return config;
}

int ResolveWorkerCount(int n, int threads) noexcept {
  int workers = threads > 0 ? threads : static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(workers, 1, std::max(n, 1));
}

void ParallelFor(int n, int threads, FunctionRef<void(int)> fn) {
  GT_CHECK_GE(threads, 0) << "ParallelFor: worker count must be >= 0 (0 = one per core)";
  if (n <= 0) return;
  // relaxed everywhere: the cursor only hands out indices and the flag only
  // curtails the claim loop; the join orders everything before the rethrow.
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  RunWorkers(ResolveWorkerCount(n, threads), [&](int) {
    while (!failed.load(std::memory_order_relaxed)) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  });
}

FleetResult RunFleet(const FleetConfig& config) {
  GT_CHECK_GT(config.shards, 0) << "RunFleet: shards must be positive";
  GT_CHECK_GE(config.threads, 0) << "RunFleet: worker count must be >= 0 (0 = one per core)";
  const std::size_t population = config.server.sessions.population;
  GT_CHECK_LE(static_cast<std::size_t>(config.shards), game::MaxDisjointServers(population))
      << "RunFleet: shard count exceeds the disjoint IP namespace at population "
      << population;

  // Units group servers so a large fleet presents a few hundred of them:
  // that bounds the per-unit telemetry and keeps the window's memory in
  // units, not servers. The partition depends only on the server count,
  // never on the worker count.
  const int servers = config.shards;
  const int unit_size = std::max(1, servers / 256);
  const int units = (servers + unit_size - 1) / unit_size;
  const int workers = ResolveWorkerCount(units, config.threads);
  const int window_units = 2 * workers;

  // Category defaults of the ambient trace log (when one is bound) carry
  // over to the shard logs, so e.g. enabling "tick" upstream enables it in
  // every shard.
  const obs::ObsContext ambient = obs::Current();

  // ---- Scheduler state ---------------------------------------------------
  // The claim cursor: workers take units with fetch_add, so units are
  // claimed in ascending order (relaxed: it only hands out indices; the
  // results are published through the reduction's mutex).
  std::atomic<int> next_unit{0};
  StreamingReduction reduction(servers, window_units);
  std::vector<WorkerTelemetry> telemetry(static_cast<std::size_t>(workers));

  // ---- Scheduler timeline (diagnostic channel) ---------------------------
  // One bounded track per worker, pid = worker index. Each worker writes
  // only its own track (no locking, like telemetry), and all spans share
  // one epoch so the tracks line up on a common wall-clock axis. Nothing
  // recorded here ever reaches the merged surfaces.
  const bool sched_tracing = config.sched_trace;
  const SchedClock::time_point sched_epoch = SchedClock::now();
  std::vector<obs::TraceLog> sched_tracks;
  if (sched_tracing) {
    sched_tracks.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      sched_tracks.emplace_back(/*pid=*/w, kSchedTraceMaxEventsPerWorker);
    }
  }
  const auto sched_s = [sched_epoch](SchedClock::time_point t) {
    return std::chrono::duration<double>(t - sched_epoch).count();
  };

  // ---- One shard, exactly as a standalone run would execute it -----------
  auto run_server = [&](int server) {
    ServerResult r;
    game::GameConfig server_config = config.server;
    server_config.seed =
        sim::SubstreamSeed(config.base_seed, static_cast<std::uint64_t>(server));
    if (config.configure_shard) config.configure_shard(server, server_config);
    GT_CHECK_LE(server_config.sessions.population, population)
        << "RunFleet: configure_shard grew shard " << server
        << "'s identity pool beyond the template's - the IP namespaces would collide";
    // Set after configure_shard, so no specialisation can move a shard out
    // of its namespace: the shift packs this server into the host bits the
    // identity pool leaves unused, so thousands of shards stay disjoint.
    server_config.client_ip_shift =
        game::ShardIpShift(static_cast<std::uint32_t>(server), population);
    r.seed = server_config.seed;
    r.partial.emplace(config.analysis);
    r.trace.emplace(/*pid=*/server, config.trace_max_events);
    if (ambient.trace != nullptr) {
      r.trace->SetCategoryEnabled("tick", ambient.trace->CategoryEnabled("tick"));
    }
    // An ambient flight recorder sets the sampling grid; every shard then
    // records its own snapshot stream on that grid. Shards never run a
    // watchdog or flush Prometheus - alerting and exposition happen once,
    // against the merged stream.
    if (ambient.recorder != nullptr) r.recorder.emplace(ambient.recorder->options());
    // Each shard observes its own registry and log (folded below in shard
    // order); only shard 0 may keep the operator heartbeat, so an N-way
    // run does not interleave N pulses on stderr.
    const obs::ScopedObsBinding bind(
        {.metrics = &r.metrics,
         .trace = &*r.trace,
         .recorder = r.recorder.has_value() ? &*r.recorder : nullptr,
         .shard_id = server,
         .heartbeat = ambient.heartbeat && server == 0});
    auto run = RunServerTrace(server_config, *r.partial);
    r.stats = run.stats;
    r.players = std::move(run.players);
    return r;
  };

  auto worker_loop = [&](int w, WorkerTelemetry& tele, obs::TraceLog* track) {
    for (;;) {
      const int unit = next_unit.fetch_add(1, std::memory_order_relaxed);
      if (unit >= units) return;

      {
        const auto admit_start = SchedClock::now();
        const std::uint64_t stall_before = tele.stall_ns;
        const bool admitted = reduction.Admit(unit, tele.stall_ns);
        // Only a *blocked* admission gets a span; an uncontended Admit is
        // a lock acquisition, not a schedulable interval.
        if (track != nullptr && tele.stall_ns > stall_before) {
          track->Complete("admit " + std::to_string(unit), "admit", sched_s(admit_start),
                          sched_s(SchedClock::now()));
        }
        if (!admitted) return;
      }

      // Run every shard of the unit sequentially on this worker.
      UnitResult unit_result;
      unit_result.first_server = unit * unit_size;
      const int last_server = std::min(servers, unit_result.first_server + unit_size);
      const auto unit_start = SchedClock::now();
      unit_result.servers.reserve(
          static_cast<std::size_t>(last_server - unit_result.first_server));
      for (int s = unit_result.first_server; s < last_server; ++s) {
        unit_result.servers.push_back(run_server(s));
        ++tele.shards_run;
      }
      const auto unit_end = SchedClock::now();
      const std::uint64_t unit_ns = NsBetween(unit_start, unit_end);
      tele.work_ns += unit_ns;
      ++tele.units_run;
      tele.units.push_back(obs::SchedUnitSample{
          .unit = unit,
          .worker = w,
          .first_shard = unit_result.first_server,
          .shard_count = last_server - unit_result.first_server,
          .dur_ns = unit_ns,
      });
      if (track != nullptr) {
        track->Complete("unit " + std::to_string(unit) + " [" +
                            std::to_string(unit_result.first_server) + "," +
                            std::to_string(last_server) + ")",
                        "unit", sched_s(unit_start), sched_s(unit_end));
      }

      const auto commit_start = SchedClock::now();
      const int folded = reduction.Commit(unit, std::move(unit_result));
      const auto commit_end = SchedClock::now();
      tele.merge_ns += NsBetween(commit_start, commit_end);
      if (track != nullptr) {
        track->Complete("merge x" + std::to_string(folded), "merge", sched_s(commit_start),
                        sched_s(commit_end));
      }
    }
  };

  RunWorkers(workers, [&](int w) {
    WorkerTelemetry& tele = telemetry[static_cast<std::size_t>(w)];
    obs::TraceLog* track =
        sched_tracing ? &sched_tracks[static_cast<std::size_t>(w)] : nullptr;
    const auto start = SchedClock::now();
    try {
      worker_loop(w, tele, track);
    } catch (...) {
      reduction.Poison();  // wake the peers parked in Admit before unwinding
      throw;
    }
    const auto end = SchedClock::now();
    tele.span_ns = NsBetween(start, end);
    // The lifetime span is recorded last; a track saturated by inner spans
    // would drop it, which the merged dropped count makes visible.
    if (track != nullptr) {
      track->Complete("worker " + std::to_string(w), "worker", sched_s(start), sched_s(end));
    }
  });
  StreamingReduction::Harvest harvest = reduction.TakeResults();
  GT_CHECK_EQ(harvest.merged_units, static_cast<std::uint64_t>(units))
      << "RunFleet: scheduler lost work units (internal bug)";

  FleetResult result{.report = harvest.master->Finish(config.server.trace_duration),
                     .shards = std::move(harvest.shard_outcomes),
                     .total_players = std::move(*harvest.total_players),
                     .total_packets = harvest.total_packets,
                     .threads_used = workers,
                     .metrics = std::move(harvest.metrics),
                     .trace_log = std::move(harvest.trace),
                     .recorder = std::move(harvest.recorder),
                     .scheduler_metrics = {},
                     .sched_report = {},
                     .sched_trace = obs::TraceLog()};
  // Bounded-buffer trace loss would otherwise be invisible in the merged
  // registry: the per-shard drop counts only live inside the TraceLog.
  result.metrics.counter("obs.trace.dropped_events").Add(result.trace_log.dropped());

  // Scheduler telemetry is worker-count-dependent by construction, so it
  // goes in its own registry - result.metrics, the flight stream and the
  // ambient context keep the bit-identical-across-workers contract.
  obs::MetricsRegistry& sched = result.scheduler_metrics;
  sched.gauge("fleet.scheduler.workers").Set(static_cast<double>(workers));
  sched.gauge("fleet.scheduler.units").Set(static_cast<double>(units));
  sched.gauge("fleet.scheduler.unit_size").Set(static_cast<double>(unit_size));
  sched.gauge("fleet.scheduler.window_units").Set(static_cast<double>(window_units));
  sched.gauge("fleet.scheduler.peak_live_units", obs::Gauge::MergeMode::kMax)
      .Set(static_cast<double>(harvest.peak_live_units));
  sched.counter("fleet.scheduler.merged_units").Add(harvest.merged_units);

  // Critical-path attribution: fold the per-worker measurements and unit
  // records into the report, then mirror them as fleet.worker.<w> counters
  // (idle_ns is the report's residual term, so the per-worker counters sum
  // to span_ns exactly).
  std::vector<obs::SchedWorkerSample> worker_samples;
  worker_samples.reserve(static_cast<std::size_t>(workers));
  std::vector<obs::SchedUnitSample> unit_samples;
  unit_samples.reserve(static_cast<std::size_t>(units));
  for (const WorkerTelemetry& tele : telemetry) {
    worker_samples.push_back(obs::SchedWorkerSample{
        .span_ns = tele.span_ns,
        .work_ns = tele.work_ns,
        .stall_ns = tele.stall_ns,
        .merge_ns = tele.merge_ns,
        .units = tele.units_run,
        .shards = tele.shards_run,
    });
    unit_samples.insert(unit_samples.end(), tele.units.begin(), tele.units.end());
  }
  result.sched_report = obs::BuildSchedReport(worker_samples, unit_samples);
  result.sched_report.DumpInto(sched);
  for (const obs::SchedReport::Worker& w : result.sched_report.per_worker) {
    const std::string prefix = "fleet.worker." + std::to_string(w.worker);
    sched.counter(prefix + ".work_ns").Add(w.work_ns);
    sched.counter(prefix + ".admission_stall_ns").Add(w.stall_ns);
    sched.counter(prefix + ".merge_ns").Add(w.merge_ns);
    sched.counter(prefix + ".idle_ns").Add(w.idle_ns);
    sched.counter(prefix + ".span_ns").Add(w.span_ns);
    sched.counter(prefix + ".shards_run").Add(w.shards);
    sched.counter(prefix + ".units_run").Add(w.units);
  }

  // The worker timeline: per-worker tracks merged into one log, each
  // event keeping its worker as the pid, so Perfetto renders one lane per
  // worker. Bounded end to end - the merged cap is the sum of the
  // per-worker caps, so Merge itself never drops.
  if (sched_tracing) {
    result.sched_trace = obs::TraceLog(
        /*pid=*/0, (kSchedTraceMaxEventsPerWorker + 1) * static_cast<std::size_t>(workers));
    for (obs::TraceLog& track : sched_tracks) {
      result.sched_trace.Merge(std::move(track));
    }
  }

  // Flow into the caller's ambient context too, so a bound --metrics-out /
  // --trace-out export sees the fleet without extra plumbing.
  if (ambient.metrics != nullptr) ambient.metrics->Merge(result.metrics);
  if (ambient.trace != nullptr) {
    obs::TraceLog copy = result.trace_log;
    ambient.trace->Merge(std::move(copy));
  }
  if (ambient.recorder != nullptr) {
    ambient.recorder->Merge(result.recorder);
    // Alert once, over the merged deterministic stream.
    if (ambient.watchdog != nullptr) ambient.watchdog->CatchUp(*ambient.recorder);
  }
  return result;
}

}  // namespace gametrace::core
