#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <streambuf>
#include <string_view>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "game/cs_server.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "router/nat_device.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/capture.h"
#include "trace/trace_format.h"

namespace perfbench {

namespace gt = gametrace;

namespace {

// Workload sizes (README.md, "Workloads").
constexpr double kPaperServerWindow = 7200.0;  // 2 h of one 22-slot server
constexpr double kReplayWindow = 3600.0;       // 1 h trace, ~63 MB in memory
constexpr int kFleetShards = 96;
constexpr double kFleetShardWindow = 120.0;
constexpr int kFleetWorkers = 2;
constexpr int kMinRounds = 3;

std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Min(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

// Linear-interpolated quantile of `v` at q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string JsonNumber(double v) {
  std::string out;
  gt::obs::AppendJsonNumber(out, v);
  return out;
}

// Calls round(r) for r = 0, 1, ... until `seconds` have passed and at least
// `min_rounds` rounds ran.
template <typename Round>
void RepeatFor(double seconds, int min_rounds, Round&& round) {
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (int r = 0; r < min_rounds || NowNs() < deadline; ++r) round(r);
}

// Timings of the timed repetitions of one run.
struct Timings {
  std::vector<double> wall_ns;
  std::vector<double> cpu_ns;
  std::vector<double> setup_ns;

  void Add(std::int64_t wall, std::int64_t cpu, std::int64_t setup) {
    wall_ns.push_back(static_cast<double>(wall));
    cpu_ns.push_back(static_cast<double>(cpu));
    setup_ns.push_back(static_cast<double>(setup));
  }
};

void EmitEndToEnd(RunOutcome& out, const Timings& t, std::uint64_t packets) {
  const auto n = static_cast<double>(packets);
  for (double wall : t.wall_ns) out.rep_wall_ms.push_back(wall * 1e-6);
  out.metrics["pps"] = n / (Min(t.wall_ns) * 1e-9);
  out.metrics["cpu_ns_per_packet"] = Min(t.cpu_ns) / n;
  out.metrics["setup_s"] = Median(t.setup_ns) * 1e-9;
  out.metrics["peak_rss_mb"] = PeakRssMb();
}

// Tracing overhead from adjacent (plain, traced) pairs. A negative median
// is reported as it is, flagged unmeasured, never clamped.
void EmitOverhead(RunOutcome& out, const std::vector<double>& plain,
                  const std::vector<double>& traced) {
  std::vector<double> frac;
  for (std::size_t i = 0; i < plain.size() && i < traced.size(); ++i) {
    frac.push_back(traced[i] / plain[i] - 1.0);
  }
  const double median = Median(frac);
  out.metrics["trace.tracing_overhead_frac"] = median;
  out.metrics["trace.tracing_overhead_spread"] = Quantile(frac, 0.75) - Quantile(frac, 0.25);
  out.metrics["trace.tracing_overhead_measured"] = median > 0.0 ? 1.0 : 0.0;
}

void EmitLedger(RunOutcome& out, SpanLog ledger) {
  const auto wall = static_cast<double>(ledger.spans().front().total_ns);
  out.metrics["trace.wall_ms"] = wall * 1e-6;
  out.metrics["trace.residual_frac"] = static_cast<double>(ledger.SelfTimes().front()) / wall;
  out.ledger = std::move(ledger);
}

void EmitDelivery(RunOutcome& out, const TimingSink::Tier& columns,
                  const TimingSink::Tier& scalar) {
  const auto packets = static_cast<double>(columns.packets + scalar.packets);
  out.metrics["core.characterizer.on_columns_ns_per_packet"] =
      Ratio(static_cast<double>(columns.ns), static_cast<double>(columns.packets));
  out.metrics["trace.deliver.packets_per_columns_call"] =
      Ratio(static_cast<double>(columns.packets), static_cast<double>(columns.calls));
  out.metrics["trace.deliver.scalar_packets_frac"] =
      Ratio(static_cast<double>(scalar.packets), packets);
  out.metrics["trace.deliver.packets"] = packets;
}

void EmitSimCounters(RunOutcome& out, const gt::obs::MetricsRegistry& registry,
                     const gt::game::CsServer::Stats& stats) {
  const auto packets = static_cast<double>(stats.packets_emitted);
  out.metrics["game.packets_per_tick"] = Ratio(packets, static_cast<double>(stats.ticks));
  out.metrics["sim.events_per_packet"] =
      Ratio(static_cast<double>(registry.counter_value("sim.events_executed")), packets);
  out.metrics["sim.queue_high_water"] = registry.gauge_value("sim.queue.high_water");
}

// Scope for the warm-up repetition: in a traced run it binds a registry so
// the simulator's own counters can be read; timed repetitions bind none.
class CounterScope {
 public:
  explicit CounterScope(bool bind) {
    if (bind) binding_.emplace(gt::obs::ObsContext{.metrics = &registry_, .heartbeat = false});
  }
  [[nodiscard]] const gt::obs::MetricsRegistry& registry() const noexcept { return registry_; }

 private:
  gt::obs::MetricsRegistry registry_;
  std::optional<gt::obs::ScopedObsBinding> binding_;
};

// Runs a workload's timed repetitions for the run's seconds. `timed` runs
// one repetition, recording spans into its argument when that is non-null;
// every repetition type has wall_ns, cpu_ns and setup_ns. Untraced, fills
// the end-to-end metrics. Traced, alternates plain and traced repetitions,
// runs `after_traced` (if set) after each traced one, fills the overhead
// and ledger metrics, and returns the fastest traced repetition.
template <typename Rep, typename Timed>
std::optional<Rep> Repeat(const RunOptions& o, RunOutcome& out, std::uint64_t packets,
                          Timed&& timed,
                          const std::function<void(const Rep&)>& after_traced = nullptr) {
  if (!o.trace) {
    Timings timings;
    RepeatFor(o.seconds, kMinRounds, [&](int) {
      const Rep rep = timed(nullptr);
      timings.Add(rep.wall_ns, rep.cpu_ns, rep.setup_ns);
    });
    EmitEndToEnd(out, timings, packets);
    return std::nullopt;
  }
  std::vector<double> plain;
  std::vector<double> traced;
  std::optional<Rep> best;
  SpanLog best_log;
  RepeatFor(o.seconds, kMinRounds, [&](int) {
    plain.push_back(static_cast<double>(timed(nullptr).wall_ns));
    SpanLog log;
    Rep rep = timed(&log);
    traced.push_back(static_cast<double>(rep.wall_ns));
    if (after_traced) after_traced(rep);
    if (!best || rep.wall_ns < best->wall_ns) {
      best = std::move(rep);
      best_log = std::move(log);
    }
  });
  for (double wall : plain) out.rep_wall_ms.push_back(wall * 1e-6);
  EmitOverhead(out, plain, traced);
  EmitLedger(out, std::move(best_log));
  return best;
}

// ---- paper_server ----------------------------------------------------------

RunOutcome RunPaperServer(const RunOptions& o) {
  RunOutcome out;
  out.params_json = R"({"config":"GameConfig::ScaledDefaults","window_s":)" +
                    JsonNumber(kPaperServerWindow) + R"(,"workers":1})";
  ServerRep reference;
  gt::obs::MetricsRegistry registry;
  {
    const CounterScope counters(o.trace);
    reference = RunPaperServerRep(o.seed, kPaperServerWindow, /*decorated=*/false, nullptr);
    registry = counters.registry();
  }
  const std::string expected = SerializeReport(*reference.report);
  CheckConservation(out.checks, *reference.report, reference.stats.packets_emitted);
  CheckPaperBands(out.checks, reference.report->summary, reference.mean_players);
  CheckHurst(out.checks, reference.report->hurst, /*small_scale_floor=*/-0.5);

  std::uint64_t mismatches = 0;
  auto timed = [&](SpanLog* log) {
    ServerRep rep = RunPaperServerRep(o.seed, kPaperServerWindow, /*decorated=*/true, log);
    ++out.attempted;
    if (SerializeReport(*rep.report) != expected) ++mismatches;
    return rep;
  };
  if (const std::optional<ServerRep> best =
          Repeat<ServerRep>(o, out, reference.stats.packets_emitted, timed)) {
    const auto packets = static_cast<double>(reference.stats.packets_emitted);
    out.metrics["game.generate_ns_per_packet"] =
        static_cast<double>(out.ledger.Self("game.generate")) / packets;
    out.metrics["core.characterizer.finish_ms"] =
        static_cast<double>(out.ledger.Total("core.characterizer.finish")) * 1e-6;
    EmitDelivery(out, best->columns, best->scalar);
    EmitSimCounters(out, registry, reference.stats);
  }
  out.checks.Expect("report_identical_through_timing_sink", mismatches == 0,
                    std::to_string(mismatches) + " of " + std::to_string(out.attempted) +
                        " repetitions differ from the undecorated report");
  out.failed = mismatches;
  return out;
}

// ---- gtr_replay ------------------------------------------------------------

// An istream over bytes held in memory: TraceReader's stream constructor
// reads the trace without touching the disk.
class MemoryStream final : public std::istream {
 public:
  explicit MemoryStream(std::string_view bytes) : std::istream(nullptr), buffer_(bytes) {
    rdbuf(&buffer_);
  }

 private:
  class Buffer final : public std::streambuf {
   public:
    explicit Buffer(std::string_view bytes) {
      // The get area is only read; streambuf's interface takes char*.
      char* begin = const_cast<char*>(bytes.data());
      setg(begin, begin, begin + bytes.size());
    }
  };
  Buffer buffer_;
};

struct ReplayInput {
  std::string bytes;
  gt::game::CsServer::Stats stats;
  double mean_players = 0.0;
};

// Generates the .gtr trace of one calibrated server and loads it into
// memory; the file is removed again before any timing starts.
ReplayInput GenerateReplayInput(std::uint64_t seed, const std::string& work_dir) {
  gt::game::GameConfig config = gt::game::GameConfig::ScaledDefaults(kReplayWindow);
  config.seed = seed;
  const std::string path = work_dir + "/gtr_replay-" + std::to_string(seed) + ".gtr";
  ReplayInput input;
  {
    gt::trace::TraceWriter writer(path, config.server);
    const gt::core::ServerTraceResult run = gt::core::RunServerTrace(config, writer);
    writer.Flush();
    input.stats = run.stats;
    input.mean_players = MeanPlayers(run.players);
  }
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("gtr_replay: cannot read back " + path);
    in.seekg(0, std::ios::end);
    input.bytes.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(input.bytes.data(), static_cast<std::streamsize>(input.bytes.size()));
    if (!in) throw std::runtime_error("gtr_replay: short read of " + path);
  }
  std::remove(path.c_str());
  return input;
}

struct ReplayRep {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t setup_ns = 0;
  std::uint64_t drained = 0;
  std::optional<gt::core::CharacterizationReport> report;
  TimingSink::Tier columns;
  TimingSink::Tier scalar;
};

// Opens the in-memory trace, drains it into the Characterizer and
// finishes. A null `log` with `decorated` false is the undecorated run.
ReplayRep RunReplayRep(const std::string& bytes, bool decorated, SpanLog* log) {
  ReplayRep rep;
  const std::int64_t c0 = CpuNs();
  const std::int64_t t0 = NowNs();
  const int root = log != nullptr ? log->Open("rep", -1, t0) : -1;
  int span = log != nullptr ? log->Open("trace.reader.open", root, t0) : -1;
  gt::trace::TraceReader reader(std::make_unique<MemoryStream>(bytes));
  if (log != nullptr) {
    log->Close(span, NowNs());
    span = log->Open("core.characterizer.construct", root, NowNs());
  }
  gt::core::Characterizer characterizer;
  TimingSink timing(characterizer, log != nullptr);
  gt::trace::CaptureSink& sink =
      decorated ? static_cast<gt::trace::CaptureSink&>(timing) : characterizer;
  if (log != nullptr) {
    log->Close(span, NowNs());
    span = log->Open("trace.reader.drain", root, NowNs());
  }
  rep.drained = reader.Drain(sink);
  if (log != nullptr) {
    log->Close(span, NowNs());
    timing.AddSpans(*log, span);
    span = log->Open("core.characterizer.finish", root, NowNs());
  }
  rep.report = characterizer.Finish(kReplayWindow);
  const std::int64_t t1 = NowNs();
  if (log != nullptr) {
    log->Close(span, t1);
    log->Close(root, t1);
  }
  rep.cpu_ns = CpuNs() - c0;
  rep.wall_ns = t1 - t0;
  rep.setup_ns = decorated ? timing.first_packet_ns() - t0 : 0;
  rep.columns = timing.columns();
  rep.scalar = timing.scalar();
  return rep;
}

RunOutcome RunGtrReplay(const RunOptions& o) {
  RunOutcome out;
  out.params_json = R"({"config":"GameConfig::ScaledDefaults","window_s":)" +
                    JsonNumber(kReplayWindow) + R"(,"input":"in-memory .gtr"})";
  const ReplayInput input = GenerateReplayInput(o.seed, o.work_dir);
  const ReplayRep reference = RunReplayRep(input.bytes, /*decorated=*/false, nullptr);
  const std::string expected = SerializeReport(*reference.report);
  out.checks.Expect("conservation.drained_equals_emitted",
                    reference.drained == input.stats.packets_emitted,
                    std::to_string(reference.drained) + " vs " +
                        std::to_string(input.stats.packets_emitted));
  CheckConservation(out.checks, *reference.report, input.stats.packets_emitted);
  CheckPaperBands(out.checks, reference.report->summary, input.mean_players);
  CheckHurst(out.checks, reference.report->hurst, /*small_scale_floor=*/-0.5);

  std::uint64_t mismatches = 0;
  auto timed = [&](SpanLog* log) {
    ReplayRep rep = RunReplayRep(input.bytes, /*decorated=*/true, log);
    ++out.attempted;
    if (SerializeReport(*rep.report) != expected) ++mismatches;
    return rep;
  };
  const std::optional<ReplayRep> best = Repeat<ReplayRep>(o, out, reference.drained, timed);
  if (!o.trace) {
    // The trace's size varies by a third across seeds and would swamp the
    // analysis's own footprint; the bytes are the benchmark's input, so
    // they are not counted.
    out.metrics["peak_rss_mb"] -= static_cast<double>(input.bytes.size()) / (1024.0 * 1024.0);
  }
  if (best) {
    const auto packets = static_cast<double>(reference.drained);
    out.metrics["trace.reader.decode_ns_per_packet"] =
        static_cast<double>(out.ledger.Self("trace.reader.drain")) / packets;
    out.metrics["trace.reader.open_us"] =
        static_cast<double>(out.ledger.Total("trace.reader.open")) * 1e-3;
    out.metrics["core.characterizer.finish_ms"] =
        static_cast<double>(out.ledger.Total("core.characterizer.finish")) * 1e-6;
    EmitDelivery(out, best->columns, best->scalar);
  }
  out.checks.Expect("report_identical_through_timing_sink", mismatches == 0,
                    std::to_string(mismatches) + " of " + std::to_string(out.attempted) +
                        " repetitions differ from the undecorated report");
  out.failed = mismatches;
  return out;
}

// ---- fleet_2w --------------------------------------------------------------

struct FleetRep {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t setup_ns = 0;
  std::optional<gt::core::FleetResult> result;
};

// The scheduler's per-worker components, summed over workers.
struct WorkerTotals {
  std::uint64_t work = 0;
  std::uint64_t steal = 0;
  std::uint64_t stall = 0;
  std::uint64_t merge = 0;
  std::uint64_t idle = 0;
  std::uint64_t span = 0;
  std::uint64_t steals = 0;
};

WorkerTotals SumWorkers(const gt::obs::SchedReport& report) {
  WorkerTotals t;
  for (const gt::obs::SchedReport::Worker& w : report.per_worker) {
    t.work += w.work_ns;
    t.steal += w.steal_ns;
    t.stall += w.stall_ns;
    t.merge += w.merge_ns;
    t.idle += w.idle_ns;
    t.span += w.span_ns;
    t.steals += w.steals;
  }
  return t;
}

// The scheduler's measured decomposition as spans under `parent`: the
// makespan, and below it each component averaged over workers (they sum to
// the mean worker span; the makespan's self time is the imbalance tail).
void AddSchedulerSpans(SpanLog& log, int parent, const gt::obs::SchedReport& report) {
  const WorkerTotals t = SumWorkers(report);
  const auto n = static_cast<std::uint64_t>(std::max(report.workers, 1));
  const int workers =
      log.Add("core.fleet.workers", parent, static_cast<std::int64_t>(report.makespan_ns));
  log.Add("core.fleet.work", workers, static_cast<std::int64_t>(t.work / n));
  log.Add("core.fleet.steal", workers, static_cast<std::int64_t>(t.steal / n));
  log.Add("core.fleet.admission_stall", workers, static_cast<std::int64_t>(t.stall / n));
  log.Add("core.fleet.merge", workers, static_cast<std::int64_t>(t.merge / n));
  log.Add("core.fleet.idle", workers, static_cast<std::int64_t>(t.idle / n));
}

FleetRep RunFleetRep(std::uint64_t seed, int workers, SpanLog* log) {
  gt::core::FleetConfig config = gt::core::FleetConfig::Scaled(kFleetShards, kFleetShardWindow);
  config.base_seed = seed;
  config.threads = workers;
  // Stamps the first shard's start: the first layer a fleet run exposes.
  std::atomic<std::int64_t> first_shard{0};
  config.configure_shard = [&first_shard](int, gt::game::GameConfig&) {
    if (first_shard.load(std::memory_order_relaxed) != 0) return;
    std::int64_t unset = 0;
    first_shard.compare_exchange_strong(unset, NowNs(), std::memory_order_relaxed);
  };
  FleetRep rep;
  const std::int64_t c0 = CpuNs();
  const std::int64_t t0 = NowNs();
  const int root = log != nullptr ? log->Open("rep", -1, t0) : -1;
  const int run = log != nullptr ? log->Open("core.fleet.run", root, t0) : -1;
  rep.result.emplace(gt::core::RunFleet(config));
  const std::int64_t t1 = NowNs();
  if (log != nullptr) {
    log->Close(run, t1);
    log->Close(root, t1);
    AddSchedulerSpans(*log, run, rep.result->sched_report);
  }
  rep.cpu_ns = CpuNs() - c0;
  rep.wall_ns = t1 - t0;
  rep.setup_ns = first_shard.load(std::memory_order_relaxed) - t0;
  return rep;
}

void CheckFleet(CheckList& checks, const gt::core::FleetResult& result) {
  std::uint64_t shard_sum = 0;
  for (const gt::core::ShardOutcome& shard : result.shards) {
    shard_sum += shard.stats.packets_emitted;
  }
  checks.Expect("conservation.fleet_total_equals_shard_sum",
                result.total_packets == shard_sum &&
                    result.shards.size() == static_cast<std::size_t>(kFleetShards),
                std::to_string(result.total_packets) + " vs " + std::to_string(shard_sum));
  CheckConservation(checks, result.report, shard_sum);
  CheckPaperBands(checks, result.report.summary, MeanPlayers(result.total_players),
                  kFleetShards);
  // Every shard ticks on the same 50 ms grid, so the aggregate's
  // small-scale variance falls off faster than one server's.
  CheckHurst(checks, result.report.hurst, /*small_scale_floor=*/-1.5);
}

RunOutcome RunFleetWorkload(const RunOptions& o) {
  RunOutcome out;
  out.params_json = R"({"config":"FleetConfig::Scaled","shards":)" +
                    std::to_string(kFleetShards) + R"(,"shard_window_s":)" +
                    JsonNumber(kFleetShardWindow) + R"(,"workers":)" +
                    std::to_string(kFleetWorkers) + "}";
  const FleetRep reference = RunFleetRep(o.seed, kFleetWorkers, nullptr);
  const std::string expected = SerializeReport(reference.result->report);
  CheckFleet(out.checks, *reference.result);
  const std::uint64_t packets = reference.result->total_packets;

  std::uint64_t mismatches = 0;
  auto timed_on = [&](int workers, SpanLog* log) {
    FleetRep rep = RunFleetRep(o.seed, workers, log);
    ++out.attempted;
    if (SerializeReport(rep.result->report) != expected) ++mismatches;
    return rep;
  };
  // A traced run also runs the fleet on one worker after each traced
  // repetition: the speedup's base and the cross-worker identity check.
  std::vector<double> one_worker;
  bool traced_matches_one_worker = true;
  const std::function<void(const FleetRep&)> after_traced = [&](const FleetRep& rep) {
    const FleetRep single = timed_on(1, nullptr);
    one_worker.push_back(static_cast<double>(single.wall_ns));
    traced_matches_one_worker = traced_matches_one_worker &&
                                SerializeReport(rep.result->report) ==
                                    SerializeReport(single.result->report);
  };
  if (const std::optional<FleetRep> best = Repeat<FleetRep>(
          o, out, packets, [&](SpanLog* log) { return timed_on(kFleetWorkers, log); },
          after_traced)) {
    out.checks.Expect("fleet.traced_2w_report_identical_to_1w", traced_matches_one_worker);
    const gt::obs::SchedReport& sched = best->result->sched_report;
    const WorkerTotals t = SumWorkers(sched);
    const auto n = static_cast<double>(packets);
    const auto span = static_cast<double>(t.span);
    const gt::obs::MetricsRegistry& sm = best->result->scheduler_metrics;
    out.metrics["core.fleet.work_ns_per_packet"] = static_cast<double>(t.work) / n;
    out.metrics["core.fleet.merge_ns_per_packet"] = static_cast<double>(t.merge) / n;
    out.metrics["core.fleet.steal_frac"] = Ratio(static_cast<double>(t.steal), span);
    out.metrics["core.fleet.admission_stall_frac"] = Ratio(static_cast<double>(t.stall), span);
    out.metrics["core.fleet.idle_frac"] = Ratio(static_cast<double>(t.idle), span);
    out.metrics["core.fleet.imbalance"] = sched.imbalance_ratio;
    out.metrics["core.fleet.steals"] = static_cast<double>(t.steals);
    out.metrics["core.fleet.units"] = sm.gauge_value("fleet.scheduler.units");
    out.metrics["core.fleet.peak_live_units"] = sm.gauge_value("fleet.scheduler.peak_live_units");
    out.metrics["core.fleet.speedup_2w_vs_1w"] = Min(one_worker) * 1e-6 / Min(out.rep_wall_ms);
  }
  out.checks.Expect("report_identical_across_repetitions", mismatches == 0,
                    std::to_string(mismatches) + " of " + std::to_string(out.attempted) +
                        " repetitions differ from the warm-up report");
  out.failed = mismatches;
  return out;
}

// ---- nat_table4 ------------------------------------------------------------

gt::core::NatExperimentConfig NatConfigFor(std::uint64_t seed) {
  gt::core::NatExperimentConfig config = gt::core::NatExperimentConfig::Defaults();
  config.game.seed = seed;
  config.device.seed = gt::sim::SubstreamSeed(seed, 1);
  return config;
}

// RunNatExperiment exposes no hook before its first event, so set-up is
// timed on the same steps it performs up to that point, through the same
// public constructors: build the config, then the simulator, NAT device and
// server, and start them.
std::int64_t TimeNatSetup(std::uint64_t seed) {
  const std::int64_t t0 = NowNs();
  const gt::core::NatExperimentConfig config = NatConfigFor(seed);
  gt::sim::Simulator simulator;
  gt::router::NatDevice nat(simulator, config.device);
  gt::game::CsServer server(simulator, config.game, nat.injector());
  nat.Start();
  server.Start();
  return NowNs() - t0;
}

struct NatRep {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t setup_ns = 0;
  std::int64_t generate_ns = 0;  // traced only
  std::uint64_t generated = 0;   // traced only
  gt::core::NatExperimentResult result;
};

NatRep RunNatRep(std::uint64_t seed, SpanLog* log) {
  NatRep rep;
  rep.setup_ns = TimeNatSetup(seed);
  const gt::core::NatExperimentConfig config = NatConfigFor(seed);
  if (log != nullptr) {
    // The generation share: the same game config into the cheapest sink.
    gt::trace::CountingSink counting;
    const std::int64_t g0 = NowNs();
    (void)gt::core::RunServerTrace(config.game, counting);
    rep.generate_ns = NowNs() - g0;
    rep.generated = counting.packets();
  }
  const std::int64_t c0 = CpuNs();
  const std::int64_t t0 = NowNs();
  const int root = log != nullptr ? log->Open("rep", -1, t0) : -1;
  const int run = log != nullptr ? log->Open("router.nat_experiment", root, t0) : -1;
  rep.result = gt::core::RunNatExperiment(config);
  const std::int64_t t1 = NowNs();
  if (log != nullptr) {
    log->Close(run, t1);
    log->Close(root, t1);
    log->Add("game.generate", run, rep.generate_ns);
  }
  rep.cpu_ns = CpuNs() - c0;
  rep.wall_ns = t1 - t0;
  return rep;
}

RunOutcome RunNatWorkload(const RunOptions& o) {
  RunOutcome out;
  out.params_json =
      R"json({"config":"NatExperimentConfig::Defaults",)json"
      R"json("device_seed":"SubstreamSeed(seed, 1)"})json";
  gt::obs::MetricsRegistry registry;
  NatRep reference;
  {
    const CounterScope counters(o.trace);
    reference = RunNatRep(o.seed, nullptr);
    registry = counters.registry();
  }
  const std::string expected = SerializeNatResult(reference.result);
  CheckNatExperiment(out.checks, reference.result);
  const std::uint64_t packets = reference.result.server.packets_emitted;

  std::uint64_t mismatches = 0;
  auto timed = [&](SpanLog* log) {
    NatRep rep = RunNatRep(o.seed, log);
    ++out.attempted;
    if (SerializeNatResult(rep.result) != expected) ++mismatches;
    return rep;
  };
  if (const std::optional<NatRep> best = Repeat<NatRep>(o, out, packets, timed)) {
    const gt::core::NatExperimentResult& r = reference.result;
    const auto offered =
        static_cast<double>(r.device.metrics().counter_value("nat.device.packets"));
    const auto drops = static_cast<double>(r.device.metrics().counter_value("nat.device.drops"));
    out.metrics["router.nat_ns_per_packet"] =
        static_cast<double>(out.ledger.Self("router.nat_experiment")) /
        static_cast<double>(packets);
    out.metrics["game.generate_ns_per_packet"] =
        Ratio(static_cast<double>(best->generate_ns), static_cast<double>(best->generated));
    out.metrics["router.nat.offered"] = offered;
    out.metrics["router.nat.drops"] = drops;
    out.metrics["router.nat.drop_frac"] = Ratio(drops, offered);
    out.metrics["router.nat.livelock_episodes"] = r.livelock_episodes;
    out.metrics["router.nat.table_size"] = static_cast<double>(r.nat_table_size);
    out.metrics["game.server_freezes"] = r.server_freezes;
    EmitSimCounters(out, registry, r.server);
  }
  out.checks.Expect("output_identical_across_repetitions", mismatches == 0,
                    std::to_string(mismatches) + " of " + std::to_string(out.attempted) +
                        " repetitions differ from the warm-up run");
  out.failed = mismatches;
  return out;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"pps", "1/s"},
      {"cpu_ns_per_packet", "ns/packet"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
      {"check_pass_frac", "frac"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"game.generate_ns_per_packet", "ns/packet"},
      {"core.characterizer.on_columns_ns_per_packet", "ns/packet"},
      {"core.characterizer.finish_ms", "ms"},
      {"trace.deliver.packets_per_columns_call", "count"},
      {"trace.deliver.scalar_packets_frac", "frac"},
      {"trace.deliver.packets", "count"},
      {"trace.reader.decode_ns_per_packet", "ns/packet"},
      {"trace.reader.open_us", "us"},
      {"game.packets_per_tick", "count"},
      {"sim.events_per_packet", "count"},
      {"sim.queue_high_water", "count"},
      {"core.fleet.work_ns_per_packet", "ns/packet"},
      {"core.fleet.merge_ns_per_packet", "ns/packet"},
      {"core.fleet.steal_frac", "frac"},
      {"core.fleet.admission_stall_frac", "frac"},
      {"core.fleet.idle_frac", "frac"},
      {"core.fleet.imbalance", "ratio"},
      {"core.fleet.steals", "count"},
      {"core.fleet.units", "count"},
      {"core.fleet.peak_live_units", "count"},
      {"core.fleet.speedup_2w_vs_1w", "ratio"},
      {"router.nat_ns_per_packet", "ns/packet"},
      {"router.nat.offered", "count"},
      {"router.nat.drops", "count"},
      {"router.nat.drop_frac", "frac"},
      {"router.nat.livelock_episodes", "count"},
      {"router.nat.table_size", "count"},
      {"game.server_freezes", "count"},
      {"trace.tracing_overhead_frac", "frac"},
      {"trace.tracing_overhead_spread", "frac"},
      {"trace.tracing_overhead_measured", "flag"},
      {"trace.residual_frac", "frac"},
      {"trace.wall_ms", "ms"},
  };
  return specs;
}

ServerRep RunPaperServerRep(std::uint64_t seed, double window, bool decorated, SpanLog* log) {
  gt::game::GameConfig config = gt::game::GameConfig::ScaledDefaults(window);
  config.seed = seed;
  ServerRep rep;
  const std::int64_t c0 = CpuNs();
  const std::int64_t t0 = NowNs();
  const int root = log != nullptr ? log->Open("rep", -1, t0) : -1;
  int span = log != nullptr ? log->Open("core.characterizer.construct", root, t0) : -1;
  gt::core::Characterizer characterizer;
  TimingSink timing(characterizer, log != nullptr);
  gt::trace::CaptureSink& sink =
      decorated ? static_cast<gt::trace::CaptureSink&>(timing) : characterizer;
  if (log != nullptr) {
    log->Close(span, NowNs());
    span = log->Open("game.generate", root, NowNs());
  }
  const gt::core::ServerTraceResult run = gt::core::RunServerTrace(config, sink);
  if (log != nullptr) {
    log->Close(span, NowNs());
    timing.AddSpans(*log, span);
    span = log->Open("core.characterizer.finish", root, NowNs());
  }
  rep.report = characterizer.Finish(window);
  const std::int64_t t1 = NowNs();
  if (log != nullptr) {
    log->Close(span, t1);
    log->Close(root, t1);
  }
  rep.cpu_ns = CpuNs() - c0;
  rep.wall_ns = t1 - t0;
  rep.setup_ns = decorated ? timing.first_packet_ns() - t0 : 0;
  rep.stats = run.stats;
  rep.mean_players = MeanPlayers(run.players);
  rep.columns = timing.columns();
  rep.scalar = timing.scalar();
  return rep;
}

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome out;
  if (options.workload == "paper_server") {
    out = RunPaperServer(options);
  } else if (options.workload == "gtr_replay") {
    out = RunGtrReplay(options);
  } else if (options.workload == "fleet_2w") {
    out = RunFleetWorkload(options);
  } else if (options.workload == "nat_table4") {
    out = RunNatWorkload(options);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  if (out.attempted == 0) out.checks.Expect("repetitions_ran", false);
  // Band and invariant failures hold for every repetition: each one
  // reproduces the checked reference output.
  if (!out.checks.all_pass()) out.failed = out.attempted;
  out.metrics["check_pass_frac"] = out.checks.pass_frac();
  return out;
}

}  // namespace perfbench
