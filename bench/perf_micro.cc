// Micro-benchmarks (google-benchmark) of the hot paths: workload
// generation, stream analysis, fleet shard scaling, trie lookup and
// route-cache access. Also emits BENCH_fleet.json (packets/sec per worker
// count) so the perf trajectory of the sharded engine is machine-readable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "game/config.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "router/route_cache.h"
#include "router/routing_table.h"
#include "sim/random.h"
#include "stats/online_hurst.h"
#include "stats/quantile_sketch.h"
#include "stats/tiered_ring.h"
#include "stats/variance_time.h"
#include "trace/aggregator.h"
#include "trace/capture.h"
#include "trace/session_tracker.h"
#include "trace/summary.h"
#include "trace/trace_format.h"

namespace {

using namespace gametrace;

// Generates the calibrated capture once into a compact .gtr spool file;
// analysis benchmarks then stream records from disk per iteration in O(1)
// memory. (A VectorSink would materialise the whole capture - tens of GB
// of records at GAMETRACE_FULL scale.)
class SpooledCapture {
 public:
  explicit SpooledCapture(double duration)
      : path_((std::filesystem::temp_directory_path() / "gametrace_perf_micro.gtr").string()) {
    auto cfg = game::GameConfig::ScaledDefaults(duration);
    trace::TraceWriter writer(path_, cfg.server);
    core::RunServerTrace(cfg, writer);
    writer.Flush();
    packets_ = writer.packets_written();
  }
  ~SpooledCapture() { std::remove(path_.c_str()); }

  std::uint64_t DrainInto(trace::CaptureSink& sink) const {
    trace::TraceReader reader(path_);
    return reader.Drain(sink);
  }
  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }

 private:
  std::string path_;
  std::uint64_t packets_ = 0;
};

const SpooledCapture& SharedCapture() {
  static const SpooledCapture capture(60.0);
  return capture;
}

// End-to-end workload generation throughput (packets simulated per second
// of wall clock).
void BM_WorkloadGeneration(benchmark::State& state) {
  const double duration = static_cast<double>(state.range(0));
  std::uint64_t packets = 0;
  for (auto _ : state) {
    auto cfg = game::GameConfig::ScaledDefaults(duration);
    trace::CountingSink sink;
    const auto result = core::RunServerTrace(cfg, sink);
    packets += result.stats.packets_emitted;
    benchmark::DoNotOptimize(sink.packets());
  }
  state.counters["packets/s"] =
      benchmark::Counter(static_cast<double>(packets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WorkloadGeneration)->Arg(60)->Arg(300)->Unit(benchmark::kMillisecond);

// Full analysis pipeline cost per packet, streamed from the spool file.
void BM_CharacterizerPipeline(benchmark::State& state) {
  const auto& capture = SharedCapture();
  for (auto _ : state) {
    core::Characterizer characterizer;
    capture.DrainInto(characterizer);
    auto report = characterizer.Finish(60.0);
    benchmark::DoNotOptimize(report.summary.total_packets());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(capture.packets()) * state.iterations());
}
BENCHMARK(BM_CharacterizerPipeline)->Unit(benchmark::kMillisecond);

// Just the binning aggregator (the per-packet hot path of Figures 1-10).
void BM_LoadAggregator(benchmark::State& state) {
  const auto& capture = SharedCapture();
  for (auto _ : state) {
    trace::LoadAggregator agg(0.010);
    capture.DrainInto(agg);
    benchmark::DoNotOptimize(agg.packets_in().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(capture.packets()) * state.iterations());
}
BENCHMARK(BM_LoadAggregator)->Unit(benchmark::kMillisecond);

// ---- Hot-path delivery sweep: columnar tick batches per sink chain -----

// A synthetic replica of the server's steady-state emission pattern: each
// 50 ms tick produces one contiguous burst of ~22 outbound snapshots
// followed by ~13 inbound client updates, exactly the shape CsServer hands
// to its sink as one batch. The stream is pre-columnised into per-tick
// PacketBatch views, as the live server's tick buffer is born columnar.
struct HotpathWorkload {
  std::vector<net::PacketRecord> records;
  net::ColumnarBatch columns;
  std::vector<net::PacketBatch> column_ticks;
};

HotpathWorkload MakeHotpathWorkload(std::size_t tick_count) {
  constexpr int kClients = 22;
  constexpr double kTick = 0.05;
  sim::Rng rng(99);
  HotpathWorkload w;
  w.records.reserve(tick_count * (kClients + 13));
  std::vector<std::pair<std::size_t, std::size_t>> extents;
  std::uint32_t seq_out[kClients] = {};
  std::uint32_t seq_in[kClients] = {};
  for (std::size_t tick = 0; tick < tick_count; ++tick) {
    const double t = static_cast<double>(tick) * kTick;
    const std::size_t begin = w.records.size();
    for (int c = 0; c < kClients; ++c) {  // broadcast burst
      net::PacketRecord r;
      r.timestamp = t + 1e-5 * static_cast<double>(c);
      r.client_ip = net::Ipv4Address((10u << 24) | static_cast<std::uint32_t>(c + 1));
      r.client_port = static_cast<std::uint16_t>(30000 + c);
      r.app_bytes = static_cast<std::uint16_t>(120 + rng.NextBelow(60));
      r.direction = net::Direction::kServerToClient;
      r.kind = net::PacketKind::kGameUpdate;
      r.seq = ++seq_out[c];
      w.records.push_back(r);
    }
    for (int i = 0; i < 13; ++i) {  // client sends inside the tick window
      const auto c = static_cast<int>(rng.NextBelow(kClients));
      net::PacketRecord r;
      r.timestamp = t + kTick * rng.NextDouble();
      r.client_ip = net::Ipv4Address((10u << 24) | static_cast<std::uint32_t>(c + 1));
      r.client_port = static_cast<std::uint16_t>(30000 + c);
      r.app_bytes = static_cast<std::uint16_t>(40 + rng.NextBelow(40));
      r.direction = net::Direction::kClientToServer;
      r.kind = net::PacketKind::kGameUpdate;
      r.seq = ++seq_in[c];
      w.records.push_back(r);
    }
    extents.emplace_back(begin, w.records.size() - begin);
  }
  w.columns.Append(w.records);
  w.column_ticks.reserve(extents.size());
  const net::PacketBatch all_columns = w.columns.View();
  for (const auto& [begin, len] : extents) w.column_ticks.push_back(all_columns.Slice(begin, len));
  return w;
}

// Analysis chains of increasing width: the bare cheapest sink, then tees
// of two and of four terminals (the characterizer's constituents).
struct SinkChain {
  trace::CountingSink counting;
  trace::LoadAggregator agg{0.010};
  trace::TraceSummary summary;
  trace::SessionTracker sessions{30.0};
  trace::TeeSink tee;
  trace::CaptureSink* head = &counting;

  explicit SinkChain(int sinks) {
    if (sinks == 1) return;
    tee.Attach(counting);
    tee.Attach(agg);
    if (sinks == 4) {
      tee.Attach(summary);
      tee.Attach(sessions);
    }
    head = &tee;
  }
};

constexpr int kChainSinks[] = {1, 2, 4};

const char* ChainName(int sinks) {
  switch (sinks) {
    case 1: return "counting";
    case 2: return "tee{counting,load_agg}";
    default: return "tee{counting,load_agg,summary,sessions}";
  }
}

const HotpathWorkload& SharedHotpathWorkload() {
  static const HotpathWorkload workload = MakeHotpathWorkload(2000);
  return workload;
}

void RunHotpathPass(const HotpathWorkload& w, SinkChain& chain) {
  for (const net::PacketBatch& tick : w.column_ticks) chain.head->OnColumns(tick);
}

// state.range(0) = number of terminal sinks in the chain (1, 2 or 4).
void BM_HotPathDelivery(benchmark::State& state) {
  const int sinks = static_cast<int>(state.range(0));
  const auto& workload = SharedHotpathWorkload();
  SinkChain chain(sinks);
  for (auto _ : state) {
    RunHotpathPass(workload, chain);
    benchmark::DoNotOptimize(chain.counting.packets());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(workload.records.size()) *
                          state.iterations());
  state.SetLabel(ChainName(sinks));
}
BENCHMARK(BM_HotPathDelivery)->Arg(1)->Arg(2)->Arg(4);

double TimeHotpathWindow(const HotpathWorkload& w, SinkChain& chain) {
  std::size_t passes = 0;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::duration<double> elapsed{};
  do {
    RunHotpathPass(w, chain);
    ++passes;
    elapsed = std::chrono::steady_clock::now() - start;
  } while (elapsed.count() < 0.15);
  return static_cast<double>(w.records.size() * passes) / elapsed.count();
}

// Best of 7 timing windows after one warm-up pass, in packets/sec.
double MeasureHotpath(const HotpathWorkload& w, int sinks) {
  SinkChain chain(sinks);
  RunHotpathPass(w, chain);
  double best = 0.0;
  for (int rep = 0; rep < 7; ++rep) best = std::max(best, TimeHotpathWindow(w, chain));
  return best;
}

// ---- Observability overhead ------------------------------------------

// A unit of work comparable to one sink dispatch, with and without the
// profiling scope, kept out-of-line so both compile to the same core loop.
__attribute__((noinline)) std::uint64_t ProbeWithScope(std::uint64_t x) {
  GT_PROF_SCOPE("obs.idle_probe");
  return x * 2654435761ULL + 1;
}

__attribute__((noinline)) std::uint64_t ProbeWithoutScope(std::uint64_t x) {
  return x * 2654435761ULL + 1;
}

// Best-of-5 per-call nanoseconds of `probe` over 0.05 s timing windows.
double MeasureProbeNs(std::uint64_t (*probe)(std::uint64_t)) {
  double best = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t x = 1;
    std::size_t calls = 0;
    const auto start = std::chrono::steady_clock::now();
    std::chrono::duration<double> elapsed{};
    do {
      for (int i = 0; i < 4096; ++i) x = probe(x);
      calls += 4096;
      elapsed = std::chrono::steady_clock::now() - start;
    } while (elapsed.count() < 0.05);
    benchmark::DoNotOptimize(x);
    best = std::min(best, elapsed.count() * 1e9 / static_cast<double>(calls));
  }
  return best;
}

// GT_PROF_SCOPE cost per call while profiling is disabled - the price every
// build pays on the hot path whether or not anyone is watching.
void BM_ProfScopeIdle(benchmark::State& state) {
  obs::EnableProfiling(false);
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = ProbeWithScope(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScopeIdle);

struct ObsOverhead {
  double idle_scope_ns = 0.0;    // per GT_PROF_SCOPE, profiling disabled
  double active_scope_ns = 0.0;  // per GT_PROF_SCOPE, profiling enabled
  double scopes_per_record = 0.0;
  double idle_overhead_fraction = 0.0;    // share of hot-path time, idle
  double active_overhead_fraction = 0.0;  // measured end-to-end slowdown
};

// Quantifies the GT_PROF_SCOPE tax on the four-sink hot-path chain. Idle
// overhead is per-scope cost times scope density against the measured
// per-record budget (the scopes are compiled in, so they cannot be switched
// off for a differential run); active overhead is a direct A/B of the
// four-sink chain with profiling on vs off.
ObsOverhead MeasureObsOverhead(const HotpathWorkload& w, double idle_pps) {
  ObsOverhead o;
  obs::EnableProfiling(false);
  const double without_ns = MeasureProbeNs(&ProbeWithoutScope);
  o.idle_scope_ns = std::max(0.0, MeasureProbeNs(&ProbeWithScope) - without_ns);
  obs::EnableProfiling(true);
  o.active_scope_ns = std::max(0.0, MeasureProbeNs(&ProbeWithScope) - without_ns);
  const double active_pps = MeasureHotpath(w, 4);
  obs::EnableProfiling(false);
  obs::ResetProfiling();

  // tee -> {counting, load_agg, summary, sessions} is 5 scoped OnColumns
  // calls per 35-record tick.
  o.scopes_per_record = 5.0 / 35.0;
  if (idle_pps > 0.0) {
    const double record_ns = 1e9 / idle_pps;
    o.idle_overhead_fraction = o.idle_scope_ns * o.scopes_per_record / record_ns;
    o.active_overhead_fraction = std::max(0.0, 1.0 - active_pps / idle_pps);
  }
  return o;
}

// ---- Flight-recorder sampling overhead --------------------------------

struct FlightOverhead {
  double sample_ns = 0.0;           // one registry snapshot + ring push
  double records_per_minute = 0.0;  // paper-scale traffic per sample period
  double overhead_fraction = 0.0;   // sampling share of the per-minute budget
};

// The flight recorder charges the sim one registry copy per sampling period
// (default one sim-minute). Price that copy against the hot-path cost of the
// traffic a sample period spans at the paper's mean load (Table III: ~270
// pps), using the measured four-sink chain throughput as the per-record
// budget. The budget for the whole observability layer is < 2% idle.
FlightOverhead MeasureFlightOverhead(double chain_pps) {
  // A registry shaped like a real run's snapshot: the server session and
  // traffic counters plus the NAT and simulator gauges.
  obs::MetricsRegistry metrics;
  const char* counters[] = {"server.packets_emitted",  "server.bytes_emitted",
                            "server.bytes_to_clients", "server.connections.attempted",
                            "server.connections.established", "server.connections.refused",
                            "server.disconnects.orderly", "server.disconnects.outage",
                            "server.maps_started", "server.rounds_started",
                            "nat.device.packets", "nat.device.drops"};
  std::uint64_t value = 1;
  for (const char* name : counters) metrics.counter(name).Add(value += 977);
  metrics.gauge("server.active_players").Set(21.0);
  metrics.gauge("server.peak_players", obs::Gauge::MergeMode::kMax).Set(22.0);
  metrics.gauge("sim.queue.high_water", obs::Gauge::MergeMode::kMax).Set(512.0);

  obs::FlightRecorder recorder;
  FlightOverhead o;
  o.sample_ns = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t samples = 0;
    double t = 0.0;
    const auto start = std::chrono::steady_clock::now();
    std::chrono::duration<double> elapsed{};
    do {
      for (int i = 0; i < 64; ++i) {
        obs::MetricsRegistry view = metrics;  // what InstallFlightSampling does
        recorder.Sample(t += 60.0, std::move(view));
      }
      samples += 64;
      elapsed = std::chrono::steady_clock::now() - start;
    } while (elapsed.count() < 0.05);
    o.sample_ns = std::min(o.sample_ns, elapsed.count() * 1e9 / static_cast<double>(samples));
  }

  o.records_per_minute = 270.0 * 60.0;  // Table III mean load over one period
  if (chain_pps > 0.0) {
    const double record_ns = 1e9 / chain_pps;
    o.overhead_fraction = o.sample_ns / (o.records_per_minute * record_ns);
  }
  return o;
}

// ---- Streaming telemetry overhead -------------------------------------

struct TelemetryOverhead {
  double sketch_add_ns = 0.0;  // one QuantileSketch observation
  double ring_add_ns = 0.0;    // one per-tick bulk TieredRing::Add (folds +
                               // online-Hurst cascade amortized in)
  double hurst_push_ns = 0.0;  // one standalone OnlineHurst sample
  double sim_record_ns = 0.0;  // end-to-end generation cost per packet
  double overhead_fraction = 0.0;    // telemetry share of the emission budget
  std::size_t memory_bytes_1x = 0;   // sketch+ring footprint, 1-hour sim
  std::size_t memory_bytes_10x = 0;  // ... 10-hour sim (flat-memory contract)
};

// Prices the active telemetry instruments the server actually wires up: one
// bulk TieredRing::Add per tick carrying the tick's packet count (the
// multi-billion-packet hot path counts packets per tick and folds them in
// one ring walk, with tier folds and the online-Hurst cascade riding
// base-tier evictions) plus one QuantileSketch::Add per client per minute.
// Unlike the
// GT_PROF_SCOPE and flight-sampling taxes - which ride the analysis sinks -
// these instruments live in the server's emission path, so the per-record
// fraction is charged against the measured end-to-end generation cost of
// one packet (an un-instrumented RunServerTrace, the workload these adds
// actually ride). The two memory probes prove the bounded-memory contract:
// a 10x longer sim must not grow the footprint (rings are capacity-pinned,
// sketch stores collapse).
TelemetryOverhead MeasureTelemetryOverhead() {
  TelemetryOverhead o;
  constexpr int kClients = 22;    // Table III mean player count
  constexpr double kTick = 0.05;  // server tick = ring base interval

  // The emission budget and amortization divisor come from the same
  // measured run: a real (un-instrumented - no ambient obs binding here)
  // paper-shaped server trace gives both the wall-clock cost per generated
  // packet and the packets the server actually emits per tick (both
  // directions plus handshakes - more than the paper's per-direction
  // Table III mean, and the honest divisor for a once-per-tick bulk add).
  double packets_per_tick = 0.0;
  double packets_per_second = 0.0;
  {
    const auto cfg = game::GameConfig::ScaledDefaults(30.0);
    // A 30 s paper-shaped trace generates in single-digit milliseconds, so
    // one cold run is mostly page faults and cache warmup; take the best
    // of several (first run warms, later runs measure).
    for (int rep = 0; rep < 4; ++rep) {
      trace::CountingSink sink;
      const auto start = std::chrono::steady_clock::now();
      const auto result = core::RunServerTrace(cfg, sink);
      const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
      if (result.stats.packets_emitted == 0) continue;
      const double record_ns =
          wall.count() * 1e9 / static_cast<double>(result.stats.packets_emitted);
      if (o.sim_record_ns == 0.0 || record_ns < o.sim_record_ns) o.sim_record_ns = record_ns;
      packets_per_second =
          static_cast<double>(result.stats.packets_emitted) / cfg.trace_duration;
      packets_per_tick = packets_per_second * cfg.tick_interval;
    }
  }

  const auto best_of = [](auto&& body) {
    double best = 1e18;
    for (int rep = 0; rep < 5; ++rep) {
      std::size_t ops = 0;
      const auto start = std::chrono::steady_clock::now();
      std::chrono::duration<double> elapsed{};
      do {
        ops += body();
        elapsed = std::chrono::steady_clock::now() - start;
      } while (elapsed.count() < 0.05);
      best = std::min(best, elapsed.count() * 1e9 / static_cast<double>(ops));
    }
    return best;
  };

  {
    stats::QuantileSketch sketch;
    sim::Rng rng(7);
    o.sketch_add_ns = best_of([&] {
      for (int i = 0; i < 1024; ++i) {
        sketch.Add(4.0 + 60.0 * rng.NextDouble());  // kbps-shaped values
      }
      benchmark::DoNotOptimize(sketch.count());
      return std::size_t{1024};
    });
  }
  {
    // The wired pattern: the server folds each tick's packet count into
    // the ring as one bulk Add at the tick timestamp, so each call here
    // advances one full base bin (eviction cascade + Hurst included).
    auto options = stats::TieredRing::Options::PaperSchedule(kTick);
    options.track_hurst = true;
    stats::TieredRing ring(options);
    const double per_tick = packets_per_tick > 0.0 ? packets_per_tick : 1.0;
    double t = 0.0;
    o.ring_add_ns = best_of([&] {
      for (int i = 0; i < 1024; ++i) ring.Add(t += kTick, per_tick);
      benchmark::DoNotOptimize(ring.dropped_late());
      return std::size_t{1024};
    });
  }
  {
    stats::OnlineHurst hurst(stats::OnlineHurst::Options::LogSpaced(0.05));
    sim::Rng rng(8);
    o.hurst_push_ns = best_of([&] {
      for (int i = 0; i < 1024; ++i) hurst.Push(rng.NextDouble());
      benchmark::DoNotOptimize(hurst.samples());
      return std::size_t{1024};
    });
  }

  // Live wiring: one bulk ring add per tick amortized over the tick's
  // measured packet count, one counter increment per packet (noise next to
  // the record cost), kClients sketch points per simulated minute.
  if (o.sim_record_ns > 0.0 && packets_per_tick > 0.0) {
    const double per_record_ns =
        o.ring_add_ns / packets_per_tick +
        o.sketch_add_ns * kClients / (packets_per_second * 60.0);
    o.overhead_fraction = per_record_ns / o.sim_record_ns;
  }

  // Flat-memory probe: identical instruments fed 1 vs 10 simulated hours
  // of the same workload shape; MemoryBytes is capacity-accounted, so any
  // growth is a real contract break, not allocator noise.
  const auto footprint = [&](double sim_hours) {
    auto options = stats::TieredRing::Options::PaperSchedule(kTick);
    options.track_hurst = true;
    stats::TieredRing ring(options);
    stats::QuantileSketch sketch;
    sim::Rng rng(9);
    const auto minutes = static_cast<std::size_t>(sim_hours * 60.0);
    const auto ticks_per_minute = static_cast<int>(60.0 / kTick);
    const double per_tick = packets_per_tick > 0.0 ? packets_per_tick : 1.0;
    double t = 0.0;
    for (std::size_t minute = 0; minute < minutes; ++minute) {
      for (int i = 0; i < ticks_per_minute; ++i) {
        ring.Add(t += kTick, per_tick);
      }
      for (int c = 0; c < kClients; ++c) sketch.Add(4.0 + 60.0 * rng.NextDouble());
    }
    return ring.MemoryBytes() + sketch.MemoryBytes();
  };
  o.memory_bytes_1x = footprint(1.0);
  o.memory_bytes_10x = footprint(10.0);
  return o;
}

// Packets/sec of columnar tick delivery per sink chain, written to
// BENCH_hotpath.json together with the observability, flight-sampling and
// telemetry overheads priced against the four-sink chain.
void WriteHotpathJson(const std::string& path) {
  const auto& workload = SharedHotpathWorkload();
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"hotpath_delivery\",\n"
      << "  \"delivery\": \"columns\",\n"
      << "  \"ticks\": " << workload.column_ticks.size() << ",\n"
      << "  \"records\": " << workload.records.size() << ",\n"
      << "  \"runs\": [\n";
  double four_sink_pps = 0.0;  // the overhead budgets' reference
  for (const int sinks : kChainSinks) {
    const double pps = MeasureHotpath(workload, sinks);
    if (sinks == 4) four_sink_pps = pps;
    out << "    {\"sinks\": " << sinks << ", \"chain\": \"" << ChainName(sinks)
        << "\", \"packets_per_second\": " << pps << "}" << (sinks == 4 ? "\n" : ",\n");
    std::cerr << "hotpath " << ChainName(sinks) << ": " << pps << " pkt/s\n";
  }
  const ObsOverhead obs = MeasureObsOverhead(workload, four_sink_pps);
  const FlightOverhead flight = MeasureFlightOverhead(four_sink_pps);
  const TelemetryOverhead telemetry = MeasureTelemetryOverhead();
  out << "  ],\n"
      << "  \"obs\": {\"idle_scope_ns\": " << obs.idle_scope_ns
      << ", \"active_scope_ns\": " << obs.active_scope_ns
      << ", \"scopes_per_record\": " << obs.scopes_per_record
      << ", \"idle_overhead_fraction\": " << obs.idle_overhead_fraction
      << ", \"active_overhead_fraction\": " << obs.active_overhead_fraction << "},\n"
      << "  \"flight\": {\"sample_ns\": " << flight.sample_ns
      << ", \"sample_period_seconds\": 60"
      << ", \"records_per_minute\": " << flight.records_per_minute
      << ", \"overhead_fraction\": " << flight.overhead_fraction << "},\n"
      << "  \"telemetry\": {\"sketch_add_ns\": " << telemetry.sketch_add_ns
      << ", \"ring_add_ns\": " << telemetry.ring_add_ns
      << ", \"hurst_push_ns\": " << telemetry.hurst_push_ns
      << ", \"sim_record_ns\": " << telemetry.sim_record_ns
      << ", \"overhead_fraction\": " << telemetry.overhead_fraction
      << ", \"memory_bytes_1x\": " << telemetry.memory_bytes_1x
      << ", \"memory_bytes_10x\": " << telemetry.memory_bytes_10x << "}\n}\n";
  std::cerr << "obs overhead: idle scope " << obs.idle_scope_ns << " ns, active scope "
            << obs.active_scope_ns << " ns, idle fraction " << obs.idle_overhead_fraction
            << ", active fraction " << obs.active_overhead_fraction << "\n";
  std::cerr << "flight sampling: " << flight.sample_ns << " ns/snapshot, fraction "
            << flight.overhead_fraction << " of a paper-scale minute\n";
  std::cerr << "telemetry: sketch add " << telemetry.sketch_add_ns << " ns, ring add "
            << telemetry.ring_add_ns << " ns, hurst push " << telemetry.hurst_push_ns
            << " ns, fraction " << telemetry.overhead_fraction << ", memory "
            << telemetry.memory_bytes_1x << " B @1h vs " << telemetry.memory_bytes_10x
            << " B @10h\n";
  if (obs.idle_overhead_fraction >= 0.02) {
    std::cerr << "WARNING: idle observability overhead above the 2% budget\n";
  }
  if (flight.overhead_fraction >= 0.02) {
    std::cerr << "WARNING: flight sampling overhead above the 2% budget\n";
  }
  if (telemetry.overhead_fraction >= 0.02) {
    std::cerr << "WARNING: active telemetry overhead above the 2% budget\n";
  }
  if (telemetry.memory_bytes_10x > telemetry.memory_bytes_1x) {
    std::cerr << "WARNING: telemetry footprint grew with sim length\n";
  }
  if (out) {
    std::cerr << "wrote " << path << "\n";
  } else {
    std::cerr << "error: could not write " << path << "\n";
  }
}

// Sharded fleet engine: end-to-end packets/sec at 1/2/4/8 workers. The
// merged report is bit-identical across the sweep; only wall clock moves.
void BM_FleetEngine(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  std::uint64_t packets = 0;
  for (auto _ : state) {
    auto config = core::FleetConfig::Scaled(8, 30.0);
    config.threads = workers;
    const auto result = core::RunFleet(config);
    packets += result.total_packets;
    benchmark::DoNotOptimize(result.report.summary.total_packets());
  }
  state.counters["packets/s"] =
      benchmark::Counter(static_cast<double>(packets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Variance-time computation over a day of 10 ms bins.
void BM_VarianceTime(benchmark::State& state) {
  sim::Rng rng(1);
  stats::TimeSeries series(0.0, 0.01);
  const auto bins = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < bins; ++i) {
    series.Add(static_cast<double>(i) * 0.01, (i % 5 == 0) ? 18.0 : rng.NextDouble());
  }
  for (auto _ : state) {
    auto plot = stats::ComputeVarianceTime(series);
    benchmark::DoNotOptimize(plot.points.size());
  }
}
BENCHMARK(BM_VarianceTime)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// LPM trie lookups against a 100k-route FIB.
void BM_TrieLookup(benchmark::State& state) {
  router::RoutingTable fib;
  sim::Rng rng(2);
  for (int i = 0; i < 100000; ++i) {
    fib.Insert(net::Ipv4Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                               8 + static_cast<int>(rng.NextBelow(17))),
               static_cast<std::uint32_t>(i));
  }
  sim::Rng probe_rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fib.Lookup(net::Ipv4Address(static_cast<std::uint32_t>(probe_rng()))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLookup);

// Route-cache access under game traffic, per policy.
void BM_RouteCacheAccess(benchmark::State& state) {
  const auto policy = static_cast<router::CachePolicy>(state.range(0));
  router::RouteCache cache(64, policy);
  sim::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Access(static_cast<std::uint32_t>(rng.NextBelow(22)), 130));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(router::PolicyName(policy)));
}
BENCHMARK(BM_RouteCacheAccess)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// NAT-device simulation throughput.
void BM_NatExperiment(benchmark::State& state) {
  for (auto _ : state) {
    auto cfg = core::NatExperimentConfig::Defaults();
    cfg.duration = 60.0;
    cfg.game.trace_duration = 60.0;
    cfg.game.maps.map_duration = 120.0;
    const auto result = core::RunNatExperiment(cfg);
    benchmark::DoNotOptimize(result.device.packets(router::Segment::kNatToServer));
  }
}
BENCHMARK(BM_NatExperiment)->Unit(benchmark::kMillisecond);

int EnvInt(const char* name, int fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): bench main thread, pre-measurement
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

// Fleet-scaling sweep written to BENCH_fleet.json: wall-clock packets/sec
// for the same fleet at 1/2/4/8 worker threads. The sweep also
// byte-compares the merged metrics snapshot across worker counts, so the
// determinism contract is re-proven at bench scale on every run.
// Machine-readable so CI can enforce the scaling floor
// (tools/bench_compare.py).
//
// Scale knobs:
//   GAMETRACE_FLEET_SERVERS=<n>   fleet size (default 96; 1024 under
//                                 GAMETRACE_FULL - with the 540 s default
//                                 window that is a ~500M-packet paper-week
//                                 workload)
//   GAMETRACE_FLEET_DURATION=<s>  per-server simulated seconds (default
//                                 60; 540 under GAMETRACE_FULL)
//   GAMETRACE_FLEET_REPS=<n>      repetitions per worker count, best (lowest)
//                                 wall time kept (default 1). CI sets this >1
//                                 on the fresh sweep so one noisy-neighbor
//                                 stall on a shared runner cannot fail the
//                                 scaling floor on its own.
void WriteFleetScalingJson(const std::string& path) {
  const auto scale = core::ExperimentScale::FromEnv(60.0);
  const int servers = EnvInt("GAMETRACE_FLEET_SERVERS", scale.full ? 1024 : 96);
  const double duration =
      EnvInt("GAMETRACE_FLEET_DURATION", static_cast<int>(scale.full ? 540.0 : scale.duration));
  const int reps = std::max(1, EnvInt("GAMETRACE_FLEET_REPS", 1));
  constexpr std::uint64_t kSeed = 42;
  const int available_cores = static_cast<int>(std::thread::hardware_concurrency());
  const int worker_counts[] = {1, 2, 4, 8};

  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"fleet_shard_scaling\",\n"
      << "  \"shards\": " << servers << ",\n"
      << "  \"duration_seconds\": " << duration << ",\n"
      << "  \"base_seed\": " << kSeed << ",\n"
      << "  \"available_cores\": " << available_cores << ",\n"
      << "  \"reps_per_point\": " << reps << ",\n"
      << "  \"runs\": [\n";
  bool first = true;
  double single_worker_pps = 0.0;
  double last_speedup = 0.0;
  std::string baseline_metrics;
  bool deterministic = true;
  std::uint64_t total_packets = 0;
  for (const int workers : worker_counts) {
    // Best-of-reps: every repetition runs the identical deterministic
    // fleet, so the minimum wall time is the least-contended measurement
    // of the same work and each rep's merged metrics still feed the
    // cross-worker byte-compare.
    double best_wall = 0.0;
    std::uint64_t run_packets = 0;
    double sched_units = 0.0;
    double sched_unit_size = 0.0;
    double sched_peak_live = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      auto config = core::FleetConfig::Scaled(servers, duration);
      config.threads = workers;
      config.base_seed = kSeed;
      const auto start = std::chrono::steady_clock::now();
      const auto result = core::RunFleet(config);
      const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

      const std::string metrics_json = result.metrics.ToJson();
      if (baseline_metrics.empty()) {
        baseline_metrics = metrics_json;
      } else if (metrics_json != baseline_metrics) {
        deterministic = false;
      }

      if (rep == 0 || wall.count() < best_wall) best_wall = wall.count();
      run_packets = result.total_packets;
      sched_units = result.scheduler_metrics.gauge_value("fleet.scheduler.units");
      sched_unit_size = result.scheduler_metrics.gauge_value("fleet.scheduler.unit_size");
      sched_peak_live =
          result.scheduler_metrics.gauge_value("fleet.scheduler.peak_live_units");
    }
    const double pps =
        best_wall > 0.0 ? static_cast<double>(run_packets) / best_wall : 0.0;
    if (workers == 1) single_worker_pps = pps;
    const double speedup = single_worker_pps > 0.0 ? pps / single_worker_pps : 0.0;
    last_speedup = speedup;
    total_packets = run_packets;

    if (!first) out << ",\n";
    first = false;
    out << "    {\"workers\": " << workers << ", \"wall_seconds\": " << best_wall
        << ", \"packets\": " << run_packets << ", \"packets_per_second\": " << pps
        << ", \"speedup\": " << speedup << ", \"units\": " << sched_units
        << ", \"unit_size\": " << sched_unit_size << ", \"peak_live_units\": " << sched_peak_live
        << "}";
    std::cerr << "fleet scaling: " << workers << " worker(s) -> " << pps << " packets/s ("
              << speedup << "x, best of " << reps << ")\n";
  }

  // Price the scheduler timeline (FleetConfig::sched_trace) at the largest
  // worker count the machine can run without oversubscription: untraced
  // and traced fleets run interleaved, best-of-reps each, so drift on a
  // shared machine hits both sides alike. The overhead is written signed -
  // a traced run that beats the untraced one measured noise, not a free
  // timeline, and bench_compare.py fails it as unmeasured. The traced
  // run's artifacts - the Perfetto-openable worker timeline and the
  // critical-path report - are written next to the bench JSON, and both
  // sides' merged metrics join the cross-worker byte-compare so tracing is
  // re-proven inert on every run.
  int traced_workers = worker_counts[0];
  for (const int workers : worker_counts) {
    if (workers <= std::max(1, available_cores)) traced_workers = workers;
  }
  double traced_wall_off = 0.0;
  double traced_wall = 0.0;
  std::uint64_t timeline_events = 0;
  std::uint64_t timeline_dropped = 0;
  double max_component_error = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const bool traced : {false, true}) {
      auto config = core::FleetConfig::Scaled(servers, duration);
      config.threads = traced_workers;
      config.base_seed = kSeed;
      config.sched_trace = traced;
      const auto start = std::chrono::steady_clock::now();
      const auto result = core::RunFleet(config);
      const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
      double& best = traced ? traced_wall : traced_wall_off;
      if (rep == 0 || wall.count() < best) best = wall.count();
      if (result.metrics.ToJson() != baseline_metrics) deterministic = false;
      if (!traced) continue;
      timeline_events = result.sched_trace.size();
      timeline_dropped = result.sched_trace.dropped();
      for (const obs::SchedReport::Worker& w : result.sched_report.per_worker) {
        const double span = static_cast<double>(w.span_ns);
        const double sum =
            static_cast<double>(w.work_ns + w.stall_ns + w.merge_ns + w.idle_ns);
        if (span > 0.0) {
          max_component_error = std::max(max_component_error, std::abs(sum - span) / span);
        }
      }
      if (rep == 0) {
        std::ofstream timeline("FLEET_timeline.json");
        result.sched_trace.WriteJson(timeline);
        std::ofstream report("FLEET_sched_report.json");
        result.sched_report.WriteJson(report);
        std::cerr << (timeline && report
                          ? "wrote FLEET_timeline.json, FLEET_sched_report.json\n"
                          : "error: could not write fleet timeline artifacts\n");
      }
    }
  }
  const double overhead =
      traced_wall_off > 0.0 ? (traced_wall - traced_wall_off) / traced_wall_off : 0.0;
  std::cerr << "fleet sched-trace: " << traced_workers << " worker(s), off " << traced_wall_off
            << " s vs on " << traced_wall << " s (interleaved, best of " << reps
            << ") -> overhead " << overhead * 100.0 << "%\n";

  out << "\n  ],\n"
      << "  \"sched_trace\": {\"workers\": " << traced_workers
      << ", \"wall_seconds_off\": " << traced_wall_off
      << ", \"wall_seconds_on\": " << traced_wall
      << ", \"overhead_fraction\": " << overhead
      << ", \"timeline_events\": " << timeline_events
      << ", \"timeline_dropped\": " << timeline_dropped
      << ", \"max_component_error\": " << max_component_error
      << ", \"components_sum_ok\": " << (max_component_error <= 0.01 ? "true" : "false")
      << "},\n"
      << "  \"packets_per_run\": " << total_packets << ",\n"
      << "  \"max_workers\": 8,\n"
      << "  \"speedup_at_max_workers\": " << last_speedup << ",\n"
      << "  \"deterministic_across_workers\": " << (deterministic ? "true" : "false") << "\n}\n";
  if (!deterministic) {
    std::cerr << "ERROR: merged metrics differ across worker counts\n";
  }
  if (out) {
    std::cerr << "wrote " << path << "\n";
  } else {
    std::cerr << "error: could not write " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The JSON writers run real workloads; CI stages that only need one of
  // the two reports can skip the other.
  if (EnvInt("GAMETRACE_SKIP_FLEET", 0) == 0) WriteFleetScalingJson("BENCH_fleet.json");
  if (EnvInt("GAMETRACE_SKIP_HOTPATH", 0) == 0) WriteHotpathJson("BENCH_hotpath.json");
  return 0;
}
