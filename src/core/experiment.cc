#include "core/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "obs/trace_log.h"
#include "obs/watchdog.h"
#include "sim/simulator.h"

namespace gametrace::core {

namespace {

// Heartbeat policy: GAMETRACE_HEARTBEAT=<wall seconds> forces an interval
// (0 disables); unset, runs of an hour-plus of simulated time get a pulse
// every 10 wall seconds and short runs stay silent. The ambient obs
// context can veto it (fleet shards > 0 do).
double ResolveHeartbeatInterval(double trace_duration) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at run setup, before workers exist
  if (const char* env = std::getenv("GAMETRACE_HEARTBEAT"); env != nullptr) {
    const double parsed = std::strtod(env, nullptr);
    return parsed > 0.0 ? parsed : 0.0;
  }
  return trace_duration >= 3600.0 ? 10.0 : 0.0;
}

// Refreshes the --prom-out file with `metrics`; called from the
// wall-clock heartbeat so a scrape pipeline sees a live view during long
// runs. Quiet on write failure by design - the final ExportSession write
// reports loudly.
void FlushPrometheus(const char* prom_path, const obs::MetricsRegistry& metrics) {
  std::ofstream out(prom_path);
  if (out) obs::WritePrometheusText(metrics, out);
}

// The components of one run: the server and, in the NAT experiment, the
// device in front of it. Their counts live in their own fields; the
// harness copies them into a registry only when one is read.
struct RunParts {
  game::CsServer* server;
  router::NatDevice* nat;  // null outside the NAT experiment

  // Reads fields only, so the wall-clock heartbeat may call it without
  // moving the device's lazy clock.
  void PublishCounts(obs::MetricsRegistry& metrics) const {
    server->PublishCounts(metrics);
    if (nat != nullptr) nat->PublishCounts(metrics);
  }
};

// Installs the stderr progress printer on `simulator`. The parts are
// borrowed; the heartbeat dies with the simulator at the end of the run.
void InstallHeartbeat(sim::Simulator& simulator, RunParts parts, double duration,
                      double interval) {
  const obs::ObsContext& ctx = obs::Current();
  const char* prom_path = ctx.metrics != nullptr ? ctx.prom_path : nullptr;
  const obs::MetricsRegistry* metrics = ctx.metrics;
  simulator.SetHeartbeat(
      interval,
      [parts, duration, prom_path, metrics](const sim::Simulator::HeartbeatStatus& s) {
        if (prom_path != nullptr) {
          obs::MetricsRegistry view = *metrics;
          parts.PublishCounts(view);
          FlushPrometheus(prom_path, view);
        }
        const double rate = s.sim_seconds_per_second;
        const double remaining = duration - s.sim_now;
        const std::uint64_t packets = parts.server->stats().packets_emitted;
        const double pps = s.sim_now > 0.0 ? static_cast<double>(packets) / s.sim_now : 0.0;
        std::fprintf(stderr,
                     "[gametrace] sim %.0fs/%.0fs (%.1f%%)  players %d  pps %.0f  "
                     "events/s %.2e  queue hw %zu  eta %s\n",
                     s.sim_now, duration, 100.0 * s.sim_now / duration,
                     parts.server->active_players(), pps, s.events_per_second,
                     s.queue_high_water,
                     rate > 0.0
                         ? (std::to_string(static_cast<long>(remaining / rate)) + "s").c_str()
                         : "?");
      });
}

// Schedules the flight-recorder sampling pulse: every sampling period the
// ambient registry (refreshed with the simulator's queue high-water mark)
// is copied, the NAT device's registry is merged into the copy (reading it
// brings the device up to the sampling instant; its packet counters drive
// the meltdown rule), the parts' counts are published into it, and the
// copy is snapshotted into the recorder. The watchdog then catches up on
// the new snapshot.
void InstallFlightSampling(sim::Simulator& simulator, const obs::ObsContext& ctx,
                           RunParts parts) {
  if (ctx.recorder == nullptr || ctx.metrics == nullptr) return;
  const double period = ctx.recorder->options().sample_period_seconds;
  simulator.Every(period, period,
                  [&simulator, metrics = ctx.metrics, recorder = ctx.recorder,
                   watchdog = ctx.watchdog, parts](double t) {
                    metrics->gauge("sim.queue.high_water", obs::Gauge::MergeMode::kMax)
                        .SetMax(static_cast<double>(simulator.queue_high_water()));
                    // Align ring instruments on the sampling grid so shard
                    // snapshots at the same t merge (TieredRing::Merge
                    // requires lockstep advancement). Keep the sample
                    // period a multiple of the server tick for this.
                    metrics->AdvanceRingsTo(t);
                    obs::MetricsRegistry view = *metrics;
                    if (parts.nat != nullptr) view.Merge(parts.nat->stats().metrics());
                    parts.PublishCounts(view);
                    recorder->Sample(t, std::move(view));
                    if (watchdog != nullptr) watchdog->CatchUp(*recorder);
                  });
}

// The run harness of RunServerTrace and RunNatExperiment. Schedules the
// heartbeat and the flight sampling, starts the server and runs the
// simulator to `duration` under one "run" span. Afterwards the device's
// registry, the parts' counts and the simulator's own accounting go into
// the ambient registry.
void RunHarnessed(sim::Simulator& simulator, RunParts parts, const char* span_name,
                  double duration, double tick_interval) {
  const obs::ObsContext& ctx = obs::Current();
  if (ctx.heartbeat) {
    const double interval = ResolveHeartbeatInterval(duration);
    if (interval > 0.0) InstallHeartbeat(simulator, parts, duration, interval);
  }
  InstallFlightSampling(simulator, ctx, parts);
  // A no-op when the caller has started the server already: the NAT
  // experiment starts its parts before the pulses are scheduled.
  parts.server->Start();
  const double t0 = simulator.Now();
  simulator.RunUntil(duration);
  if (ctx.trace != nullptr) ctx.trace->Complete(span_name, "run", t0, simulator.Now());

  if (ctx.metrics == nullptr) return;
  obs::MetricsRegistry& metrics = *ctx.metrics;
  if (parts.nat != nullptr) metrics.Merge(parts.nat->stats().metrics());
  parts.PublishCounts(metrics);
  metrics.counter("sim.events_executed").Add(simulator.events_executed());
  metrics.gauge("sim.queue.high_water", obs::Gauge::MergeMode::kMax)
      .SetMax(static_cast<double>(simulator.queue_high_water()));
  // Canonical end-of-run grid position for every ring: the last tick fires
  // at exactly `duration` and may stamp packets up to one tick later, so
  // advance one tick past the end. Identical across shards, which is what
  // the fleet's registry merge requires.
  metrics.AdvanceRingsTo(duration + tick_interval);
}

}  // namespace

ExperimentScale ExperimentScale::FromEnv(double default_duration) {
  ExperimentScale scale;
  scale.duration = default_duration;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at run setup, before workers exist
  if (const char* env = std::getenv("GAMETRACE_DURATION"); env != nullptr) {
    const double parsed = std::strtod(env, nullptr);
    if (parsed > 0.0) scale.duration = parsed;
    return scale;
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at run setup, before workers exist
  if (const char* env = std::getenv("GAMETRACE_FULL"); env != nullptr) {
    const std::string value(env);
    if (!value.empty() && value != "0") {
      scale.full = true;
      scale.duration = game::GameConfig{}.trace_duration;  // 626,477 s
    }
  }
  return scale;
}

ServerTraceResult RunServerTrace(const game::GameConfig& config, trace::CaptureSink& sink) {
  sim::Simulator simulator;
  game::CsServer server(simulator, config, sink);
  RunHarnessed(simulator, {.server = &server, .nat = nullptr}, "server_trace",
               config.trace_duration, config.tick_interval);

  ServerTraceResult result;
  result.stats = server.stats();
  result.players = server.player_series();
  return result;
}

ServerTraceResult RunServerTrace(const game::GameConfig& config,
                                 std::span<trace::CaptureSink* const> sinks) {
  trace::TeeSink tee;
  for (trace::CaptureSink* sink : sinks) tee.Attach(*sink);
  return RunServerTrace(config, tee);
}

NatExperimentConfig NatExperimentConfig::Defaults() {
  NatExperimentConfig cfg;
  cfg.game = game::GameConfig::PaperDefaults();
  cfg.game.trace_duration = cfg.duration;
  // One uninterrupted 30-min map, packed server (the experiment was run on
  // the same very popular community server).
  cfg.game.maps.map_duration = cfg.duration + 60.0;
  cfg.game.sessions.initial_players = 20;
  cfg.game.outages.times.clear();
  return cfg;
}

NatExperimentResult RunNatExperiment(const NatExperimentConfig& config) {
  config.game.Validate();
  sim::Simulator simulator;
  router::NatDevice nat(simulator, config.device);
  game::CsServer server(simulator, config.game, nat.injector());

  // QoE self-tuning: players watch their own delivery/loss and quit above
  // tolerance (paper section IV-A).
  std::unique_ptr<game::QoeMonitor> qoe;
  if (config.enable_qoe) {
    qoe = std::make_unique<game::QoeMonitor>(
        simulator, config.qoe, sim::Rng(config.game.seed ^ 0x51edu),
        [&server](net::Ipv4Address ip, std::uint16_t port) {
          server.DisconnectByEndpoint(ip, port, /*orderly=*/true);
        });
    nat.SetDeliverCallback([&](const net::PacketRecord& record, router::Segment) {
      qoe->OnDelivered(record);
    });
  }

  // Game-freeze feedback: a burst of lost inbound updates freezes the
  // server's world state, and with it the outbound broadcast.
  int freezes = 0;
  double window_start = -1.0;
  int window_losses = 0;
  nat.SetLossCallback([&](const net::PacketRecord& record, router::Segment segment) {
    if (qoe) qoe->OnLost(record);
    if (segment != router::Segment::kClientsToNat) return;
    const double now = simulator.Now();
    if (window_start < 0.0 || now - window_start > config.freeze_window) {
      window_start = now;
      window_losses = 0;
    }
    if (++window_losses >= config.freeze_threshold) {
      server.InduceStall(config.freeze_duration);
      ++freezes;
      window_start = -1.0;
    }
  });

  nat.Start();
  server.Start();
  if (qoe) qoe->Start();
  RunHarnessed(simulator, {.server = &server, .nat = &nat}, "nat_experiment", config.duration,
               config.game.tick_interval);

  NatExperimentResult result{.device = nat.stats(),
                             .server = server.stats(),
                             .livelock_episodes = nat.livelock_episodes(),
                             .nat_table_size = nat.nat_table_size(),
                             .server_freezes = freezes,
                             .qoe_quits = qoe ? qoe->quits_triggered() : 0,
                             .players = server.player_series()};
  return result;
}

}  // namespace gametrace::core
