// Shared experiment harness for the bench binaries.
//
// Every bench runs a scaled workload by default (seconds of wall clock) and
// honours two environment variables:
//   GAMETRACE_FULL=1        - run the paper's full 626,477 s week
//   GAMETRACE_DURATION=<s>  - run an explicit simulated duration
// Scaling shortens the simulated window only; per-second and per-packet
// statistics are unaffected (see DESIGN.md section 4).
#pragma once

#include <span>

#include "game/cs_server.h"
#include "game/config.h"
#include "game/qoe.h"
#include "router/nat_device.h"
#include "stats/time_series.h"
#include "trace/capture.h"

namespace gametrace::core {

struct ExperimentScale {
  double duration = 0.0;  // simulated seconds
  bool full = false;

  // Resolves the effective duration for a bench whose default simulated
  // window is `default_duration`.
  [[nodiscard]] static ExperimentScale FromEnv(double default_duration);
};

struct ServerTraceResult {
  game::CsServer::Stats stats;
  stats::TimeSeries players{0.0, 60.0};
};

// The one run harness: every simulated run goes through it. Schedules the
// heartbeat and the flight sampling, starts `server` (a no-op if already
// started) and runs `simulator` to server.config().trace_duration under one
// "run" span named `span_name`. Then the counts of the server and of the
// NAT `devices` (summed), and the simulator's own accounting, go into the
// ambient registry, whose rings advance one server tick past the end.
void RunHarnessed(sim::Simulator& simulator, game::CsServer& server,
                  std::span<router::NatDevice* const> devices, const char* span_name);

// Runs a full CsServer capture of config.trace_duration seconds, streaming
// every packet into `sink`.
ServerTraceResult RunServerTrace(const game::GameConfig& config, trace::CaptureSink& sink);

// Same, fanning the stream out to each sink in order through a TeeSink.
ServerTraceResult RunServerTrace(const game::GameConfig& config,
                                 std::span<trace::CaptureSink* const> sinks);

// ---------------------------------------------------------------------------
// The NAT experiment (paper section IV-A, Table IV, Figures 14-15): a busy
// single-map server behind a COTS NAT device, with the game-freeze feedback
// loop (inbound loss bursts briefly freeze the server's broadcast).
// ---------------------------------------------------------------------------

struct NatExperimentConfig {
  game::GameConfig game;  // the run lasts game.trace_duration
  router::NatDevice::Config device;

  // Feedback: if `freeze_threshold` inbound packets are lost within
  // `freeze_window` seconds, the server freezes for `freeze_duration`.
  double freeze_window = 0.50;
  int freeze_threshold = 150;
  double freeze_duration = 0.50;

  // The paper's self-tuning loss claim (section IV-A): when enabled,
  // players observe their own loss and quit above tolerance, pulling the
  // offered load down until loss sits at the tolerable 1-2%.
  bool enable_qoe = false;
  game::QoeMonitor::Config qoe;

  [[nodiscard]] static NatExperimentConfig Defaults();
};

struct NatExperimentResult {
  router::DeviceStats device;
  game::CsServer::Stats server;
  int livelock_episodes = 0;
  std::size_t nat_table_size = 0;
  int server_freezes = 0;
  std::uint64_t qoe_quits = 0;
  // Player count sampled per minute (shows QoE load shedding).
  stats::TimeSeries players{0.0, 60.0};
};

// Runs the experiment. A non-null `delivered` sees every packet the device
// forwards, in both directions, in delivery order: the stream a capture on
// the far side of the device would record. It is a passive sink
// (NatDevice::SetDeliveredSink): it gets the deliveries in batches as the
// device commits, each of the run's by the time this returns.
[[nodiscard]] NatExperimentResult RunNatExperiment(const NatExperimentConfig& config,
                                                   trace::CaptureSink* delivered = nullptr);

}  // namespace gametrace::core
