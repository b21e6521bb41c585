// Ambient observability context.
//
// Front-ends (gtrace_tool, benches) and the fleet runner decide *where*
// metrics and trace events go; deep components (CsServer, NatDevice)
// just ask "what is the current context?" at construction, for the trace
// log and for the sketch and ring instruments they feed. Their counts stay
// in their own fields until the run harness (core/experiment.cc)
// publishes them into the registry.
// The binding is thread-local so that fleet shards - one worker thread per
// shard slot at any moment - each observe their own registry and trace
// log, and the per-shard results reduce deterministically afterwards.
//
//   obs::MetricsRegistry metrics;
//   obs::TraceLog trace(/*pid=*/shard_id);
//   obs::ScopedObsBinding bind({.metrics = &metrics, .trace = &trace,
//                               .shard_id = shard_id, .heartbeat = false});
//   ... core::RunServerTrace(config, sink); publishes into `metrics` ...
//
// A default-constructed context (all null) is always valid: components
// fall back to registering into nothing, which costs a null check at
// construction and nothing per event.
#pragma once

namespace gametrace::obs {

class MetricsRegistry;
class TraceLog;
class FlightRecorder;
class WatchdogEngine;

struct ObsContext {
  MetricsRegistry* metrics = nullptr;
  TraceLog* trace = nullptr;
  // Live telemetry (see obs/flight_recorder.h, obs/watchdog.h): when a
  // recorder is bound, runs sample `metrics` into it on a sim-time period;
  // when a watchdog is also bound, SLO rules are evaluated against each new
  // snapshot as it lands. Fleet shards get their own recorder and no
  // watchdog - alerts are evaluated once, on the merged stream.
  FlightRecorder* recorder = nullptr;
  WatchdogEngine* watchdog = nullptr;
  // Destination for the heartbeat's periodic Prometheus text flush (null =
  // no flush). Borrowed; the binder keeps the string alive.
  const char* prom_path = nullptr;
  int shard_id = 0;
  // Whether long runs started under this context may print wall-clock
  // heartbeats to stderr. The fleet runner turns this off for shards > 0
  // so an 8-way run does not print eight interleaved heartbeats.
  bool heartbeat = true;
};

// The calling thread's current context; all-null outside any binding.
[[nodiscard]] const ObsContext& Current() noexcept;

// Installs `context` as the calling thread's context for the guard's
// lifetime, restoring the previous one on destruction. Nests.
class ScopedObsBinding {
 public:
  explicit ScopedObsBinding(ObsContext context) noexcept;
  ~ScopedObsBinding();

  ScopedObsBinding(const ScopedObsBinding&) = delete;
  ScopedObsBinding& operator=(const ScopedObsBinding&) = delete;

 private:
  ObsContext previous_;
};

}  // namespace gametrace::obs
