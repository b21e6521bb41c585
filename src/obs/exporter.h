// ExportSession: one object owning a front-end's whole observability
// surface - metrics registry, trace log, flight recorder, watchdog, the
// black-box dump guard and the ambient binding - plus the flag/env parsing
// every binary shares.
//
//   obs::ExportOptions options;
//   for (each arg) if (options.TryParseFlag(arg)) continue;  // consumed
//   options.ApplyEnvDefaults();
//   obs::ExportSession session(std::move(options));
//   ... run the workload ...
//   return session.Finish();  // writes every requested file
//
// Flags / environment variables (flag wins):
//   --metrics-out=<json>    GAMETRACE_METRICS_OUT   metrics + cost ledger
//   --trace-out=<json>      GAMETRACE_TRACE_OUT     Chrome trace_event
//   --flight-out=<jsonl>    GAMETRACE_FLIGHT_OUT    snapshot stream
//   --alerts-out=<jsonl>    GAMETRACE_ALERTS_OUT    watchdog alerts
//   --prom-out=<txt>        GAMETRACE_PROM_OUT      Prometheus text
//   --flight-sample=<s>     GAMETRACE_FLIGHT_SAMPLE sampling period
//   --flight-dump=<json>    GAMETRACE_FLIGHT_DUMP   black-box path
//   --sched-metrics-out=<json>
//                           GAMETRACE_SCHED_METRICS_OUT
//                           fleet scheduler metrics (diagnostic channel)
//   --sched-report-out=<json>
//                           GAMETRACE_SCHED_REPORT_OUT
//                           fleet critical-path report
//   --sched-trace-out=<json>
//                           GAMETRACE_SCHED_TRACE_OUT
//                           fleet worker timeline (Chrome trace_event)
//
// A session with no output requested binds nothing and costs nothing -
// benches without flags run exactly as before. An active session always
// arms the flight recorder and the black-box guard, so any GT_CHECK
// violation mid-run leaves flight_dump.json even if only --metrics-out
// was asked for. It also zeroes and enables the cost ledger
// (obs/ledger.h) and holds its `run` root until Finish(); one active
// session at a time.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "obs/flight_recorder.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/sched_report.h"
#include "obs/trace_log.h"
#include "obs/watchdog.h"

namespace gametrace::obs {

struct ExportOptions {
  std::string metrics_path;
  std::string trace_path;
  std::string flight_path;
  std::string alerts_path;
  std::string prom_path;
  // Scheduler diagnostic channel (FleetResult::scheduler_metrics /
  // sched_report / sched_trace, handed over via RecordScheduler). Written
  // as separate files: the channel is worker-count-dependent, so it never
  // mixes into the byte-identical --metrics-out / --trace-out surfaces.
  std::string sched_metrics_path;
  std::string sched_report_path;
  std::string sched_trace_path;
  // Where a GT_CHECK violation or DumpFlightNow writes the black box while
  // the session is active.
  std::string dump_path = "flight_dump.json";
  double sample_period_seconds = 60.0;

  // Consumes one "--<name>=<value>" observability flag; returns false (and
  // leaves the options untouched) for anything else, so front-ends can
  // forward unrecognized arguments to their own parsing.
  bool TryParseFlag(std::string_view arg);

  // Fills every field still at its default from the matching environment
  // variable. Call after the flag loop so flags win.
  void ApplyEnvDefaults();

  // True when any output file was requested (the dump path alone does not
  // activate a session - it only matters once one is).
  [[nodiscard]] bool any_output() const noexcept {
    return !metrics_path.empty() || !trace_path.empty() || !flight_path.empty() ||
           !alerts_path.empty() || !prom_path.empty() || !sched_metrics_path.empty() ||
           !sched_report_path.empty() || !sched_trace_path.empty();
  }
};

// Opens `path` for writing, creating missing parent directories. On
// failure prints "[gametrace] error: cannot write <path> (<why>)" to
// stderr and returns false - requested output must never vanish silently.
bool OpenOutputFile(const std::string& path, std::ofstream& out);

class ExportSession {
 public:
  explicit ExportSession(ExportOptions options);

  // Convenience: parse observability flags out of argv (non-destructively;
  // unrecognized arguments are ignored) and apply environment defaults.
  ExportSession(int argc, char** argv);

  ExportSession(const ExportSession&) = delete;
  ExportSession& operator=(const ExportSession&) = delete;

  // Finish() if the front-end did not call it; write errors only reach the
  // exit code through an explicit Finish().
  ~ExportSession();

  // Unbinds, closes the ledger's run scope, evaluates any un-watched
  // snapshots, folds in the ledger and alert counters plus the trace-drop
  // total, and writes every requested file. Idempotent; returns 0 on
  // success, 1 if any file could not be written.
  int Finish();

  // Hands a fleet run's diagnostic channel to the session: the scheduler
  // metrics, critical-path report and worker timeline are written at
  // Finish() to their requested paths, and the scheduler metrics join the
  // Prometheus text as gametrace_fleet_* families with a worker label.
  // Copies are taken, so the FleetResult may be destroyed afterwards; a
  // later call replaces the earlier state (last fleet run wins). No-op on
  // an inactive session.
  void RecordScheduler(const MetricsRegistry& scheduler_metrics, const SchedReport& report,
                       const TraceLog& sched_trace);

  [[nodiscard]] bool active() const noexcept { return binding_.has_value(); }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] TraceLog& trace() noexcept { return trace_; }
  [[nodiscard]] FlightRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] WatchdogEngine& watchdog() noexcept { return watchdog_; }
  [[nodiscard]] bool has_scheduler() const noexcept { return has_scheduler_; }

 private:
  ExportOptions options_;
  bool finished_ = false;
  MetricsRegistry metrics_;
  TraceLog trace_;
  FlightRecorder recorder_;
  WatchdogEngine watchdog_;
  bool has_scheduler_ = false;
  MetricsRegistry sched_metrics_;
  SchedReport sched_report_;
  TraceLog sched_trace_;
  std::optional<ScopedFlightDump> dump_guard_;
  std::optional<ScopedObsBinding> binding_;
  // The ledger's root, open from construction to Finish() on an active
  // session: everything the run does outside a narrower layer lands here.
  std::optional<LayerScope> run_scope_;
};

}  // namespace gametrace::obs
