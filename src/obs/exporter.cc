#include "obs/exporter.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <system_error>
#include <utility>

#include "obs/ledger.h"
#include "obs/prom.h"

namespace gametrace::obs {

namespace {

// Consumes "--<flag>=<value>" into `value`; empty values are rejected so a
// typo like "--metrics-out=" fails the parse instead of activating an
// output with nowhere to go.
bool ParseStringFlag(std::string_view arg, std::string_view flag, std::string& value) {
  if (!arg.starts_with(flag)) return false;
  const std::string_view rest = arg.substr(flag.size());
  if (rest.empty()) return false;
  value.assign(rest);
  return true;
}

bool ParsePositiveSeconds(std::string_view text, double& value) {
  const std::string copy(text);
  char* end = nullptr;
  const double parsed = std::strtod(copy.c_str(), &end);
  if (end == nullptr || *end != '\0' || !(parsed > 0.0)) return false;
  value = parsed;
  return true;
}

void EnvDefault(const char* name, std::string& value) {
  if (!value.empty()) return;
  // Env reads happen once, during single-threaded front-end startup.
  if (const char* env = std::getenv(name)) value = env;  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace

bool ExportOptions::TryParseFlag(std::string_view arg) {
  if (ParseStringFlag(arg, "--metrics-out=", metrics_path)) return true;
  if (ParseStringFlag(arg, "--trace-out=", trace_path)) return true;
  if (ParseStringFlag(arg, "--flight-out=", flight_path)) return true;
  if (ParseStringFlag(arg, "--alerts-out=", alerts_path)) return true;
  if (ParseStringFlag(arg, "--prom-out=", prom_path)) return true;
  if (ParseStringFlag(arg, "--sched-metrics-out=", sched_metrics_path)) return true;
  if (ParseStringFlag(arg, "--sched-report-out=", sched_report_path)) return true;
  if (ParseStringFlag(arg, "--sched-trace-out=", sched_trace_path)) return true;
  if (ParseStringFlag(arg, "--flight-dump=", dump_path)) return true;
  if (arg.starts_with("--flight-sample=")) {
    return ParsePositiveSeconds(arg.substr(16), sample_period_seconds);
  }
  return false;
}

void ExportOptions::ApplyEnvDefaults() {
  EnvDefault("GAMETRACE_METRICS_OUT", metrics_path);
  EnvDefault("GAMETRACE_TRACE_OUT", trace_path);
  EnvDefault("GAMETRACE_FLIGHT_OUT", flight_path);
  EnvDefault("GAMETRACE_ALERTS_OUT", alerts_path);
  EnvDefault("GAMETRACE_PROM_OUT", prom_path);
  EnvDefault("GAMETRACE_SCHED_METRICS_OUT", sched_metrics_path);
  EnvDefault("GAMETRACE_SCHED_REPORT_OUT", sched_report_path);
  EnvDefault("GAMETRACE_SCHED_TRACE_OUT", sched_trace_path);
  if (dump_path == ExportOptions{}.dump_path) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): startup-only, single-threaded
    if (const char* env = std::getenv("GAMETRACE_FLIGHT_DUMP")) dump_path = env;
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): startup-only, single-threaded
  if (const char* env = std::getenv("GAMETRACE_FLIGHT_SAMPLE")) {
    ParsePositiveSeconds(env, sample_period_seconds);
  }
}

bool OpenOutputFile(const std::string& path, std::ofstream& out) {
  const std::filesystem::path target(path);
  const std::filesystem::path parent = target.parent_path();
  std::error_code ec;
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      std::cerr << "[gametrace] error: cannot write " << path
                << " (creating directory " << parent.string() << ": " << ec.message() << ")\n";
      return false;
    }
  }
  out.open(target);
  if (!out) {
    std::cerr << "[gametrace] error: cannot write " << path << " (open failed)\n";
    return false;
  }
  return true;
}

ExportSession::ExportSession(ExportOptions options) : options_(std::move(options)) {
  if (!options_.any_output()) return;
  recorder_ = FlightRecorder(FlightRecorder::Options{
      .sample_period_seconds = options_.sample_period_seconds,
  });
  watchdog_ = WatchdogEngine(WatchdogEngine::BuiltinRules());
  // The guard enforces one active session at a time, which the ledger's
  // single `run` root relies on, so it goes first.
  dump_guard_.emplace(options_.dump_path);
  ResetLedger();
  EnableLedger(true);
  run_scope_.emplace(Layer::kRun);
  binding_.emplace(ObsContext{
      .metrics = &metrics_,
      .trace = &trace_,
      .recorder = &recorder_,
      .watchdog = &watchdog_,
      .prom_path = options_.prom_path.empty() ? nullptr : options_.prom_path.c_str(),
      .heartbeat = true,
  });
}

namespace {

ExportOptions OptionsFromArgs(int argc, char** argv) {
  ExportOptions options;
  for (int i = 1; i < argc; ++i) options.TryParseFlag(argv[i]);
  options.ApplyEnvDefaults();
  return options;
}

}  // namespace

ExportSession::ExportSession(int argc, char** argv) : ExportSession(OptionsFromArgs(argc, argv)) {}

ExportSession::~ExportSession() { Finish(); }

void ExportSession::RecordScheduler(const MetricsRegistry& scheduler_metrics,
                                    const SchedReport& report, const TraceLog& sched_trace) {
  if (!binding_.has_value()) return;
  has_scheduler_ = true;
  sched_metrics_ = scheduler_metrics;
  sched_report_ = report;
  sched_trace_ = sched_trace;
}

int ExportSession::Finish() {
  if (!binding_.has_value() || finished_) return 0;
  finished_ = true;
  binding_.reset();
  run_scope_.reset();
  EnableLedger(false);

  // Alerts for any snapshots the run sampled but never evaluated (the
  // cursor makes this a no-op when live evaluation kept up), then the
  // export-time folds: ledger and alert counters never enter the
  // deterministic merge, only the written files.
  watchdog_.CatchUp(recorder_);
  DumpLedgerInto(metrics_);
  watchdog_.DumpInto(metrics_);
  watchdog_.DumpInto(trace_);

  // Surface bounded-buffer trace loss. RunFleet already exports the merged
  // total; top up rather than Add so single-run and fleet paths agree.
  const std::uint64_t dropped = trace_.dropped();
  Counter& dropped_counter = metrics_.counter("obs.trace.dropped_events");
  if (dropped > dropped_counter.value()) dropped_counter.Add(dropped - dropped_counter.value());

  int status = 0;
  const auto write_file = [&status](const std::string& path, const std::string& content,
                                    const char* what) {
    if (path.empty()) return;
    std::ofstream out;
    if (!OpenOutputFile(path, out)) {
      status = 1;
      return;
    }
    out << content;
    if (!out.good()) {
      std::cerr << "[gametrace] error: cannot write " << path << " (write failed)\n";
      status = 1;
      return;
    }
    std::cerr << "[gametrace] " << what << " written to " << path << "\n";
  };

  write_file(options_.metrics_path, metrics_.ToJson(), "metrics");
  write_file(options_.trace_path, trace_.ToJson(), "trace");
  write_file(options_.flight_path, recorder_.ToJsonl(), "flight snapshots");
  write_file(options_.alerts_path, watchdog_.ToJsonl(), "alerts");
  // The scheduler diagnostic channel: written even when no fleet ran (an
  // empty registry / report / trace), so a requested path never silently
  // stays absent.
  write_file(options_.sched_metrics_path, sched_metrics_.ToJson(), "scheduler metrics");
  write_file(options_.sched_report_path, sched_report_.ToJson(), "scheduler report");
  write_file(options_.sched_trace_path, sched_trace_.ToJson(), "scheduler timeline");
  // Last, so the text includes the ledger and alert counters. The
  // scheduler registry joins the exposition here (and only here): its
  // fleet.worker.<w>.* names become gametrace_fleet_* families with a
  // worker label, and the deterministic --metrics-out stays untouched.
  std::string prom_text = ToPrometheusText(metrics_);
  if (has_scheduler_) prom_text += ToPrometheusText(sched_metrics_);
  write_file(options_.prom_path, prom_text, "prometheus metrics");

  dump_guard_.reset();
  return status;
}

}  // namespace gametrace::obs
