// Shared plumbing for the bench binaries that regenerate the paper's
// tables and figures.
//
// Every bench simulates a scaled window by default (seconds of wall clock)
// and honours GAMETRACE_FULL=1 / GAMETRACE_DURATION=<s> to run the paper's
// entire 626,477 s week. Scaling shortens the simulated window only: the
// tick, map, session and size mechanisms are untouched, so every *shape*
// reported by the paper is preserved; totals scale with duration.
//
// Observability knobs (see DESIGN.md, "Observability", and
// src/obs/exporter.h for the full flag/env list):
//   --metrics-out=<path> / GAMETRACE_METRICS_OUT  - metrics JSON snapshot
//   --trace-out=<path>   / GAMETRACE_TRACE_OUT    - Chrome trace_event JSON
//   --flight-out=<path>  / GAMETRACE_FLIGHT_OUT   - snapshot-stream JSONL
//   --alerts-out=<path>  / GAMETRACE_ALERTS_OUT   - watchdog alerts JSONL
//   --prom-out=<path>    / GAMETRACE_PROM_OUT     - Prometheus text format
//   --flight-sample=<s>  / GAMETRACE_FLIGHT_SAMPLE- sampling period
//   --flight-dump=<path> / GAMETRACE_FLIGHT_DUMP  - black-box dump path
//   GAMETRACE_VERBOSE=0                           - suppress series dumps
//   GAMETRACE_HEARTBEAT=<s>                       - stderr progress pulse
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "core/report.h"
#include "game/config.h"
#include "obs/exporter.h"
#include "obs/shard_scope.h"

namespace gametrace::bench {

// Whether long series dumps go to stdout. GAMETRACE_VERBOSE=0 silences
// them (CI perf-smoke does); anything else, or unset, keeps them.
inline bool Verbose() {
  static const bool verbose = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): bench main thread, pre-measurement
    const char* env = std::getenv("GAMETRACE_VERBOSE");
    return env == nullptr || std::string_view(env) != "0";
  }();
  return verbose;
}

// core::PrintSeries behind the verbosity gate: quiet runs print a one-line
// placeholder instead of hundreds of (t, y) rows.
inline void PrintSeries(std::ostream& out, const stats::TimeSeries& series,
                        std::string_view name, std::size_t max_points = 0) {
  if (!Verbose()) {
    out << "# " << name << ": " << series.size()
        << " bins (suppressed; unset GAMETRACE_VERBOSE to print)\n";
    return;
  }
  core::PrintSeries(out, series, name, max_points);
}

// Per-binary observability session: obs::ExportSession parses the
// observability flags (or the matching environment variables), binds an
// ambient ObsContext for the bench's lifetime when any output is
// requested, arms the flight recorder, watchdog and black-box dump guard,
// and writes every requested file - metrics including the cost ledger -
// at destruction. Without outputs it binds nothing, so the bench runs
// exactly as before.
using ObsSession = obs::ExportSession;

struct CharacterizedRun {
  double duration;
  bool full;
  core::CharacterizationReport report;
  game::CsServer::Stats stats;
  stats::TimeSeries players;
};

// Runs the calibrated server workload for the resolved duration and the
// full analysis pipeline over it.
inline CharacterizedRun RunCharacterized(double default_duration,
                                         core::CharacterizationOptions options = {}) {
  const auto scale = core::ExperimentScale::FromEnv(default_duration);
  const auto config = game::GameConfig::ScaledDefaults(scale.duration);
  core::Characterizer characterizer(options);
  auto result = core::RunServerTrace(config, characterizer);
  return CharacterizedRun{scale.duration, scale.full, characterizer.Finish(scale.duration),
                          result.stats, std::move(result.players)};
}

inline void PrintScaleBanner(const std::string& experiment, double duration, bool full) {
  std::cout << "### " << experiment << "\n"
            << "### simulated duration: " << core::FormatDuration(duration)
            << (full ? " (paper-scale week)"
                     : " (scaled; set GAMETRACE_FULL=1 for the full week)")
            << "\n";
}

// Prints a "paper vs measured" comparison row.
inline void Compare(const std::string& what, const std::string& paper,
                    const std::string& measured) {
  std::cout << "  " << what << ": paper " << paper << "  |  measured " << measured << "\n";
}

}  // namespace gametrace::bench
