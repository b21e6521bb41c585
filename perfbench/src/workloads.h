// The benchmark's four workloads, each a complete paper-shaped run through
// the library's public entry points (README.md says why each was chosen).
//
// A run repeats its workload until the requested seconds are spent: one
// warm-up repetition, which also produces the undecorated reference output
// the checks read, then timed repetitions. End-to-end throughput and CPU
// cost come from the fastest timed repetition, set-up time from the median
// (README.md, "Estimator"). A traced run alternates plain and
// span-recording repetitions, so the tracing overhead is measured on
// adjacent pairs, and takes its per-layer ledger from the fastest traced
// repetition.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "timing.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric a run prints, in print order; must match BENCHMARK.json.
[[nodiscard]] const std::vector<MetricSpec>& EndToEndMetrics();
[[nodiscard]] const std::vector<MetricSpec>& PerLayerMetrics();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the gtr_replay input is generated (and removed again).
  std::string work_dir = ".";
};

struct RunOutcome {
  // Values by metric name. A per-layer metric of a layer the workload never
  // calls is absent here and printed as 0.
  std::map<std::string, double> metrics;
  CheckList checks;
  std::uint64_t attempted = 0;  // timed repetitions
  std::uint64_t failed = 0;     // timed repetitions whose output failed a check
  std::string params_json;      // workload parameters, for the manifest
  std::vector<double> rep_wall_ms;  // every timed repetition, in run order
  SpanLog ledger;               // traced runs: the fastest traced repetition
};

// Runs one workload. Throws std::invalid_argument on an unknown name.
[[nodiscard]] RunOutcome RunWorkload(const RunOptions& options);

// One paper_server repetition: a calibrated server of `window` simulated
// seconds, generated, delivered and characterized. `decorated` puts the
// timing sink between the server and the Characterizer; a non-null `log`
// makes it time every call and records the repetition's spans there.
struct ServerRep {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t setup_ns = 0;  // 0 when undecorated
  std::optional<gametrace::core::CharacterizationReport> report;
  gametrace::game::CsServer::Stats stats;
  double mean_players = 0.0;
  TimingSink::Tier columns;
  TimingSink::Tier scalar;
};
[[nodiscard]] ServerRep RunPaperServerRep(std::uint64_t seed, double window, bool decorated,
                                          SpanLog* log);

}  // namespace perfbench
