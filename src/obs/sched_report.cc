#include "obs/sched_report.h"

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace gametrace::obs {

namespace {

void AppendWorkerJson(std::string& out, const SchedReport::Worker& w) {
  out += "{\"worker\": " + std::to_string(w.worker);
  out += ", \"span_ns\": " + std::to_string(w.span_ns);
  out += ", \"work_ns\": " + std::to_string(w.work_ns);
  out += ", \"stall_ns\": " + std::to_string(w.stall_ns);
  out += ", \"merge_ns\": " + std::to_string(w.merge_ns);
  out += ", \"idle_ns\": " + std::to_string(w.idle_ns);
  out += ", \"units\": " + std::to_string(w.units);
  out += ", \"shards\": " + std::to_string(w.shards);
  out += ", \"busy_ratio\": ";
  AppendJsonNumber(out, w.busy_ratio);
  out += '}';
}

void AppendStragglerJson(std::string& out, const SchedUnitSample& unit) {
  out += "{\"unit\": " + std::to_string(unit.unit);
  out += ", \"worker\": " + std::to_string(unit.worker);
  out += ", \"first_shard\": " + std::to_string(unit.first_shard);
  out += ", \"shard_count\": " + std::to_string(unit.shard_count);
  out += ", \"dur_ns\": " + std::to_string(unit.dur_ns);
  out += '}';
}

}  // namespace

void SchedReport::DumpInto(MetricsRegistry& registry) const {
  registry.gauge("fleet.critpath.makespan_ns", Gauge::MergeMode::kMax)
      .Set(static_cast<double>(makespan_ns));
  registry.gauge("fleet.critpath.imbalance_ratio", Gauge::MergeMode::kMax).Set(imbalance_ratio);
  registry.gauge("fleet.critpath.admission_stall_fraction", Gauge::MergeMode::kMax)
      .Set(admission_stall_fraction);
  if (!stragglers.empty()) {
    registry.gauge("fleet.critpath.straggler_ns", Gauge::MergeMode::kMax)
        .Set(static_cast<double>(stragglers.front().dur_ns));
  }
  for (const Worker& w : per_worker) {
    registry.gauge("fleet.critpath.worker." + std::to_string(w.worker) + ".busy_ratio",
                   Gauge::MergeMode::kMax)
        .Set(w.busy_ratio);
  }
  if (!alerts.empty()) registry.counter("fleet.critpath.alerts").Add(alerts.size());
}

void SchedReport::WriteJson(std::ostream& out) const { out << ToJson(); }

std::string SchedReport::ToJson() const {
  std::string out = "{\n  \"workers\": " + std::to_string(workers);
  out += ",\n  \"makespan_ns\": " + std::to_string(makespan_ns);
  out += ",\n  \"imbalance_ratio\": ";
  AppendJsonNumber(out, imbalance_ratio);
  out += ",\n  \"admission_stall_fraction\": ";
  AppendJsonNumber(out, admission_stall_fraction);
  out += ",\n  \"per_worker\": [";
  for (std::size_t i = 0; i < per_worker.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendWorkerJson(out, per_worker[i]);
  }
  out += "\n  ],\n  \"stragglers\": [";
  for (std::size_t i = 0; i < stragglers.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendStragglerJson(out, stragglers[i]);
  }
  out += "\n  ],\n  \"alerts\": [";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendAlertJson(out, alerts[i]);
  }
  out += "\n  ]\n}\n";
  return out;
}

SchedReport BuildSchedReport(const std::vector<SchedWorkerSample>& workers,
                             const std::vector<SchedUnitSample>& units, int top_k) {
  SchedReport report;
  report.workers = static_cast<int>(workers.size());
  if (workers.empty()) return report;

  report.per_worker.reserve(workers.size());
  double busy_sum = 0.0;
  double busy_max = 0.0;
  std::uint64_t span_sum = 0;
  std::uint64_t stall_sum = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const SchedWorkerSample& sample = workers[i];
    SchedReport::Worker w;
    w.worker = static_cast<int>(i);
    w.span_ns = sample.span_ns;
    w.work_ns = sample.work_ns;
    w.stall_ns = sample.stall_ns;
    w.merge_ns = sample.merge_ns;
    const std::uint64_t accounted = sample.work_ns + sample.stall_ns + sample.merge_ns;
    w.idle_ns = sample.span_ns > accounted ? sample.span_ns - accounted : 0;
    w.units = sample.units;
    w.shards = sample.shards;
    w.busy_ratio = sample.span_ns > 0
                       ? static_cast<double>(sample.work_ns + sample.merge_ns) /
                             static_cast<double>(sample.span_ns)
                       : 0.0;
    busy_sum += w.busy_ratio;
    busy_max = std::max(busy_max, w.busy_ratio);
    span_sum += w.span_ns;
    stall_sum += w.stall_ns;
    report.makespan_ns = std::max(report.makespan_ns, w.span_ns);
    report.per_worker.push_back(w);
  }
  const double busy_mean = busy_sum / static_cast<double>(workers.size());
  report.imbalance_ratio = busy_mean > 0.0 ? busy_max / busy_mean : 0.0;
  report.admission_stall_fraction =
      span_sum > 0 ? static_cast<double>(stall_sum) / static_cast<double>(span_sum) : 0.0;

  // Top-k stragglers: longest units first; the unit index breaks duration
  // ties so equal-cost units report in a stable order.
  report.stragglers = units;
  std::sort(report.stragglers.begin(), report.stragglers.end(),
            [](const SchedUnitSample& a, const SchedUnitSample& b) {
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              return a.unit < b.unit;
            });
  if (top_k >= 0 && report.stragglers.size() > static_cast<std::size_t>(top_k)) {
    report.stragglers.resize(static_cast<std::size_t>(top_k));
  }

  // Scheduler SLO pass: wrap the headline gauges in one synthetic
  // snapshot (t = makespan) and run the scheduler rules over it. Alerts
  // stay inside the report - the diagnostic channel - never the
  // deterministic alert stream.
  FlightRecorder::Snapshot snapshot;
  snapshot.t_seconds = static_cast<double>(report.makespan_ns) * 1e-9;
  report.DumpInto(snapshot.metrics);
  WatchdogEngine engine(WatchdogEngine::SchedulerRules());
  engine.Observe(nullptr, snapshot);
  report.alerts = engine.alerts();
  return report;
}

}  // namespace gametrace::obs
