#include "obs/flight_recorder.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/thread_annotations.h"
#include "obs/exporter.h"
#include "obs/obs.h"
#include "obs/ledger.h"
#include "obs/trace_log.h"

namespace gametrace::obs {

FlightRecorder::FlightRecorder(Options options) : options_(options) {
  GT_CHECK(options.sample_period_seconds > 0.0)
      << "FlightRecorder: sample period must be positive, got "
      << options.sample_period_seconds;
  GT_CHECK(options.max_snapshots > 0) << "FlightRecorder: ring must hold at least one snapshot";
}

void FlightRecorder::Sample(double t_seconds, MetricsRegistry metrics) {
  GT_CHECK(snapshots_.empty() || t_seconds > snapshots_.back().t_seconds)
      << "FlightRecorder::Sample: t = " << t_seconds << " s is not after the last sample";
  snapshots_.push_back(Snapshot{t_seconds, std::move(metrics)});
  ++total_samples_;
  while (snapshots_.size() > options_.max_snapshots) snapshots_.pop_front();
}

void FlightRecorder::Merge(const FlightRecorder& other) {
  if (other.snapshots_.empty()) {
    total_samples_ = std::max(total_samples_, other.total_samples_);
    return;
  }
  if (snapshots_.empty()) {
    snapshots_ = other.snapshots_;
    total_samples_ = std::max(total_samples_, other.total_samples_);
    return;
  }
  GT_CHECK_EQ(snapshots_.size(), other.snapshots_.size())
      << "FlightRecorder::Merge: shards sampled different grids";
  GT_CHECK_EQ(total_samples_, other.total_samples_)
      << "FlightRecorder::Merge: shards evicted different amounts";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    GT_CHECK(snapshots_[i].t_seconds == other.snapshots_[i].t_seconds)
        << "FlightRecorder::Merge: snapshot " << i << " timestamps differ ("
        << snapshots_[i].t_seconds << " vs " << other.snapshots_[i].t_seconds << ")";
    snapshots_[i].metrics.Merge(other.snapshots_[i].metrics);
  }
}

void FlightRecorder::AppendSnapshotJson(std::string& out, std::size_t i) const {
  const Snapshot& snapshot = snapshots_.at(i);
  out += "{\"t\": ";
  AppendJsonNumber(out, snapshot.t_seconds);
  out += ", \"seq\": " + std::to_string(sequence_of(i));
  out += ", \"metrics\": ";
  snapshot.metrics.AppendCompactJson(out);
  out += "}";
}

std::string FlightRecorder::ToJsonl() const {
  std::string out;
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    AppendSnapshotJson(out, i);
    out += '\n';
  }
  return out;
}

void FlightRecorder::WriteJsonl(std::ostream& out) const { out << ToJsonl(); }

namespace {

void AppendTraceEventJson(std::string& out, const TraceLog::Event& event) {
  out += "{\"name\": ";
  AppendJsonString(out, event.name);
  out += ", \"cat\": ";
  AppendJsonString(out, event.cat);
  out += ", \"ph\": ";
  AppendJsonString(out, std::string_view(&event.ph, 1));
  out += ", \"ts_us\": ";
  AppendJsonNumber(out, event.ts_us);
  if (event.ph == 'X') {
    out += ", \"dur_us\": ";
    AppendJsonNumber(out, event.dur_us);
  }
  if (event.ph == 'C') {
    out += ", \"value\": ";
    AppendJsonNumber(out, event.value);
  }
  out += ", \"pid\": " + std::to_string(event.pid);
  out += "}";
}

}  // namespace

void WriteFlightDump(std::ostream& out, std::string_view reason, const FlightRecorder* recorder,
                     const TraceLog* trace, const ContractFailure* failure,
                     const FlightDumpOptions& options) {
  std::string doc;
  doc += "{\n  \"reason\": ";
  AppendJsonString(doc, reason);
  if (failure != nullptr) {
    doc += ",\n  \"failure\": {\"file\": ";
    AppendJsonString(doc, failure->file);
    doc += ", \"line\": " + std::to_string(failure->line);
    doc += ", \"condition\": ";
    AppendJsonString(doc, failure->condition);
    doc += ", \"message\": ";
    AppendJsonString(doc, failure->message);
    doc += "}";
  }

  const std::uint64_t total = recorder != nullptr ? recorder->total_samples() : 0;
  const std::uint64_t evicted = recorder != nullptr ? recorder->evicted() : 0;
  doc += ",\n  \"total_samples\": " + std::to_string(total);
  doc += ",\n  \"evicted_snapshots\": " + std::to_string(evicted);
  doc += ",\n  \"snapshots\": [";
  if (recorder != nullptr && !recorder->empty()) {
    const std::size_t held = recorder->size();
    const std::size_t first = held > options.last_snapshots ? held - options.last_snapshots : 0;
    for (std::size_t i = first; i < held; ++i) {
      doc += i == first ? "\n    " : ",\n    ";
      recorder->AppendSnapshotJson(doc, i);
    }
    doc += "\n  ";
  }
  doc += "]";

  doc += ",\n  \"trace_dropped_events\": " +
         std::to_string(trace != nullptr ? trace->dropped() : 0);
  doc += ",\n  \"trace_tail\": [";
  if (trace != nullptr && !trace->events().empty()) {
    // Same stable ts order as TraceLog::WriteJson, then keep the tail: the
    // black box wants the *latest* sim-time activity, not push order.
    std::vector<const TraceLog::Event*> sorted;
    sorted.reserve(trace->events().size());
    for (const TraceLog::Event& event : trace->events()) sorted.push_back(&event);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceLog::Event* a, const TraceLog::Event* b) {
                       return a->ts_us < b->ts_us;
                     });
    const std::size_t first =
        sorted.size() > options.last_trace_events ? sorted.size() - options.last_trace_events : 0;
    for (std::size_t i = first; i < sorted.size(); ++i) {
      doc += i == first ? "\n    " : ",\n    ";
      AppendTraceEventJson(doc, *sorted[i]);
    }
    doc += "\n  ";
  }
  doc += "]";

  doc += ",\n  \"ledger\": [";
  const LedgerTallies ledger = LedgerSnapshot();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    doc += i == 0 ? "\n    " : ",\n    ";
    doc += "{\"layer\": ";
    AppendJsonString(doc, kLayerNames[i]);
    doc += ", \"calls\": " + std::to_string(ledger[i].calls);
    doc += ", \"ns\": " + std::to_string(ledger[i].ns);
    doc += "}";
  }
  doc += "\n  ]\n}\n";
  out << doc;
}

namespace {

// ScopedFlightDump state. The contract handler is a plain function
// pointer, so the guard parks its path here; one guard at a time. No
// atomics on purpose: every access (install, dump, restore) funnels
// through g_dump_mutex, and the only lock-free state is the thread_local
// re-entrancy breaker, which no other thread can observe by construction.
core::Mutex g_dump_mutex;
bool g_dump_active GT_GUARDED_BY(g_dump_mutex) = false;
std::string g_dump_path GT_GUARDED_BY(g_dump_mutex);
FlightDumpOptions g_dump_options GT_GUARDED_BY(g_dump_mutex);
ContractHandler g_previous_handler GT_GUARDED_BY(g_dump_mutex) = nullptr;
thread_local bool t_writing_flight_dump = false;  // re-entrancy breaker

bool WriteDumpForCurrentContext(const std::string& path, std::string_view reason,
                                const ContractFailure* failure,
                                const FlightDumpOptions& options) {
  const ObsContext& context = Current();
  std::ofstream out;
  if (!OpenOutputFile(path, out)) return false;
  WriteFlightDump(out, reason, context.recorder, context.trace, failure, options);
  return out.good();
}

[[noreturn]] void FlightDumpContractHandler(const ContractFailure& failure) {
  ContractHandler previous = nullptr;
  {
    const core::MutexLock lock(g_dump_mutex);
    previous = g_previous_handler;
    // Best-effort: a failure while dumping (or a dump that itself trips a
    // check) must not recurse into another dump.
    if (g_dump_active && !t_writing_flight_dump) {
      t_writing_flight_dump = true;
      WriteDumpForCurrentContext(g_dump_path, "contract_violation", &failure, g_dump_options);
      t_writing_flight_dump = false;
    }
  }
  // Chain outside the lock: the previous handler aborts or throws.
  if (previous != nullptr) previous(failure);
  AbortContractHandler(failure);
}

}  // namespace

ScopedFlightDump::ScopedFlightDump(std::string path, FlightDumpOptions options) {
  bool already_active = false;
  {
    const core::MutexLock lock(g_dump_mutex);
    already_active = g_dump_active;
    if (!already_active) {
      g_dump_active = true;
      g_dump_path = std::move(path);
      g_dump_options = options;
      g_previous_handler = SetContractHandler(&FlightDumpContractHandler);
    }
  }
  // Checked outside the lock: the failure handler takes g_dump_mutex.
  GT_CHECK(!already_active) << "ScopedFlightDump: a flight-dump guard is already active";
}

ScopedFlightDump::~ScopedFlightDump() {
  const core::MutexLock lock(g_dump_mutex);
  if (!g_dump_active) return;
  SetContractHandler(g_previous_handler);
  g_previous_handler = nullptr;
  g_dump_active = false;
  g_dump_path.clear();
}

bool DumpFlightNow(std::string_view reason) {
  std::string path;
  FlightDumpOptions options;
  {
    const core::MutexLock lock(g_dump_mutex);
    if (!g_dump_active) return false;
    path = g_dump_path;
    options = g_dump_options;
  }
  return WriteDumpForCurrentContext(path, reason, nullptr, options);
}

}  // namespace gametrace::obs
