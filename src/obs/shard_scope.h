// ShardScope: the observability of one run among several - a fleet shard
// or a bench sweep point (usage: obs/obs.h). Each run binds a scope of its
// own, so no two runs share a ring's timeline, a flight grid or a trace
// pid; the scopes fold with MergeInto, in call order, into one record. No
// scope runs a watchdog or flushes Prometheus text.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_log.h"

namespace gametrace::obs {

class ShardScope {
 public:
  // A registry, a trace log with pid `shard_id` that copies the ambient
  // log's "tick" switch, and a recorder on the ambient recorder's grid when
  // `ambient` binds one. Only shard 0 keeps the ambient heartbeat.
  ShardScope(const ObsContext& ambient, int shard_id,
             std::size_t trace_max_events = TraceLog::kDefaultMaxEvents)
      : trace_(shard_id, trace_max_events), heartbeat_(ambient.heartbeat && shard_id == 0) {
    if (ambient.trace != nullptr) {
      trace_.SetCategoryEnabled("tick", ambient.trace->CategoryEnabled("tick"));
    }
    if (ambient.recorder != nullptr) recorder_.emplace(ambient.recorder->options());
  }

  // Binds context() on the calling thread until the guard dies. The scope
  // must not move while bound: components cache the bound addresses.
  [[nodiscard]] ScopedObsBinding Bind() { return ScopedObsBinding(context()); }
  [[nodiscard]] ObsContext context() noexcept {
    return {.metrics = &metrics_,
            .trace = &trace_,
            .recorder = recorder_ ? &*recorder_ : nullptr,
            .heartbeat = heartbeat_};
  }

  // The one fold, into `target`'s sinks, each skipped when null; trace
  // events keep their pid and snapshot streams merge pairwise (equal grids
  // GT_CHECKed). Folds are order-dependent in bits: keep a fixed order.
  void MergeInto(const ObsContext& target) && {
    if (target.metrics != nullptr) target.metrics->Merge(metrics_);
    if (target.trace != nullptr) target.trace->Merge(std::move(trace_));
    if (target.recorder != nullptr && recorder_) target.recorder->Merge(*recorder_);
  }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] TraceLog& trace() noexcept { return trace_; }
  // Empty unless the ambient context bound a recorder.
  [[nodiscard]] std::optional<FlightRecorder>& recorder() noexcept { return recorder_; }

 private:
  MetricsRegistry metrics_;
  TraceLog trace_;
  std::optional<FlightRecorder> recorder_;
  bool heartbeat_;
};

}  // namespace gametrace::obs
