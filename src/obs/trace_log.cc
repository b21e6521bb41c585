#include "obs/trace_log.h"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <utility>

#include "obs/metrics.h"

namespace gametrace::obs {

TraceLog::TraceLog(int pid, std::size_t max_events) : pid_(pid), max_events_(max_events) {
  // A paper-scale week is 12.5 M ticks; tick spans are opt-in.
  category_enabled_.emplace("tick", false);
}

void TraceLog::Push(Event event) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceLog::Complete(const char* name, const char* cat, double t0_seconds,
                        double t1_seconds) {
  Complete(std::string(name), cat, t0_seconds, t1_seconds);
}

void TraceLog::Complete(std::string name, const char* cat, double t0_seconds,
                        double t1_seconds) {
  if (!CategoryEnabled(cat)) return;
  Push(Event{.name = std::move(name),
             .cat = cat,
             .ph = 'X',
             .ts_us = t0_seconds * 1e6,
             .dur_us = (t1_seconds - t0_seconds) * 1e6,
             .pid = pid_,
             .value = 0.0});
}

void TraceLog::Instant(const char* name, const char* cat, double t_seconds) {
  Instant(std::string(name), cat, t_seconds);
}

void TraceLog::Instant(std::string name, const char* cat, double t_seconds) {
  if (!CategoryEnabled(cat)) return;
  Push(Event{.name = std::move(name),
             .cat = cat,
             .ph = 'i',
             .ts_us = t_seconds * 1e6,
             .dur_us = 0.0,
             .pid = pid_,
             .value = 0.0});
}

void TraceLog::CounterSample(const char* name, const char* cat, double t_seconds,
                             double value) {
  if (!CategoryEnabled(cat)) return;
  Push(Event{.name = std::string(name),
             .cat = cat,
             .ph = 'C',
             .ts_us = t_seconds * 1e6,
             .dur_us = 0.0,
             .pid = pid_,
             .value = value});
}

bool TraceLog::CategoryEnabled(std::string_view cat) const noexcept {
  const auto it = category_enabled_.find(cat);
  return it == category_enabled_.end() ? true : it->second;
}

void TraceLog::SetCategoryEnabled(std::string_view cat, bool enabled) {
  const auto it = category_enabled_.find(cat);
  if (it == category_enabled_.end()) {
    category_enabled_.emplace(std::string(cat), enabled);
  } else {
    it->second = enabled;
  }
}

void TraceLog::Merge(TraceLog&& other) {
  dropped_ += other.dropped_;
  for (Event& event : other.events_) {
    Push(std::move(event));
  }
  other.events_.clear();
  other.dropped_ = 0;
}

std::string TraceLog::ToJson() const {
  // Stable ts order: Perfetto accepts any order, but deterministic output
  // keeps shard-merged exports reproducible and testable.
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return events_[a].ts_us < events_[b].ts_us;
  });

  std::string out;
  out += "{\"traceEvents\": [";
  bool first = true;
  for (const std::size_t i : order) {
    const Event& e = events_[i];
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": ";
    AppendJsonString(out, e.name);
    out += ", \"cat\": ";
    AppendJsonString(out, e.cat);
    out += ", \"ph\": ";
    const char ph[2] = {e.ph, '\0'};
    AppendJsonString(out, ph);
    out += ", \"ts\": ";
    AppendJsonNumber(out, e.ts_us);
    if (e.ph == 'X') {
      out += ", \"dur\": ";
      AppendJsonNumber(out, e.dur_us);
    }
    if (e.ph == 'i') {
      out += ", \"s\": \"g\"";  // global-scope instant: renders across tracks
    }
    if (e.ph == 'C') {
      out += ", \"args\": {\"value\": ";
      AppendJsonNumber(out, e.value);
      out += "}";
    }
    out += ", \"pid\": " + std::to_string(e.pid);
    out += ", \"tid\": 0}";
  }
  out += first ? "],\n" : "\n],\n";
  out += "\"displayTimeUnit\": \"ms\",\n";
  out += "\"otherData\": {\"clock\": \"simulation seconds as microseconds\", "
         "\"dropped_events\": " +
         std::to_string(dropped_) + "}\n}\n";
  return out;
}

void TraceLog::WriteJson(std::ostream& out) const { out << ToJson(); }

}  // namespace gametrace::obs
