// Sim-time trace spans exported as Chrome trace_event JSON.
//
// Every macroscopic thing the simulation does - server ticks, map
// rotations, rounds, outages, connection churn, NAT drops - can be
// recorded against *simulator* time and opened in Perfetto / chrome://
// tracing: the exported file is the JSON array flavour of the Chrome
// trace-event format ({"traceEvents": [...]}), with the simulation clock
// mapped onto the `ts` microsecond axis and fleet shards mapped onto
// `pid`.
//
// Span taxonomy (categories): "run" (whole captures), "map", "outage",
// "session" (connect/refuse/disconnect instants), "nat" (drop instants),
// "tick" (one span per 50 ms server tick - disabled by default because a
// paper-scale week is 12.5 M ticks; enable it for short runs via
// SetCategoryEnabled("tick", true)).
//
// Memory is bounded: past `max_events` the log counts drops instead of
// growing, and the count is exported in the JSON ("otherData") so a
// truncated trace is never mistaken for a complete one.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gametrace::obs {

class TraceLog {
 public:
  static constexpr std::size_t kDefaultMaxEvents = 1u << 20;

  struct Event {
    std::string name;
    const char* cat;  // must be a string literal (stored, not copied)
    char ph;          // 'X' complete, 'i' instant, 'C' counter sample
    double ts_us;     // simulator time, microseconds
    double dur_us;    // 'X' only
    int pid;          // fleet shard id
    double value;     // 'C' only
  };

  explicit TraceLog(int pid = 0, std::size_t max_events = kDefaultMaxEvents);

  // A span covering sim-time [t0, t1] seconds.
  void Complete(const char* name, const char* cat, double t0_seconds, double t1_seconds);
  void Complete(std::string name, const char* cat, double t0_seconds, double t1_seconds);
  // A zero-duration marker at sim-time t.
  void Instant(const char* name, const char* cat, double t_seconds);
  void Instant(std::string name, const char* cat, double t_seconds);
  // A sampled counter track (renders as a graph row in Perfetto).
  void CounterSample(const char* name, const char* cat, double t_seconds, double value);

  // Category gate, checked by producers before building event names.
  // Unknown categories default to enabled; "tick" starts disabled (see the
  // taxonomy note above).
  [[nodiscard]] bool CategoryEnabled(std::string_view cat) const noexcept;
  void SetCategoryEnabled(std::string_view cat, bool enabled);

  // Appends another log's events (fleet shard reduction; each event keeps
  // the pid it was recorded under). `other` is spent.
  void Merge(TraceLog&& other);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }

  // Chrome trace_event JSON: {"traceEvents": [...], "displayTimeUnit":
  // "ms", "otherData": {...}}. Events are emitted in stable ts order.
  void WriteJson(std::ostream& out) const;
  [[nodiscard]] std::string ToJson() const;

 private:
  void Push(Event event);

  int pid_;
  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::map<std::string, bool, std::less<>> category_enabled_;
};

}  // namespace gametrace::obs
