// MetricsRegistry: named counters, gauges and fixed-bucket histograms.
//
// The paper is a measurement study - every figure is the output of
// observing a running server - and this registry is how the simulator
// observes *itself*: each subsystem registers named instruments, fleet
// shards own one registry apiece, and per-shard registries reduce with
// Merge() exactly like the stats/trace accumulators, so an N-thread run
// reports bit-identical aggregate metrics to a 1-thread run.
//
// Determinism contract:
//  - Counters are exact uint64 sums; merging sums them.
//  - Gauges carry a merge mode chosen at registration: kSum (fleet player
//    totals) or kMax (queue high-water marks). Both are order-independent.
//  - Histograms are stats::Histogram (integer bin counts); merging requires
//    identical geometry and is exact.
//  - Sketches are stats::QuantileSketch (bounded relative-error quantile
//    stores); merging adds bucket counts key-wise and is independent of
//    merge order. Quantiles are derived at serialization time from merged
//    state, never merged themselves.
//  - Rings are stats::TieredRing (multi-resolution bounded time series,
//    optionally carrying an OnlineHurst); merging requires identical
//    schedule and advancement and adds bins component-wise.
//  - Snapshots (WriteJson / ToJson) iterate name-sorted maps, so two
//    registries with equal contents serialize byte-identically.
//
// Hot-path use: counter(name) / gauge(name) return references with stable
// addresses for the registry's lifetime; instrumented components look the
// instrument up once at construction and pay a single add per update.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "stats/histogram.h"
#include "stats/quantile_sketch.h"
#include "stats/tiered_ring.h"

namespace gametrace::obs {

class MetricsRegistry;

// Monotone event count (packets emitted, connections refused, drops).
class Counter {
 public:
  void Add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  friend class MetricsRegistry;
  std::uint64_t value_ = 0;
};

// Point-in-time level (players online, queue high-water).
class Gauge {
 public:
  // How two shards' values combine under MetricsRegistry::Merge.
  enum class MergeMode : std::uint8_t { kSum = 0, kMax = 1 };

  void Set(double v) noexcept { value_ = v; }
  void Add(double d) noexcept { value_ += d; }
  void SetMax(double v) noexcept {
    if (v > value_) value_ = v;
  }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] MergeMode merge_mode() const noexcept { return merge_; }

 private:
  friend class MetricsRegistry;
  double value_ = 0.0;
  MergeMode merge_ = MergeMode::kSum;
};

class MetricsRegistry {
 public:
  // Returns the instrument registered under `name`, creating it on first
  // use. References stay valid for the registry's lifetime (node-based
  // storage), so hot paths cache them once.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name, Gauge::MergeMode mode = Gauge::MergeMode::kSum);
  stats::Histogram& histogram(std::string_view name, double lo, double hi, std::size_t bins);
  stats::QuantileSketch& sketch(std::string_view name, double alpha = 0.01,
                                std::size_t max_buckets = 1024);
  stats::TieredRing& ring(std::string_view name,
                          stats::TieredRing::Options options =
                              stats::TieredRing::Options::PaperSchedule());

  // Read-side conveniences for tests and thin accessors; a missing counter
  // reads as 0, a missing gauge as 0.0.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;
  [[nodiscard]] double gauge_value(std::string_view name) const noexcept;
  [[nodiscard]] const stats::Histogram* find_histogram(std::string_view name) const noexcept;
  [[nodiscard]] const stats::QuantileSketch* find_sketch(std::string_view name) const noexcept;
  [[nodiscard]] const stats::TieredRing* find_ring(std::string_view name) const noexcept;

  [[nodiscard]] std::size_t counter_count() const noexcept { return counters_.size(); }
  [[nodiscard]] std::size_t gauge_count() const noexcept { return gauges_.size(); }
  [[nodiscard]] std::size_t histogram_count() const noexcept { return histograms_.size(); }
  [[nodiscard]] std::size_t sketch_count() const noexcept { return sketches_.size(); }
  [[nodiscard]] std::size_t ring_count() const noexcept { return rings_.size(); }

  // Advances every ring instrument to time t (see TieredRing::AdvanceTo).
  // Shards call this on a common grid - at each flight sample and once at
  // end of run - so their rings satisfy Merge's lockstep precondition.
  void AdvanceRingsTo(double t);

  // Absorbs another registry: counters and kSum gauges add, kMax gauges
  // take the max, histograms merge bin-wise, sketches bucket-wise and
  // rings bin-wise. Instruments present on only one side are copied
  // through. GT_CHECK fails on a gauge merge-mode or histogram / sketch /
  // ring geometry conflict - that is a naming bug, not data.
  void Merge(const MetricsRegistry& other);

  // Name-ordered visitation, for exporters (Prometheus text, flight
  // recorder JSONL) that need to walk the instruments without owning them.
  void ForEachCounter(const std::function<void(std::string_view, const Counter&)>& fn) const;
  void ForEachGauge(const std::function<void(std::string_view, const Gauge&)>& fn) const;
  void ForEachHistogram(
      const std::function<void(std::string_view, const stats::Histogram&)>& fn) const;
  void ForEachSketch(
      const std::function<void(std::string_view, const stats::QuantileSketch&)>& fn) const;
  void ForEachRing(
      const std::function<void(std::string_view, const stats::TieredRing&)>& fn) const;

  // Deterministic JSON snapshot: name-sorted counters, gauges, histograms,
  // sketches and rings. Two registries with equal contents produce
  // byte-identical output, which is what the fleet bit-identity tests
  // compare. Sketch sections carry derived p50/p90/p99 next to the raw
  // bucket store; ring sections carry per-tier lifetime stats and the held
  // window (full form) or a bounded recent tail (compact form).
  void WriteJson(std::ostream& out) const;
  [[nodiscard]] std::string ToJson() const;

  // Single-line form of ToJson (same content, no indentation or trailing
  // newline) - one flight-recorder snapshot per JSONL line.
  void AppendCompactJson(std::string& out) const;

 private:
  // The one walk behind ToJson and AppendCompactJson; they differ only in
  // separators and in how much sketch and ring detail they carry.
  void AppendJson(std::string& out, bool compact) const;

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, stats::Histogram, std::less<>> histograms_;
  std::map<std::string, stats::QuantileSketch, std::less<>> sketches_;
  std::map<std::string, stats::TieredRing, std::less<>> rings_;
};

// Formats a double for JSON output (shortest round-trip form; "0" for
// zero, no exponent unless needed). Shared by metrics and trace export so
// snapshots are reproducible across writers.
void AppendJsonNumber(std::string& out, double value);

// Appends `text` as a JSON string literal (quoted, escaped).
void AppendJsonString(std::string& out, std::string_view text);

}  // namespace gametrace::obs
