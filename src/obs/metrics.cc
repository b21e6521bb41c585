#include "obs/metrics.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "core/check.h"

namespace gametrace::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Gauge::MergeMode mode) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    GT_CHECK(it->second.merge_ == mode)
        << "MetricsRegistry::gauge: \"" << std::string(name)
        << "\" re-registered with a different merge mode";
    return it->second;
  }
  Gauge gauge;
  gauge.merge_ = mode;
  return gauges_.emplace(std::string(name), gauge).first->second;
}

stats::Histogram& MetricsRegistry::histogram(std::string_view name, double lo, double hi,
                                             std::size_t bins) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    GT_CHECK(it->second.lo() == lo && it->second.hi() == hi &&
             it->second.bin_count() == bins)
        << "MetricsRegistry::histogram: \"" << std::string(name)
        << "\" re-registered with a different geometry";
    return it->second;
  }
  return histograms_.emplace(std::string(name), stats::Histogram(lo, hi, bins))
      .first->second;
}

stats::QuantileSketch& MetricsRegistry::sketch(std::string_view name, double alpha,
                                               std::size_t max_buckets) {
  const auto it = sketches_.find(name);
  if (it != sketches_.end()) {
    GT_CHECK(it->second.alpha() == alpha && it->second.max_buckets() == max_buckets)
        << "MetricsRegistry::sketch: \"" << std::string(name)
        << "\" re-registered with a different geometry";
    return it->second;
  }
  return sketches_.emplace(std::string(name), stats::QuantileSketch(alpha, max_buckets))
      .first->second;
}

stats::TieredRing& MetricsRegistry::ring(std::string_view name,
                                         stats::TieredRing::Options options) {
  const auto it = rings_.find(name);
  if (it != rings_.end()) {
    GT_CHECK(it->second.SameShape(stats::TieredRing(std::move(options))))
        << "MetricsRegistry::ring: \"" << std::string(name)
        << "\" re-registered with a different schedule";
    return it->second;
  }
  return rings_.emplace(std::string(name), stats::TieredRing(std::move(options)))
      .first->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const noexcept {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::gauge_value(std::string_view name) const noexcept {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

const stats::Histogram* MetricsRegistry::find_histogram(std::string_view name) const noexcept {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

const stats::QuantileSketch* MetricsRegistry::find_sketch(std::string_view name) const noexcept {
  const auto it = sketches_.find(name);
  return it == sketches_.end() ? nullptr : &it->second;
}

const stats::TieredRing* MetricsRegistry::find_ring(std::string_view name) const noexcept {
  const auto it = rings_.find(name);
  return it == rings_.end() ? nullptr : &it->second;
}

void MetricsRegistry::AdvanceRingsTo(double t) {
  for (auto& [name, rg] : rings_) rg.AdvanceTo(t);
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, other_counter] : other.counters_) {
    counter(name).Add(other_counter.value());
  }
  for (const auto& [name, other_gauge] : other.gauges_) {
    Gauge& mine = gauge(name, other_gauge.merge_mode());
    switch (other_gauge.merge_mode()) {
      case Gauge::MergeMode::kSum:
        mine.Add(other_gauge.value());
        break;
      case Gauge::MergeMode::kMax:
        mine.SetMax(other_gauge.value());
        break;
    }
  }
  for (const auto& [name, other_hist] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, other_hist);
    } else {
      it->second.Merge(other_hist);
    }
  }
  for (const auto& [name, other_sketch] : other.sketches_) {
    const auto it = sketches_.find(name);
    if (it == sketches_.end()) {
      sketches_.emplace(name, other_sketch);
    } else {
      it->second.Merge(other_sketch);
    }
  }
  for (const auto& [name, other_ring] : other.rings_) {
    const auto it = rings_.find(name);
    if (it == rings_.end()) {
      rings_.emplace(name, other_ring);
    } else {
      it->second.Merge(other_ring);
    }
  }
}

void AppendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; serialize as null so the document stays valid.
    out += "null";
    return;
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

void AppendJsonString(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

void AppendHistogramJson(std::string& out, const stats::Histogram& hist) {
  out += "{\"lo\": ";
  AppendJsonNumber(out, hist.lo());
  out += ", \"hi\": ";
  AppendJsonNumber(out, hist.hi());
  out += ", \"underflow\": " + std::to_string(hist.underflow());
  out += ", \"overflow\": " + std::to_string(hist.overflow());
  out += ", \"total\": " + std::to_string(hist.total());
  out += ", \"bins\": [";
  for (std::size_t i = 0; i < hist.bin_count(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(hist.count(i));
  }
  out += "]}";
}

void AppendSketchJson(std::string& out, const stats::QuantileSketch& sketch, bool full) {
  out += "{";
  if (full) {
    out += "\"alpha\": ";
    AppendJsonNumber(out, sketch.alpha());
    out += ", \"max_buckets\": " + std::to_string(sketch.max_buckets());
    out += ", ";
  }
  out += "\"count\": " + std::to_string(sketch.count());
  out += ", \"zero_count\": " + std::to_string(sketch.zero_count());
  out += ", \"min\": ";
  AppendJsonNumber(out, sketch.min());
  out += ", \"max\": ";
  AppendJsonNumber(out, sketch.max());
  out += ", \"sum\": ";
  AppendJsonNumber(out, sketch.sum());
  // Derived at serialization time from (merged) state, so the fleet
  // bit-identity guarantee covers them too.
  out += ", \"p50\": ";
  AppendJsonNumber(out, sketch.Quantile(0.50));
  out += ", \"p90\": ";
  AppendJsonNumber(out, sketch.Quantile(0.90));
  out += ", \"p99\": ";
  AppendJsonNumber(out, sketch.Quantile(0.99));
  if (full) {
    out += ", \"min_key\": " + std::to_string(sketch.min_key());
    out += ", \"buckets\": [";
    for (std::size_t i = 0; i < sketch.bucket_count(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(sketch.bucket(i));
    }
    out += "]";
  }
  out += "}";
}

// Compact (flight) ring snapshots carry only this many trailing bins per
// tier - enough for a sparkline, bounded per snapshot.
constexpr std::size_t kCompactRingTail = 32;

void AppendRingJson(std::string& out, const stats::TieredRing& ring, bool full) {
  // Every ring bin is a sample sum; the field keeps the JSON schema stable.
  out += "{\"reduction\": \"sum\", \"dropped_late\": " + std::to_string(ring.dropped_late());
  out += ", \"hurst\": ";
  if (const stats::OnlineHurst* hurst = ring.hurst()) {
    out += "{\"samples\": " + std::to_string(hurst->samples());
    out += ", \"estimate\": ";
    // null until enough scales resolve (AppendJsonNumber maps NaN to null).
    AppendJsonNumber(out, hurst->CanEstimate(0.050, 1800.0)
                              ? hurst->HurstEstimate(0.050, 1800.0)
                              : std::nan(""));
    out += "}";
  } else {
    out += "null";
  }
  out += ", \"tiers\": [";
  for (std::size_t tier = 0; tier < ring.tier_count(); ++tier) {
    if (tier > 0) out += ", ";
    out += "{\"interval\": ";
    AppendJsonNumber(out, ring.tier_interval(tier));
    if (full) out += ", \"capacity\": " + std::to_string(ring.tier_capacity(tier));
    out += ", \"first\": " + std::to_string(ring.tier_first(tier));
    out += ", \"held\": " + std::to_string(ring.tier_held(tier));
    out += ", \"evicted\": " + std::to_string(ring.tier_evicted(tier));
    const stats::TieredRing::TierStats tier_stats = ring.Stats(tier);
    out += ", \"mean\": ";
    AppendJsonNumber(out, tier_stats.mean);
    out += ", \"peak\": ";
    AppendJsonNumber(out, tier_stats.peak);
    const std::vector<double> values =
        ring.RecentValues(tier, full ? ring.tier_held(tier) : kCompactRingTail);
    out += full ? ", \"values\": [" : ", \"recent\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      AppendJsonNumber(out, values[i]);
    }
    out += "]}";
  }
  out += "]}";
}

}  // namespace

std::string MetricsRegistry::ToJson() const {
  std::string out;
  out += "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(counter.value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": {\"value\": ";
    AppendJsonNumber(out, gauge.value());
    out += ", \"merge\": ";
    out += gauge.merge_mode() == Gauge::MergeMode::kSum ? "\"sum\"" : "\"max\"";
    out += "}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": ";
    AppendHistogramJson(out, hist);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"sketches\": {";
  first = true;
  for (const auto& [name, sk] : sketches_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": ";
    AppendSketchJson(out, sk, /*full=*/true);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"rings\": {";
  first = true;
  for (const auto& [name, rg] : rings_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(out, name);
    out += ": ";
    AppendRingJson(out, rg, /*full=*/true);
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

void MetricsRegistry::WriteJson(std::ostream& out) const { out << ToJson(); }

void MetricsRegistry::ForEachCounter(
    const std::function<void(std::string_view, const Counter&)>& fn) const {
  for (const auto& [name, counter] : counters_) fn(name, counter);
}

void MetricsRegistry::ForEachGauge(
    const std::function<void(std::string_view, const Gauge&)>& fn) const {
  for (const auto& [name, gauge] : gauges_) fn(name, gauge);
}

void MetricsRegistry::ForEachHistogram(
    const std::function<void(std::string_view, const stats::Histogram&)>& fn) const {
  for (const auto& [name, hist] : histograms_) fn(name, hist);
}

void MetricsRegistry::ForEachSketch(
    const std::function<void(std::string_view, const stats::QuantileSketch&)>& fn) const {
  for (const auto& [name, sk] : sketches_) fn(name, sk);
}

void MetricsRegistry::ForEachRing(
    const std::function<void(std::string_view, const stats::TieredRing&)>& fn) const {
  for (const auto& [name, rg] : rings_) fn(name, rg);
}

void MetricsRegistry::AppendCompactJson(std::string& out) const {
  out += "{\"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(out, name);
    out += ": " + std::to_string(counter.value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(out, name);
    out += ": {\"value\": ";
    AppendJsonNumber(out, gauge.value());
    out += ", \"merge\": ";
    out += gauge.merge_mode() == Gauge::MergeMode::kSum ? "\"sum\"" : "\"max\"";
    out += "}";
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(out, name);
    out += ": ";
    AppendHistogramJson(out, hist);
  }
  out += "}, \"sketches\": {";
  first = true;
  for (const auto& [name, sk] : sketches_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(out, name);
    out += ": ";
    AppendSketchJson(out, sk, /*full=*/false);
  }
  out += "}, \"rings\": {";
  first = true;
  for (const auto& [name, rg] : rings_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(out, name);
    out += ": ";
    AppendRingJson(out, rg, /*full=*/false);
  }
  out += "}}";
}

}  // namespace gametrace::obs
