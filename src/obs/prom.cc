#include "obs/prom.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "stats/histogram.h"

namespace gametrace::obs {

namespace {

void AppendPromNumber(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "NaN";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

void AppendHeader(std::string& out, const std::string& prom_name, std::string_view source_name,
                  const char* type) {
  out += "# HELP " + prom_name + " gametrace instrument ";
  out += source_name;
  out += "\n# TYPE " + prom_name + " ";
  out += type;
  out += '\n';
}

// "fleet.worker.<w>.<rest>" -> family "fleet.<rest>" plus a worker label,
// so every worker's instrument lands in ONE gametrace_fleet_* family
// (e.g. gametrace_fleet_units_run{worker="3"}) instead of a per-worker
// metric name, which is what Prometheus can aggregate across.
bool SplitWorkerMetric(std::string_view name, int& worker, std::string& family) {
  constexpr std::string_view kPrefix = "fleet.worker.";
  if (!name.starts_with(kPrefix)) return false;
  const std::string_view rest = name.substr(kPrefix.size());
  const std::size_t dot = rest.find('.');
  if (dot == 0 || dot == std::string_view::npos || dot + 1 >= rest.size()) return false;
  const std::string_view index = rest.substr(0, dot);
  int value = 0;
  for (const char c : index) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  worker = value;
  family = "fleet.";
  family += rest.substr(dot + 1);
  return true;
}

// One worker-labeled family, samples sorted by worker index (name-sorted
// input interleaves "10" between "1" and "2").
template <typename Value, typename AppendValue>
void AppendWorkerFamilies(
    std::string& out, const std::map<std::string, std::vector<std::pair<int, Value>>>& families,
    const char* type, const AppendValue& append_value) {
  for (const auto& [family, samples] : families) {
    const std::string prom = PrometheusMetricName(family);
    AppendHeader(out, prom, family, type);
    std::vector<std::pair<int, Value>> sorted = samples;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [worker, value] : sorted) {
      out += prom + "{worker=\"" + std::to_string(worker) + "\"} ";
      append_value(out, value);
      out += '\n';
    }
  }
}

}  // namespace

std::string PrometheusMetricName(std::string_view name) {
  std::string out = "gametrace_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
    out += keep ? c : '_';
  }
  return out;
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  std::string out;
  // Worker-labeled samples are collected first and emitted per family
  // after the plain instruments: the registry iterates name-sorted, which
  // interleaves workers within a family, and the exposition format wants
  // all samples of one metric contiguous.
  std::map<std::string, std::vector<std::pair<int, std::uint64_t>>> worker_counters;
  std::map<std::string, std::vector<std::pair<int, double>>> worker_gauges;
  registry.ForEachCounter([&](std::string_view name, const Counter& counter) {
    int worker = 0;
    std::string family;
    if (SplitWorkerMetric(name, worker, family)) {
      worker_counters[family].emplace_back(worker, counter.value());
      return;
    }
    const std::string prom = PrometheusMetricName(name);
    AppendHeader(out, prom, name, "counter");
    out += prom + " " + std::to_string(counter.value()) + "\n";
  });
  AppendWorkerFamilies(out, worker_counters, "counter",
                       [](std::string& text, std::uint64_t value) {
                         text += std::to_string(value);
                       });
  registry.ForEachGauge([&](std::string_view name, const Gauge& gauge) {
    int worker = 0;
    std::string family;
    if (SplitWorkerMetric(name, worker, family)) {
      worker_gauges[family].emplace_back(worker, gauge.value());
      return;
    }
    const std::string prom = PrometheusMetricName(name);
    AppendHeader(out, prom, name, "gauge");
    out += prom + " ";
    AppendPromNumber(out, gauge.value());
    out += '\n';
  });
  AppendWorkerFamilies(out, worker_gauges, "gauge",
                       [](std::string& text, double value) { AppendPromNumber(text, value); });
  registry.ForEachHistogram([&out](std::string_view name, const stats::Histogram& hist) {
    const std::string prom = PrometheusMetricName(name);
    AppendHeader(out, prom, name, "histogram");
    // Buckets are cumulative; underflow mass sits below every bin's right
    // edge, overflow only below +Inf.
    std::uint64_t cumulative = hist.underflow();
    for (std::size_t i = 0; i < hist.bin_count(); ++i) {
      cumulative += hist.count(i);
      out += prom + "_bucket{le=\"";
      const double right_edge =
          i + 1 == hist.bin_count() ? hist.hi() : hist.bin_left(i) + hist.bin_width();
      AppendPromNumber(out, right_edge);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(hist.total()) + "\n";
    // The fixed-bin histogram keeps no exact sample sum; reconstruct one
    // from bin centers, with underflow priced at lo and overflow at hi.
    double approx_sum = static_cast<double>(hist.underflow()) * hist.lo() +
                        static_cast<double>(hist.overflow()) * hist.hi();
    for (std::size_t i = 0; i < hist.bin_count(); ++i) {
      approx_sum += static_cast<double>(hist.count(i)) * hist.bin_center(i);
    }
    out += prom + "_sum ";
    AppendPromNumber(out, approx_sum);
    out += '\n';
    out += prom + "_count " + std::to_string(hist.total()) + "\n";
  });
  registry.ForEachSketch([&out](std::string_view name, const stats::QuantileSketch& sketch) {
    const std::string prom = PrometheusMetricName(name);
    AppendHeader(out, prom, name, "summary");
    for (const double q : {0.5, 0.9, 0.99}) {
      out += prom + "{quantile=\"";
      AppendPromNumber(out, q);
      out += "\"} ";
      AppendPromNumber(out, sketch.Quantile(q));
      out += '\n';
    }
    out += prom + "_sum ";
    AppendPromNumber(out, sketch.sum());
    out += '\n';
    out += prom + "_count " + std::to_string(sketch.count()) + "\n";
  });
  registry.ForEachRing([&out](std::string_view name, const stats::TieredRing& ring) {
    const std::string prom = PrometheusMetricName(name);
    AppendHeader(out, prom + "_tier_mean", name, "gauge");
    for (std::size_t tier = 0; tier < ring.tier_count(); ++tier) {
      out += prom + "_tier_mean{interval=\"";
      AppendPromNumber(out, ring.tier_interval(tier));
      out += "\"} ";
      AppendPromNumber(out, ring.Stats(tier).mean);
      out += '\n';
    }
    AppendHeader(out, prom + "_tier_peak", name, "gauge");
    for (std::size_t tier = 0; tier < ring.tier_count(); ++tier) {
      out += prom + "_tier_peak{interval=\"";
      AppendPromNumber(out, ring.tier_interval(tier));
      out += "\"} ";
      AppendPromNumber(out, ring.Stats(tier).peak);
      out += '\n';
    }
    AppendHeader(out, prom + "_dropped_late", name, "counter");
    out += prom + "_dropped_late " + std::to_string(ring.dropped_late()) + "\n";
    if (const stats::OnlineHurst* hurst = ring.hurst()) {
      AppendHeader(out, prom + "_hurst", name, "gauge");
      out += prom + "_hurst ";
      // NaN until enough scales resolve - idiomatic Prometheus "no data".
      AppendPromNumber(out, hurst->CanEstimate(0.050, 1800.0)
                                ? hurst->HurstEstimate(0.050, 1800.0)
                                : std::nan(""));
      out += '\n';
    }
  });
  return out;
}

void WritePrometheusText(const MetricsRegistry& registry, std::ostream& out) {
  out << ToPrometheusText(registry);
}

}  // namespace gametrace::obs
