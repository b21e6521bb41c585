// Prometheus exposition tests: a small in-test parser of the text format
// (0.0.4) round-trips a registry and vouches for name sanitization, HELP /
// TYPE metadata, and the cumulative-bucket histogram mapping.
#include "obs/prom.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stats/histogram.h"

namespace gametrace::obs {
namespace {

struct PromSample {
  std::string name;                          // metric name, label-free
  std::map<std::string, std::string> labels;  // e.g. {"le": "25"}
  double value = 0.0;
};

struct PromDocument {
  std::map<std::string, std::string> types;  // name -> "counter" | ...
  std::map<std::string, std::string> help;
  std::vector<PromSample> samples;

  [[nodiscard]] const PromSample& Only(const std::string& name) const {
    const PromSample* found = nullptr;
    for (const auto& sample : samples) {
      if (sample.name != name) continue;
      EXPECT_EQ(found, nullptr) << "duplicate sample for " << name;
      found = &sample;
    }
    if (found == nullptr) throw std::runtime_error("no sample named " + name);
    return *found;
  }

  [[nodiscard]] std::vector<PromSample> All(const std::string& name) const {
    std::vector<PromSample> out;
    for (const auto& sample : samples) {
      if (sample.name == name) out.push_back(sample);
    }
    return out;
  }
};

double ParsePromValue(const std::string& token) {
  if (token == "+Inf") return HUGE_VAL;
  if (token == "-Inf") return -HUGE_VAL;
  if (token == "NaN") return NAN;
  std::size_t used = 0;
  const double value = std::stod(token, &used);
  EXPECT_EQ(used, token.size()) << "trailing garbage in value " << token;
  return value;
}

// Strict enough for the subset the exporter emits: "name value",
// "name{key=\"value\"} value", and "# HELP/TYPE name ..." comments. Void
// so the ASSERT_* macros can bail out of a malformed document.
void ParsePromTextInto(const std::string& text, PromDocument& doc) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, kind, name;
      meta >> hash >> kind >> name;
      std::string rest;
      std::getline(meta, rest);
      if (kind == "TYPE") {
        doc.types[name] = rest.substr(1);
      } else {
        ASSERT_EQ(kind, "HELP") << "unknown comment: " << line;
        doc.help[name] = rest.substr(1);
      }
      continue;
    }
    PromSample sample;
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << "malformed line: " << line;
    sample.name = line.substr(0, name_end);
    std::size_t pos = name_end;
    if (line[pos] == '{') {
      const std::size_t close = line.find('}', pos);
      ASSERT_NE(close, std::string::npos) << "unclosed labels: " << line;
      std::string labels = line.substr(pos + 1, close - pos - 1);
      while (!labels.empty()) {
        const std::size_t eq = labels.find('=');
        ASSERT_NE(eq, std::string::npos) << "bad label pair: " << labels;
        const std::string key = labels.substr(0, eq);
        ASSERT_EQ(labels[eq + 1], '"');
        const std::size_t quote = labels.find('"', eq + 2);
        ASSERT_NE(quote, std::string::npos);
        sample.labels[key] = labels.substr(eq + 2, quote - eq - 2);
        labels = quote + 1 < labels.size() && labels[quote + 1] == ','
                     ? labels.substr(quote + 2)
                     : labels.substr(quote + 1);
      }
      pos = close + 1;
    }
    ASSERT_EQ(line[pos], ' ') << "missing value separator: " << line;
    sample.value = ParsePromValue(line.substr(pos + 1));
    doc.samples.push_back(std::move(sample));
  }
}

TEST(Prom, MetricNamesAreSanitizedAndPrefixed) {
  EXPECT_EQ(PrometheusMetricName("server.packets_emitted"),
            "gametrace_server_packets_emitted");
  EXPECT_EQ(PrometheusMetricName("router.queue-depth"), "gametrace_router_queue_depth");
  EXPECT_EQ(PrometheusMetricName("weird metric!"), "gametrace_weird_metric_");
  EXPECT_EQ(PrometheusMetricName("Already_OK_42"), "gametrace_Already_OK_42");
}

TEST(Prom, CountersAndGaugesRoundTrip) {
  MetricsRegistry registry;
  registry.counter("server.packets_emitted").Add(12345);
  registry.gauge("server.peak_players", Gauge::MergeMode::kMax).Set(21.5);

  PromDocument doc;
  ParsePromTextInto(ToPrometheusText(registry), doc);

  EXPECT_EQ(doc.types.at("gametrace_server_packets_emitted"), "counter");
  EXPECT_EQ(doc.Only("gametrace_server_packets_emitted").value, 12345.0);
  EXPECT_EQ(doc.types.at("gametrace_server_peak_players"), "gauge");
  EXPECT_EQ(doc.Only("gametrace_server_peak_players").value, 21.5);
  // HELP preserves the source instrument name for traceability.
  EXPECT_EQ(doc.help.at("gametrace_server_packets_emitted"),
            "gametrace instrument server.packets_emitted");
}

TEST(Prom, HistogramMapsToCumulativeBuckets) {
  MetricsRegistry registry;
  stats::Histogram& hist = registry.histogram("net.size", 0.0, 100.0, 4);
  // Bins of width 25: [0,25) [25,50) [50,75) [75,100), plus out-of-range.
  hist.Add(-5.0);   // underflow
  hist.Add(10.0);   // bin 0
  hist.Add(30.0);   // bin 1
  hist.Add(30.0);   // bin 1
  hist.Add(80.0);   // bin 3
  hist.Add(150.0);  // overflow

  PromDocument doc;
  ParsePromTextInto(ToPrometheusText(registry), doc);
  EXPECT_EQ(doc.types.at("gametrace_net_size"), "histogram");

  const auto buckets = doc.All("gametrace_net_size_bucket");
  ASSERT_EQ(buckets.size(), 5u);
  // Cumulative counts; underflow mass sits below every finite edge.
  EXPECT_EQ(buckets[0].labels.at("le"), "25");
  EXPECT_EQ(buckets[0].value, 2.0);  // underflow + bin 0
  EXPECT_EQ(buckets[1].labels.at("le"), "50");
  EXPECT_EQ(buckets[1].value, 4.0);
  EXPECT_EQ(buckets[2].labels.at("le"), "75");
  EXPECT_EQ(buckets[2].value, 4.0);
  EXPECT_EQ(buckets[3].labels.at("le"), "100");
  EXPECT_EQ(buckets[3].value, 5.0);
  // Overflow only appears under +Inf, which equals _count.
  EXPECT_EQ(buckets[4].labels.at("le"), "+Inf");
  EXPECT_EQ(buckets[4].value, 6.0);
  EXPECT_EQ(doc.Only("gametrace_net_size_count").value, 6.0);

  // The approximate _sum prices samples at bin centers (underflow at lo,
  // overflow at hi): 0 + 12.5 + 37.5 + 37.5 + 87.5 + 100 = 275.
  EXPECT_EQ(doc.Only("gametrace_net_size_sum").value, 275.0);
}

TEST(Prom, EmptyRegistryYieldsEmptyExposition) {
  EXPECT_EQ(ToPrometheusText(MetricsRegistry{}), "");
}

// Per-worker scheduler instruments collapse into one labeled family:
// fleet.worker.<w>.<rest> renders as gametrace_fleet_<rest>{worker="<w>"}
// with a single HELP/TYPE header per family and the samples sorted by
// worker number (numeric, so worker 10 follows worker 2).
TEST(Prom, WorkerMetricsBecomeLabeledFamilies) {
  MetricsRegistry registry;
  registry.counter("fleet.worker.0.units_run").Add(3);
  registry.counter("fleet.worker.2.units_run").Add(5);
  registry.counter("fleet.worker.10.units_run").Add(7);
  registry.gauge("fleet.worker.1.span_ns").Set(123.0);
  registry.counter("fleet.scheduler.merged_units").Add(9);  // not per-worker

  const std::string text = ToPrometheusText(registry);
  PromDocument doc;
  ParsePromTextInto(text, doc);

  const auto units_run = doc.All("gametrace_fleet_units_run");
  ASSERT_EQ(units_run.size(), 3u);
  EXPECT_EQ(units_run[0].labels.at("worker"), "0");
  EXPECT_EQ(units_run[0].value, 3.0);
  EXPECT_EQ(units_run[1].labels.at("worker"), "2");
  EXPECT_EQ(units_run[2].labels.at("worker"), "10");
  EXPECT_EQ(units_run[2].value, 7.0);
  EXPECT_EQ(doc.types.at("gametrace_fleet_units_run"), "counter");
  // Exactly one TYPE header for the whole family.
  const std::string header = "# TYPE gametrace_fleet_units_run counter";
  EXPECT_EQ(text.find(header), text.rfind(header));

  // Per-worker gauges use the same seam.
  const auto span = doc.All("gametrace_fleet_span_ns");
  ASSERT_EQ(span.size(), 1u);
  EXPECT_EQ(span[0].labels.at("worker"), "1");
  EXPECT_EQ(span[0].value, 123.0);

  // Non-worker scheduler metrics keep their plain names and no label.
  EXPECT_TRUE(doc.Only("gametrace_fleet_scheduler_merged_units").labels.empty());
}

TEST(Prom, OutputIsDeterministicAndNameSorted) {
  auto build = [] {
    MetricsRegistry registry;
    registry.counter("b.second").Add(2);
    registry.counter("a.first").Add(1);
    registry.gauge("z.gauge").Set(3.0);
    return registry;
  };
  const std::string text = ToPrometheusText(build());
  EXPECT_EQ(text, ToPrometheusText(build()));
  // Registry iteration is name-sorted, so a.first serializes before
  // b.second regardless of registration order.
  EXPECT_LT(text.find("gametrace_a_first"), text.find("gametrace_b_second"));

  std::ostringstream streamed;
  WritePrometheusText(build(), streamed);
  EXPECT_EQ(streamed.str(), text);
}

}  // namespace
}  // namespace gametrace::obs
