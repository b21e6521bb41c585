#include "obs/watchdog.h"

#include <algorithm>
#include <ostream>

#include "obs/trace_log.h"

namespace gametrace::obs {

std::vector<SloRule> WatchdogEngine::BuiltinRules() {
  std::vector<SloRule> rules;
  rules.push_back(SloRule{
      .name = "client.bandwidth.saturation",
      .metric = "server.bytes_to_clients",
      .signal = SloRule::Signal::kCounterRatePerSecond,
      .direction = SloRule::Direction::kAbove,
      .threshold = 56000.0,
      .scale = 8.0,  // bytes/s -> bits/s
      .divide_by_gauge = "server.active_players",
      .description = "per-client downstream bandwidth above the 56k modem ceiling "
                     "(Fig 11 puts healthy play at 33-40 kbps/player)",
  });
  rules.push_back(SloRule{
      .name = "nat.meltdown",
      .metric = "nat.device.packets",
      .signal = SloRule::Signal::kCounterRatePerSecond,
      .direction = SloRule::Direction::kAbove,
      .threshold = 850.0,
      .description = "offered load into the NAT device above the ~850 pps meltdown "
                     "threshold (Table IV)",
  });
  rules.push_back(SloRule{
      .name = "server.refusals.spike",
      .metric = "server.connections.refused",
      .signal = SloRule::Signal::kCounterRatePerSecond,
      .direction = SloRule::Direction::kAbove,
      .threshold = 0.25,
      .description = "connection refusals against the 22-slot cap arriving faster "
                     "than one per four seconds (Table III)",
  });
  rules.push_back(SloRule{
      .name = "sim.queue.growth",
      .metric = "sim.queue.high_water",
      .signal = SloRule::Signal::kGaugeDelta,
      .direction = SloRule::Direction::kAbove,
      .threshold = 1024.0,
      .description = "event-queue high-water mark grew by more than 1024 entries "
                     "in one sampling period",
  });
  rules.push_back(SloRule{
      .name = "client.bandwidth.p99",
      .metric = "client.bandwidth.kbps",
      .signal = SloRule::Signal::kSketchQuantile,
      .direction = SloRule::Direction::kAbove,
      .threshold = 56.0,
      .quantile = 0.99,
      .description = "p99 per-client downstream bandwidth (per-minute windows) "
                     "above the 56 kbps modem ceiling (Fig 11) - the mean can sit "
                     "at 33-40 kbps while the tail saturates",
  });
  rules.push_back(SloRule{
      .name = "server.load.selfsimilar",
      .metric = "server.load.pps",
      .signal = SloRule::Signal::kRingHurstMid,
      .direction = SloRule::Direction::kAbove,
      .threshold = 0.9,
      .description = "mid-scale Hurst estimate of the server packet-load ring "
                     "above 0.9: long-range dependence stronger than the paper's "
                     "trace, so mean-based provisioning will underestimate bursts "
                     "(Fig 5)",
  });
  return rules;
}

std::vector<SloRule> WatchdogEngine::SchedulerRules() {
  std::vector<SloRule> rules;
  rules.push_back(SloRule{
      .name = "fleet.worker.imbalance",
      .metric = "fleet.critpath.imbalance_ratio",
      .signal = SloRule::Signal::kGaugeValue,
      .direction = SloRule::Direction::kAbove,
      .threshold = 1.5,
      .description = "peak worker busy-ratio more than 1.5x the fleet mean: the "
                     "makespan is set by straggler units, not total work - check "
                     "the shard cost skew configure_shard introduces",
  });
  rules.push_back(SloRule{
      .name = "fleet.admission.stall",
      .metric = "fleet.critpath.admission_stall_fraction",
      .signal = SloRule::Signal::kGaugeValue,
      .direction = SloRule::Direction::kAbove,
      .threshold = 0.25,
      .description = "more than 25% of summed worker wall-clock spent blocked on "
                     "the reduction admission window: a straggler unit holds the "
                     "merge cursor - check the shard cost skew configure_shard "
                     "introduces",
  });
  return rules;
}

void WatchdogEngine::Observe(const FlightRecorder::Snapshot* previous,
                             const FlightRecorder::Snapshot& current) {
  const double previous_t = previous != nullptr ? previous->t_seconds : 0.0;
  for (const SloRule& rule : rules_) {
    double value = 0.0;
    switch (rule.signal) {
      case SloRule::Signal::kGaugeValue:
        value = current.metrics.gauge_value(rule.metric);
        break;
      case SloRule::Signal::kGaugeDelta:
        value = current.metrics.gauge_value(rule.metric) -
                (previous != nullptr ? previous->metrics.gauge_value(rule.metric) : 0.0);
        break;
      case SloRule::Signal::kCounterDelta:
      case SloRule::Signal::kCounterRatePerSecond: {
        const std::uint64_t now = current.metrics.counter_value(rule.metric);
        const std::uint64_t before =
            previous != nullptr ? previous->metrics.counter_value(rule.metric) : 0;
        // A counter can only shrink across snapshots if the stream mixes
        // unrelated runs; read that as "no progress" rather than alerting
        // on a huge unsigned wraparound.
        const double delta = now >= before ? static_cast<double>(now - before) : 0.0;
        if (rule.signal == SloRule::Signal::kCounterDelta) {
          value = delta;
        } else {
          const double dt = current.t_seconds - previous_t;
          if (dt <= 0.0) continue;  // no elapsed sim time: rate undefined
          value = delta / dt;
        }
        break;
      }
      case SloRule::Signal::kSketchQuantile: {
        const stats::QuantileSketch* sketch = current.metrics.find_sketch(rule.metric);
        if (sketch == nullptr || sketch->empty()) continue;
        value = sketch->Quantile(rule.quantile);
        break;
      }
      case SloRule::Signal::kRingHurstMid: {
        const stats::TieredRing* ring = current.metrics.find_ring(rule.metric);
        const stats::OnlineHurst* hurst = ring != nullptr ? ring->hurst() : nullptr;
        // Stay silent until enough scales have resolved; the 0.5 fallback
        // would make a kBelow rule fire on an empty ring.
        if (hurst == nullptr || !hurst->CanEstimate(0.050, 1800.0)) continue;
        value = hurst->HurstEstimate(0.050, 1800.0);
        break;
      }
    }
    value *= rule.scale;
    if (!rule.divide_by_gauge.empty()) {
      const double denominator = current.metrics.gauge_value(rule.divide_by_gauge);
      if (denominator <= 0.0) continue;  // nothing to normalize by (e.g. zero players)
      value /= denominator;
    }
    const bool fired = rule.direction == SloRule::Direction::kAbove ? value > rule.threshold
                                                                    : value < rule.threshold;
    if (!fired) continue;
    alerts_.push_back(Alert{
        .t_seconds = current.t_seconds,
        .rule = rule.name,
        .value = value,
        .threshold = rule.threshold,
        .description = rule.description,
    });
  }
}

void WatchdogEngine::CatchUp(const FlightRecorder& recorder) {
  const std::uint64_t total = recorder.total_samples();
  if (cursor_ >= total) return;
  const std::uint64_t first_held = recorder.evicted();
  // Snapshots evicted before we ever saw them are gone for good; resume at
  // the oldest one still held.
  std::uint64_t sequence = std::max(cursor_, first_held);
  for (; sequence < total; ++sequence) {
    const std::size_t index = static_cast<std::size_t>(sequence - first_held);
    // The previous snapshot may itself have been evicted (sequence ==
    // first_held > 0); fall back to the zero baseline, which delta rules
    // tolerate by design.
    const FlightRecorder::Snapshot* previous =
        index > 0 ? &recorder.at(index - 1) : nullptr;
    Observe(previous, recorder.at(index));
  }
  cursor_ = total;
}

void WatchdogEngine::DumpInto(MetricsRegistry& registry) const {
  for (const Alert& alert : alerts_) {
    registry.counter("alert." + alert.rule).Add();
  }
}

void WatchdogEngine::DumpInto(TraceLog& trace) const {
  for (const Alert& alert : alerts_) {
    trace.Instant("alert." + alert.rule, "alert", alert.t_seconds);
  }
}

void AppendAlertJson(std::string& out, const Alert& alert) {
  out += "{\"t\": ";
  AppendJsonNumber(out, alert.t_seconds);
  out += ", \"rule\": ";
  AppendJsonString(out, alert.rule);
  out += ", \"value\": ";
  AppendJsonNumber(out, alert.value);
  out += ", \"threshold\": ";
  AppendJsonNumber(out, alert.threshold);
  out += ", \"description\": ";
  AppendJsonString(out, alert.description);
  out += '}';
}

std::string WatchdogEngine::ToJsonl() const {
  std::string out;
  for (const Alert& alert : alerts_) {
    AppendAlertJson(out, alert);
    out += '\n';
  }
  return out;
}

void WatchdogEngine::WriteJsonl(std::ostream& out) const { out << ToJsonl(); }

}  // namespace gametrace::obs
