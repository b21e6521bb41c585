#include "game/config.h"

#include <cmath>
#include <stdexcept>

#include "core/check.h"

namespace gametrace::game {

namespace {

enum class Rule { kFinite, kPositive, kNonNegative, kProbability };

// One numeric tunable (or a relation between two, as a difference or a sum)
// and the rule its value must satisfy.
struct FieldRule {
  const char* name;
  double (*value)(const GameConfig&);
  Rule rule;
};

// `expr` reads the value from the config `c`; `name` is how a failure
// names it.
#define GT_RULE(name, expr, rule) \
  FieldRule { name, [](const GameConfig& c) { return static_cast<double>(expr); }, Rule::rule }
#define GT_FIELD(field, rule) GT_RULE(#field, c.field, rule)

constexpr FieldRule kFieldRules[] = {
    GT_FIELD(max_players, kPositive),
    GT_FIELD(tick_interval, kPositive),
    GT_FIELD(broadcast_spread, kProbability),
    GT_FIELD(server_link_bps, kNonNegative),
    GT_FIELD(trace_duration, kPositive),

    GT_FIELD(sizes.inbound_mean, kFinite),
    GT_FIELD(sizes.inbound_stddev, kNonNegative),
    GT_RULE("sizes.inbound_max - sizes.inbound_min",
            c.sizes.inbound_max - c.sizes.inbound_min, kNonNegative),
    GT_FIELD(sizes.outbound_base, kFinite),
    GT_FIELD(sizes.outbound_per_player, kFinite),
    GT_FIELD(sizes.outbound_stddev, kNonNegative),
    GT_RULE("sizes.outbound_max - sizes.outbound_min",
            c.sizes.outbound_max - c.sizes.outbound_min, kNonNegative),
    GT_FIELD(sizes.chat_probability, kProbability),
    GT_FIELD(sizes.chat_mean, kFinite),
    GT_FIELD(sizes.chat_stddev, kNonNegative),
    // Chat payloads share the outbound floor.
    GT_RULE("sizes.chat_max - sizes.outbound_min", c.sizes.chat_max - c.sizes.outbound_min,
            kNonNegative),

    GT_FIELD(clients.broadband_fraction, kProbability),
    GT_FIELD(clients.l337_fraction, kProbability),
    GT_RULE("clients.broadband_fraction + clients.l337_fraction",
            c.clients.broadband_fraction + c.clients.l337_fraction, kProbability),
    GT_FIELD(clients.modem_rate_mean, kPositive),
    GT_FIELD(clients.modem_rate_stddev, kNonNegative),
    GT_FIELD(clients.broadband_rate_mean, kPositive),
    GT_FIELD(clients.broadband_rate_stddev, kNonNegative),
    GT_FIELD(clients.l337_rate_mean, kPositive),
    GT_FIELD(clients.l337_rate_stddev, kNonNegative),
    GT_FIELD(clients.l337_snapshots_per_tick, kPositive),
    GT_FIELD(clients.send_jitter, kProbability),

    GT_FIELD(sessions.fresh_attempt_rate, kPositive),
    GT_FIELD(sessions.group_mean_extra, kNonNegative),
    GT_FIELD(sessions.mean_duration, kPositive),
    GT_FIELD(sessions.duration_stddev, kNonNegative),
    GT_FIELD(sessions.min_duration, kNonNegative),
    GT_FIELD(sessions.population, kPositive),
    GT_FIELD(sessions.zipf_s, kNonNegative),
    GT_FIELD(sessions.initial_players, kNonNegative),
    GT_FIELD(sessions.retry_probability, kProbability),
    GT_FIELD(sessions.retry_mean_delay, kPositive),
    GT_FIELD(sessions.max_retries, kNonNegative),

    GT_FIELD(maps.map_duration, kPositive),
    GT_FIELD(maps.changeover_stall_mean, kNonNegative),
    GT_FIELD(maps.changeover_stall_jitter, kNonNegative),
    GT_FIELD(maps.round_mean_duration, kPositive),
    GT_FIELD(maps.round_min_duration, kNonNegative),
    GT_FIELD(maps.buy_time, kNonNegative),
    GT_FIELD(maps.buy_time_activity, kProbability),

    GT_FIELD(downloads.join_probability, kProbability),
    GT_FIELD(downloads.map_change_probability, kProbability),
    GT_FIELD(downloads.mean_bytes, kPositive),
    GT_FIELD(downloads.stddev_bytes, kNonNegative),
    GT_FIELD(downloads.min_bytes, kNonNegative),
    GT_FIELD(downloads.rate_limit_bps, kPositive),
    GT_FIELD(downloads.chunk_min, kPositive),
    GT_RULE("downloads.chunk_max - downloads.chunk_min",
            c.downloads.chunk_max - c.downloads.chunk_min, kNonNegative),

    GT_FIELD(outages.duration, kNonNegative),
    GT_FIELD(outages.immediate_reconnect_fraction, kProbability),
    GT_FIELD(outages.delayed_reconnect_fraction, kProbability),
    GT_RULE("outages.immediate_reconnect_fraction + outages.delayed_reconnect_fraction",
            c.outages.immediate_reconnect_fraction + c.outages.delayed_reconnect_fraction,
            kProbability),
    GT_FIELD(outages.delayed_reconnect_mean, kPositive),
};

#undef GT_FIELD
#undef GT_RULE

bool Holds(Rule rule, double v) {
  switch (rule) {
    case Rule::kFinite:
      return std::isfinite(v);
    case Rule::kPositive:
      return std::isfinite(v) && v > 0.0;
    case Rule::kNonNegative:
      return std::isfinite(v) && v >= 0.0;
    case Rule::kProbability:
      return v >= 0.0 && v <= 1.0;
  }
  return false;
}

const char* Describe(Rule rule) {
  switch (rule) {
    case Rule::kFinite:
      return "finite";
    case Rule::kPositive:
      return "finite and > 0";
    case Rule::kNonNegative:
      return "finite and >= 0";
    case Rule::kProbability:
      return "in [0, 1]";
  }
  return "";
}

}  // namespace

void GameConfig::Validate() const {
  for (const FieldRule& field : kFieldRules) {
    const double v = field.value(*this);
    GT_CHECK(Holds(field.rule, v)) << "GameConfig: " << field.name << " must be "
                                   << Describe(field.rule) << " (got " << v << ")";
  }
  for (std::size_t i = 0; i < outages.times.size(); ++i) {
    GT_CHECK(Holds(Rule::kNonNegative, outages.times[i]))
        << "GameConfig: outages.times[" << i << "] must be " << Describe(Rule::kNonNegative)
        << " (got " << outages.times[i] << ")";
  }
}

GameConfig GameConfig::PaperDefaults() {
  GameConfig cfg;
  cfg.diurnal = sim::DiurnalCurve::BusyServerDefault();
  // The trace started "Thu Apr 11 08:55:04": t = 0 is 08:55 local, so
  // scaled (shorter) runs sample daytime hours, not the overnight trough.
  cfg.diurnal.set_phase_offset(8.0 * 3600.0 + 55.0 * 60.0);
  // The paper's outages fell on April 12, 14 and 17 of an April 11-18 trace:
  // roughly 1.1, 3.4 and 6.2 days in.
  cfg.outages.times = {1.1 * 86400.0, 3.4 * 86400.0, 6.2 * 86400.0};
  return cfg;
}

GameConfig GameConfig::ScaledDefaults(double duration_seconds) {
  GT_CHECK(duration_seconds > 0.0) << "GameConfig::ScaledDefaults: duration must be positive";
  GameConfig cfg = PaperDefaults();
  const double scale = duration_seconds / cfg.trace_duration;
  for (auto& t : cfg.outages.times) t *= scale;
  // Drop outages that would land inside the first map (short runs would be
  // dominated by the reconnect transient otherwise).
  std::erase_if(cfg.outages.times,
                [&](double t) { return t < cfg.maps.map_duration || t >= duration_seconds; });
  cfg.trace_duration = duration_seconds;
  return cfg;
}

}  // namespace gametrace::game
