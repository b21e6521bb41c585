// Ablation: the paper's self-tuning loss (section IV-A).
//
// "Observed loss rates self-tune themselves at the worst tolerable level
// of performance. Any further degradation ... will simply cause players to
// quit playing, reducing the load back to the tolerable level. ... we
// believe the worst tolerable loss rate for this game is not far from
// 1-2%."
//
// Setup: the busy server behind a purely capacity-limited device (no
// livelock) whose lookup rate sits *below* the offered packet rate, so
// loss is sustained and load-dependent. With QoE disabled the device stays
// saturated; with QoE enabled players quit until the residual loss rate
// lands in the tolerable band.
#include "common.h"

#include "router/device_stats.h"

namespace {

gametrace::core::NatExperimentResult RunVariant(bool qoe, double duration) {
  using namespace gametrace;
  auto cfg = core::NatExperimentConfig::Defaults();
  cfg.game.trace_duration = duration;
  cfg.game.maps.map_duration = duration + 60.0;
  cfg.device.mean_capacity_pps = 780.0;  // below the ~850 pps offered
  cfg.device.episode_mean_interval = 0.0;
  cfg.enable_qoe = qoe;
  const obs::ObsContext ambient = obs::Current();
  obs::ShardScope point(ambient, /*shard_id=*/0);
  const auto bind = point.Bind();
  auto result = core::RunNatExperiment(cfg);
  std::move(point).MergeInto(ambient);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gametrace;
  gametrace::bench::ObsSession obs_session(argc, argv);
  const auto scale = core::ExperimentScale::FromEnv(1800.0);
  bench::PrintScaleBanner("Ablation - QoE self-tuning loss", scale.duration, scale.full);

  const auto without = RunVariant(false, scale.duration);
  const auto with = RunVariant(true, scale.duration);

  const auto report = [](const char* name, const core::NatExperimentResult& r) {
    std::cout << "  " << name << ":\n"
              << "    incoming loss     : "
              << core::FormatDouble(r.device.loss_rate_incoming() * 100.0, 2) << "%\n"
              << "    outgoing loss     : "
              << core::FormatDouble(r.device.loss_rate_outgoing() * 100.0, 2) << "%\n"
              << "    final players     : " << core::FormatDouble(r.players.values().back(), 0)
              << " (mean " << core::FormatDouble(r.players.Mean(), 1) << ")\n"
              << "    QoE quits         : " << r.qoe_quits << "\n";
  };
  std::cout << "\n";
  report("QoE disabled (players tolerate anything)", without);
  report("QoE enabled  (quit above ~1.2-3.5% loss)", with);

  std::cout << "\n# per-minute players, QoE enabled (watch the shedding):\n";
  bench::PrintSeries(std::cout, with.players, "players", 120);

  std::cout << "\nPaper-vs-measured:\n";
  bench::Compare("Players shed load under loss", "yes",
                 with.qoe_quits > 0 && with.players.values().back() <
                                           without.players.values().back()
                     ? "yes"
                     : "NO");
  bench::Compare("Residual loss with QoE", "self-tunes toward the tolerable 1-2%",
                 core::FormatDouble(with.device.loss_rate_incoming() * 100.0, 2) + "% (vs " +
                     core::FormatDouble(without.device.loss_rate_incoming() * 100.0, 2) +
                     "% without)");
  return 0;
}
