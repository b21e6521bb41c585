// Ablation (DESIGN.md section 5, claims 1-2): where does the paper's
// variance-time shape come from?
//
//  - Desynchronising the broadcast (spreading each client's update across
//    the tick) must destroy the sub-50 ms anti-persistence (H_small rises
//    toward 1/2) and the Figure 6 spike pattern.
//  - Disabling map rotation must flatten the 50 ms - 30 min region
//    (H_mid falls toward 1/2).
#include "common.h"

#include "trace/aggregator.h"

namespace {

struct Variant {
  const char* name;
  double spread;
  bool rotate_maps;
};

struct Outcome {
  double h_small;
  double h_mid;
  double burst_ratio;  // mean outgoing load in on-tick bins / off-tick bins
};

Outcome RunVariant(const Variant& variant, double duration) {
  using namespace gametrace;
  auto cfg = game::GameConfig::ScaledDefaults(duration);
  cfg.broadcast_spread = variant.spread;
  if (!variant.rotate_maps) cfg.maps.map_duration = duration + 120.0;

  const obs::ObsContext ambient = obs::Current();
  obs::ShardScope point(ambient, /*shard_id=*/0);
  const auto bind = point.Bind();
  core::CharacterizationOptions options;
  options.vt_window = duration;
  core::Characterizer characterizer(options);
  trace::LoadAggregator fine(0.010);
  trace::TeeSink tee;
  tee.Attach(characterizer);
  tee.Attach(fine);
  core::RunServerTrace(cfg, tee);
  const auto report = characterizer.Finish(duration);

  Outcome out{};
  out.h_small = report.hurst.small_scale;
  out.h_mid = report.hurst.mid_scale;
  const auto& series = fine.packets_out();
  double on = 0.0;
  double off = 0.0;
  std::size_t on_n = 0;
  std::size_t off_n = 0;
  for (std::size_t i = 100; i < series.size() && i < 100000; ++i) {
    if (i % 5 == 0) {
      on += series[i];
      ++on_n;
    } else {
      off += series[i];
      ++off_n;
    }
  }
  out.burst_ratio = (off > 0.0 && on_n > 0) ? (on / on_n) / (off / off_n) : 0.0;
  std::move(point).MergeInto(ambient);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gametrace;
  gametrace::bench::ObsSession obs_session(argc, argv);
  const auto scale = core::ExperimentScale::FromEnv(7200.0);
  bench::PrintScaleBanner("Ablation - broadcast synchrony and map rotation", scale.duration,
                          scale.full);

  const Variant variants[] = {
      {"baseline (synchronous, 30-min maps)", 0.0, true},
      {"desynchronised broadcast", 1.0, true},
      {"no map rotation", 0.0, false},
  };

  std::cout << "\n  variant                               H(<50ms)  H(50ms-30min)  on/off burst ratio\n";
  for (const auto& variant : variants) {
    const Outcome out = RunVariant(variant, scale.duration);
    std::cout << "  " << variant.name;
    for (std::size_t pad = std::string(variant.name).size(); pad < 38; ++pad) std::cout << ' ';
    std::cout << core::FormatDouble(out.h_small, 2) << "      " << core::FormatDouble(out.h_mid, 2)
              << "           " << core::FormatDouble(out.burst_ratio, 1) << "\n";
  }

  std::cout <<
      "\nExpected: the baseline shows H(<50ms) << 1/2 and a large burst ratio;\n"
      "desynchronising raises H(<50ms) toward 1/2 and collapses the ratio to ~1;\n"
      "removing map rotation pulls H(50ms-30min) down toward 1/2.\n";
  return 0;
}
