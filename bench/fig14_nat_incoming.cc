// Figure 14: per-second incoming packet load through the NAT device -
// (a) clients -> NAT, (b) NAT -> server.
//
// Paper shape: the offered load (a) is relatively stable; the delivered
// load (b) shows frequent drop-outs where the device stops forwarding.
#include <cmath>

#include "common.h"

#include "router/device_stats.h"

int main(int argc, char** argv) {
  using namespace gametrace;
  gametrace::bench::ObsSession obs_session(argc, argv);
  auto config = core::NatExperimentConfig::Defaults();
  const auto scale = core::ExperimentScale::FromEnv(config.game.trace_duration);
  if (scale.duration != config.game.trace_duration && !scale.full) {
    config.game.trace_duration = scale.duration;
    config.game.maps.map_duration = scale.duration + 60.0;
  }
  const auto result = core::RunNatExperiment(config);
  bench::PrintScaleBanner("Figure 14 - NAT incoming packet load",
                          config.game.trace_duration, /*full=*/true);

  const auto& offered = result.device.load_series(router::Segment::kClientsToNat);
  const auto& delivered = result.device.load_series(router::Segment::kNatToServer);
  bench::PrintSeries(std::cout, offered, "(a) clients -> NAT (pkts/sec)", 600);
  bench::PrintSeries(std::cout, delivered, "(b) NAT -> server (pkts/sec)", 600);

  // Drop-out accounting: seconds where delivery fell far below offer.
  int dropouts = 0;
  for (std::size_t i = 0; i < delivered.size() && i < offered.size(); ++i) {
    if (offered[i] > 100.0 && delivered[i] < 0.6 * offered[i]) ++dropouts;
  }
  std::cout << "\nPaper-vs-measured:\n";
  bench::Compare("Offered load stability (cv)", "relatively stable",
                 core::FormatDouble(std::sqrt(offered.Variance()) / offered.Mean(), 3));
  bench::Compare("NAT->server drop-outs", "frequent",
                 std::to_string(dropouts) + " seconds with >40% shortfall");
  return 0;
}
