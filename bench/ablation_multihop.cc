// Ablation: provisioning several hops deep (paper section IV-A).
//
// "Even mid-range routers or firewalls within several hops of large hosted
// on-line game servers will need to be carefully provisioned to minimize
// both the loss and delay induced by routing extremely small packets."
//
// Drive the full game workload through chains of 1-4 identical mid-range
// devices and sweep their per-packet capacity: loss appears as soon as any
// hop's burst absorption is marginal, and the 50 ms burst pays queueing
// delay at *every* hop.
#include "common.h"

#include <vector>

#include "router/topology.h"
#include "sim/simulator.h"

namespace {

struct Outcome {
  double loss_out = 0.0;
  double loss_in = 0.0;
  double mean_delay_ms = 0.0;
  double max_delay_ms = 0.0;
};

Outcome RunChain(int hops, double capacity_pps, std::size_t buffers, double duration) {
  using namespace gametrace;
  const obs::ObsContext ambient = obs::Current();
  obs::ShardScope point(ambient, /*shard_id=*/0);
  const auto bind = point.Bind();
  sim::Simulator simulator;
  router::DeviceChain::Config cfg;
  for (int i = 0; i < hops; ++i) {
    router::NatDevice::Config hop;
    hop.mean_capacity_pps = capacity_pps;
    hop.lan_buffer = buffers;
    hop.wan_buffer = buffers;
    hop.episode_mean_interval = 0.0;  // clean devices: queueing only
    hop.seed = 100 + static_cast<std::uint64_t>(i);
    cfg.hops.push_back(hop);
  }
  router::DeviceChain chain(simulator, cfg);
  auto game = game::GameConfig::ScaledDefaults(duration);
  game::CsServer server(simulator, game, chain.injector());
  chain.Start();
  server.Start();
  std::vector<router::NatDevice*> devices;
  for (std::size_t i = 0; i < chain.hop_count(); ++i) devices.push_back(&chain.hop(i));
  core::RunHarnessed(simulator, server, devices, "multihop");

  Outcome out;
  out.loss_out = chain.end_to_end().loss_rate_out();
  out.loss_in = chain.end_to_end().loss_rate_in();
  out.mean_delay_ms = chain.end_to_end().delay_out.mean() * 1e3;
  out.max_delay_ms = chain.end_to_end().delay_out.max() * 1e3;
  std::move(point).MergeInto(ambient);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gametrace;
  gametrace::bench::ObsSession obs_session(argc, argv);
  const auto scale = core::ExperimentScale::FromEnv(120.0);
  bench::PrintScaleBanner("Ablation - loss/delay across multiple hops", scale.duration,
                          scale.full);

  std::cout << "\n  capacity  buffers  hops |  out loss   in loss   mean delay   max delay\n";
  for (const double capacity : {2000.0, 5000.0}) {
    for (const std::size_t buffers : {16u, 64u}) {
      for (const int hops : {1, 2, 4}) {
        const Outcome o = RunChain(hops, capacity, buffers, scale.duration);
        std::cout << "  " << core::FormatDouble(capacity, 0) << " pps   " << buffers
                  << (buffers < 100 ? "       " : "      ") << hops << "    |   "
                  << core::FormatDouble(o.loss_out * 100.0, 2) << "%     "
                  << core::FormatDouble(o.loss_in * 100.0, 2) << "%      "
                  << core::FormatDouble(o.mean_delay_ms, 2) << " ms     "
                  << core::FormatDouble(o.max_delay_ms, 1) << " ms\n";
      }
    }
  }

  std::cout <<
      "\nObserved mechanics: with shallow buffers the ~20-packet broadcast burst\n"
      "loses its tail at the FIRST marginal hop - which thereby shapes the\n"
      "burst, so identical downstream hops add little further loss - while\n"
      "queueing delay accumulates at EVERY hop regardless of buffering. Deep\n"
      "buffers trade the loss away for per-hop delay: exactly the paper's\n"
      "warning that \"adding buffers will add an unacceptable level of delay\"\n"
      "once several such devices sit within a few hops of the server.\n";
  return 0;
}
