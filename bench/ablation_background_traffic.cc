// Ablation: background bulk transfers sharing the game's bottleneck
// (paper section IV-A).
//
// "Any further degradation caused by additional players and/or background
// traffic will simply cause players to quit playing, reducing the load
// back to the tolerable level."
//
// Sweep web-download cross traffic through the same NAT device carrying
// the game: game loss climbs with background load; with QoE enabled the
// players react exactly as the paper predicts.
#include "common.h"

#include "game/qoe.h"
#include "router/device_stats.h"
#include "router/nat_device.h"
#include "sim/simulator.h"
#include "web/web_traffic.h"

namespace {

struct Outcome {
  double game_in_loss = 0.0;
  double web_share = 0.0;  // fraction of forwarded packets that were web
  std::uint64_t quits = 0;
  double final_players = 0.0;
};

Outcome RunMix(double web_flow_rate, bool qoe_enabled, double duration) {
  using namespace gametrace;
  const obs::ObsContext ambient = obs::Current();
  obs::ShardScope point(ambient, /*shard_id=*/0);
  const auto bind = point.Bind();
  sim::Simulator simulator;

  router::NatDevice::Config device;
  device.mean_capacity_pps = 1600.0;  // fine for the game alone
  device.episode_mean_interval = 0.0;
  router::NatDevice nat(simulator, device);

  auto game_cfg = game::GameConfig::ScaledDefaults(duration);
  game_cfg.maps.map_duration = duration + 60.0;
  game::CsServer server(simulator, game_cfg, nat.injector());

  std::uint64_t web_forwarded = 0;
  std::uint64_t total_forwarded = 0;

  std::unique_ptr<game::QoeMonitor> qoe;
  if (qoe_enabled) {
    qoe = std::make_unique<game::QoeMonitor>(
        simulator, game::QoeMonitor::Config{}, sim::Rng(99),
        [&server](net::Ipv4Address ip, std::uint16_t port) {
          server.DisconnectByEndpoint(ip, port, true);
        });
    qoe->Start();
  }

  const auto is_web = [](const net::PacketRecord& r) {
    return r.kind == net::PacketKind::kWebData || r.kind == net::PacketKind::kWebAck;
  };
  nat.SetDeliverCallback([&](const net::PacketRecord& r, router::Segment) {
    ++total_forwarded;
    if (is_web(r)) {
      ++web_forwarded;
      return;
    }
    if (qoe) qoe->OnDelivered(r);
  });
  nat.SetLossCallback([&](const net::PacketRecord& r, router::Segment) {
    if (!is_web(r) && qoe) qoe->OnLost(r);
  });

  std::unique_ptr<web::WebTrafficSource> web_source;
  if (web_flow_rate > 0.0) {
    web::WebConfig web_cfg;
    web_cfg.flow_arrival_rate = web_flow_rate;
    web_source = std::make_unique<web::WebTrafficSource>(simulator, web_cfg, nat.injector());
    web_source->Start();
  }

  nat.Start();
  server.Start();
  router::NatDevice* const devices[] = {&nat};
  core::RunHarnessed(simulator, server, devices, "background_traffic");

  Outcome out;
  const auto in_offered = nat.stats().packets(router::Segment::kClientsToNat);
  const auto in_delivered = nat.stats().packets(router::Segment::kNatToServer);
  out.game_in_loss =
      in_offered > 0
          ? 1.0 - static_cast<double>(in_delivered) / static_cast<double>(in_offered)
          : 0.0;
  out.web_share =
      total_forwarded > 0
          ? static_cast<double>(web_forwarded) / static_cast<double>(total_forwarded)
          : 0.0;
  out.quits = qoe ? qoe->quits_triggered() : 0;
  out.final_players = server.player_series().values().empty()
                          ? 0.0
                          : server.player_series().values().back();
  std::move(point).MergeInto(ambient);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gametrace;
  gametrace::bench::ObsSession obs_session(argc, argv);
  const auto scale = core::ExperimentScale::FromEnv(600.0);
  bench::PrintScaleBanner("Ablation - background bulk transfers on the bottleneck",
                          scale.duration, scale.full);

  std::cout << "\n  web flows/s | in-loss (all) | web pkt share | QoE quits | final players\n";
  for (const double rate : {0.0, 0.5, 1.5, 3.0}) {
    const Outcome plain = RunMix(rate, /*qoe=*/false, scale.duration);
    const Outcome tuned = RunMix(rate, /*qoe=*/true, scale.duration);
    std::cout << "  " << core::FormatDouble(rate, 1) << "         |    "
              << core::FormatDouble(plain.game_in_loss * 100.0, 2) << "%      |     "
              << core::FormatDouble(plain.web_share * 100.0, 1) << "%     |    "
              << tuned.quits << "      |      " << core::FormatDouble(tuned.final_players, 0)
              << "\n";
  }

  std::cout <<
      "\nExpected: with no cross traffic the 1.6 kpps device carries the game\n"
      "cleanly; as web downloads share the lookup path, inbound loss climbs\n"
      "and (QoE columns) players quit until the load fits - the paper's\n"
      "self-tuning under \"background traffic\".\n";
  return 0;
}
