#include "router/nat_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "game/config.h"
#include "game/cs_server.h"
#include "net/packet_batch.h"
#include "obs/metrics.h"

namespace gametrace::router {
namespace {

net::PacketRecord MakeRecord(double t, net::Direction dir, std::uint16_t bytes = 100,
                             std::uint32_t ip = 0x0A000001, std::uint16_t port = 27005) {
  net::PacketRecord r;
  r.timestamp = t;
  r.client_ip = net::Ipv4Address(ip);
  r.client_port = port;
  r.app_bytes = bytes;
  r.direction = dir;
  return r;
}

// Hands `records` to the device's injector as one columnar batch, the way
// CsServer delivers a tick.
void InjectBatch(NatDevice& nat, const std::vector<net::PacketRecord>& records) {
  net::ColumnarBatch batch;
  batch.Append(records);
  nat.injector().OnColumns(batch.View());
}

// The exact simulation time of the device's k-th livelock episode (1-based).
// The episode schedule draws only from the device's own generator, never
// from traffic, so an idle twin finds it: the smallest end time at which
// RunUntil has executed k episodes, bisected down to adjacent doubles.
double EpisodeTime(const NatDevice::Config& cfg, int k) {
  auto episodes_by = [&cfg](double t) {
    sim::Simulator s;
    NatDevice twin(s, cfg);
    twin.Start();
    s.RunUntil(t);
    return twin.livelock_episodes();
  };
  double lo = 0.0;
  double hi = 1.0;
  while (episodes_by(hi) < k) hi *= 2.0;
  while (std::nextafter(lo, hi) < hi) {
    const double mid = lo + (hi - lo) / 2.0;
    if (mid <= lo || mid >= hi) break;
    (episodes_by(mid) >= k ? hi : lo) = mid;
  }
  return hi;
}

NatDevice::Config QuietConfig() {
  NatDevice::Config cfg;
  cfg.episode_mean_interval = 0.0;  // no livelock for deterministic tests
  cfg.service_jitter = 0.0;
  cfg.mean_capacity_pps = 1000.0;  // exactly 1 ms per packet
  return cfg;
}

TEST(NatDevice, ForwardsBothDirections) {
  sim::Simulator s;
  NatDevice nat(s, QuietConfig());
  int to_server = 0;
  int to_clients = 0;
  nat.SetDeliverCallback([&](const net::PacketRecord&, Segment seg) {
    if (seg == Segment::kNatToServer) ++to_server;
    if (seg == Segment::kNatToClients) ++to_clients;
  });
  nat.Start();
  s.At(0.0, [&] { nat.OnArrival(MakeRecord(0.0, net::Direction::kClientToServer)); });
  s.At(0.1, [&] { nat.OnArrival(MakeRecord(0.1, net::Direction::kServerToClient)); });
  s.RunUntil(1.0);
  EXPECT_EQ(to_server, 1);
  EXPECT_EQ(to_clients, 1);
  EXPECT_EQ(nat.stats().packets(Segment::kClientsToNat), 1u);
  EXPECT_EQ(nat.stats().packets(Segment::kNatToServer), 1u);
}

TEST(NatDevice, ServiceTimeDelaysDelivery) {
  sim::Simulator s;
  NatDevice nat(s, QuietConfig());
  double delivered_at = -1.0;
  nat.SetDeliverCallback([&](const net::PacketRecord&, Segment) { delivered_at = s.Now(); });
  nat.Start();
  s.At(0.0, [&] { nat.OnArrival(MakeRecord(0.0, net::Direction::kClientToServer)); });
  s.RunUntil(1.0);
  EXPECT_NEAR(delivered_at, 0.001, 1e-9);  // 1000 pps -> 1 ms
  EXPECT_GT(nat.stats().delay().mean(), 0.0);
}

TEST(NatDevice, QueueDrainsInOrderAtCapacity) {
  sim::Simulator s;
  NatDevice nat(s, QuietConfig());
  std::vector<double> deliveries;
  nat.SetDeliverCallback([&](const net::PacketRecord&, Segment) {
    deliveries.push_back(s.Now());
  });
  nat.Start();
  s.At(0.0, [&] {
    for (int i = 0; i < 5; ++i) nat.OnArrival(MakeRecord(0.0, net::Direction::kServerToClient));
  });
  s.RunUntil(1.0);
  ASSERT_EQ(deliveries.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(deliveries[i], (i + 1) * 0.001, 1e-9);
}

TEST(NatDevice, LanBufferOverflowDropsOutgoing) {
  sim::Simulator s;
  NatDevice::Config cfg = QuietConfig();
  cfg.lan_buffer = 4;
  NatDevice nat(s, cfg);
  int losses = 0;
  nat.SetLossCallback([&](const net::PacketRecord& record, Segment seg) {
    EXPECT_EQ(seg, Segment::kServerToNat);
    EXPECT_EQ(s.Now(), record.timestamp);  // dropped at its own arrival instant
    ++losses;
  });
  nat.Start();
  s.At(0.0, [&] {
    // Burst of 10 into buffer 4 (+1 in service): 5 drops.
    for (int i = 0; i < 10; ++i) nat.OnArrival(MakeRecord(0.0, net::Direction::kServerToClient));
  });
  s.RunUntil(1.0);
  EXPECT_EQ(losses, 5);
  EXPECT_EQ(nat.stats().drops(Segment::kServerToNat), 5u);
  EXPECT_EQ(nat.stats().packets(Segment::kNatToClients), 5u);
  EXPECT_NEAR(nat.stats().loss_rate_outgoing(), 0.5, 1e-9);
  // The first packet went straight to service; four filled the queue and
  // the rest were dropped at its tail.
  const obs::MetricsRegistry metrics = nat.stats().metrics();
  EXPECT_EQ(metrics.counter_value("nat.lan_q.pushes"), 5u);
  EXPECT_EQ(metrics.counter_value("nat.lan_q.drops"), 5u);
  EXPECT_EQ(nat.stats().high_water(Segment::kServerToNat), 4u);
  EXPECT_EQ(nat.stats().high_water(Segment::kClientsToNat), 0u);
}

// One writer for every device name: after a short overloaded server run,
// NatDevice::PublishCounts alone fills an empty registry with all 17
// "nat.*" names, and the derived ones agree with the segment counts.
TEST(NatDevice, PublishCountsWritesEveryDeviceName) {
  game::GameConfig game = game::GameConfig::PaperDefaults();
  game.trace_duration = 120.0;
  game.maps.map_duration = 180.0;
  game.sessions.initial_players = 20;
  game.outages.times.clear();
  const NatDevice::Config cfg;
  sim::Simulator s;
  NatDevice nat(s, cfg);
  game::CsServer server(s, game, nat.injector());
  nat.Start();
  server.Start();
  s.RunUntil(game.trace_duration);
  nat.CatchUp();

  obs::MetricsRegistry metrics;
  nat.PublishCounts(metrics);
  std::vector<std::string> names;
  metrics.ForEachCounter([&](std::string_view name, const obs::Counter&) {
    names.emplace_back(name);
  });
  metrics.ForEachGauge([&](std::string_view name, const obs::Gauge&) {
    names.emplace_back(name);
  });
  const std::vector<std::string> expected = {
      "nat.clients_to_nat.drops", "nat.clients_to_nat.packets", "nat.device.drops",
      "nat.device.packets",       "nat.lan_q.drops",            "nat.lan_q.pushes",
      "nat.livelock_episodes",    "nat.nat_to_clients.drops",   "nat.nat_to_clients.packets",
      "nat.nat_to_server.drops",  "nat.nat_to_server.packets",  "nat.server_to_nat.drops",
      "nat.server_to_nat.packets", "nat.wan_q.drops",           "nat.wan_q.pushes",
      "nat.lan_q.high_water",     "nat.wan_q.high_water"};
  EXPECT_EQ(names, expected);

  const auto count = [&metrics](const std::string& name) { return metrics.counter_value(name); };
  EXPECT_GT(count("nat.lan_q.drops"), 0u);
  EXPECT_GT(count("nat.wan_q.drops"), 0u);
  EXPECT_EQ(count("nat.lan_q.pushes") + count("nat.lan_q.drops"),
            count("nat.server_to_nat.packets"));
  EXPECT_EQ(count("nat.wan_q.pushes") + count("nat.wan_q.drops"),
            count("nat.clients_to_nat.packets"));
  EXPECT_EQ(count("nat.device.packets"),
            count("nat.server_to_nat.packets") + count("nat.clients_to_nat.packets"));
  std::uint64_t drops = 0;
  for (int i = 0; i < kSegmentCount; ++i) {
    drops += count(std::string("nat.") + SegmentSlug(static_cast<Segment>(i)) + ".drops");
  }
  EXPECT_EQ(count("nat.device.drops"), drops);
  EXPECT_EQ(count("nat.livelock_episodes"), static_cast<std::uint64_t>(nat.livelock_episodes()));
  EXPECT_GT(metrics.gauge_value("nat.lan_q.high_water"), 0.0);
  EXPECT_LE(metrics.gauge_value("nat.lan_q.high_water"), static_cast<double>(cfg.lan_buffer));
  EXPECT_GT(metrics.gauge_value("nat.wan_q.high_water"), 0.0);
  EXPECT_LE(metrics.gauge_value("nat.wan_q.high_water"), static_cast<double>(cfg.wan_buffer));
}

TEST(NatDevice, LanBurstStarvesWanRing) {
  // The paper's asymmetry: a LAN burst monopolises the CPU; WAN arrivals
  // during the drain overflow their shallow ring.
  sim::Simulator s;
  NatDevice::Config cfg = QuietConfig();
  cfg.lan_buffer = 64;
  cfg.wan_buffer = 2;
  NatDevice nat(s, cfg);
  int losses = 0;
  nat.SetLossCallback([&](const net::PacketRecord& record, Segment seg) {
    EXPECT_EQ(seg, Segment::kClientsToNat);
    EXPECT_EQ(s.Now(), record.timestamp);  // dropped at its own arrival instant
    ++losses;
  });
  nat.Start();
  s.At(0.0, [&] {
    for (int i = 0; i < 30; ++i) nat.OnArrival(MakeRecord(0.0, net::Direction::kServerToClient));
  });
  // 10 inbound packets arrive while the 30 ms drain is in progress.
  for (int i = 0; i < 10; ++i) {
    s.At(0.001 + i * 0.002, [&, i] {
      nat.OnArrival(MakeRecord(0.001 + i * 0.002, net::Direction::kClientToServer, 40,
                               0x0A000002, static_cast<std::uint16_t>(27000 + i)));
    });
  }
  s.RunUntil(1.0);
  EXPECT_EQ(nat.stats().drops(Segment::kServerToNat), 0u);
  EXPECT_GT(nat.stats().drops(Segment::kClientsToNat), 5u);
  EXPECT_EQ(static_cast<std::uint64_t>(losses), nat.stats().drops(Segment::kClientsToNat));
  EXPECT_GT(nat.stats().loss_rate_incoming(), nat.stats().loss_rate_outgoing());
}

TEST(NatDevice, NatTableGrowsPerClientEndpoint) {
  sim::Simulator s;
  NatDevice nat(s, QuietConfig());
  nat.Start();
  s.At(0.0, [&] {
    nat.OnArrival(MakeRecord(0.0, net::Direction::kClientToServer, 40, 0x0A000001, 1000));
    nat.OnArrival(MakeRecord(0.0, net::Direction::kClientToServer, 40, 0x0A000001, 1001));
    nat.OnArrival(MakeRecord(0.0, net::Direction::kClientToServer, 40, 0x0A000002, 1000));
    nat.OnArrival(MakeRecord(0.0, net::Direction::kClientToServer, 40, 0x0A000001, 1000));
  });
  s.RunUntil(1.0);
  EXPECT_EQ(nat.nat_table_size(), 3u);  // repeats do not grow the table
}

TEST(NatDevice, OutboundTrafficDoesNotTouchNatTable) {
  sim::Simulator s;
  NatDevice nat(s, QuietConfig());
  nat.Start();
  s.At(0.0, [&] { nat.OnArrival(MakeRecord(0.0, net::Direction::kServerToClient)); });
  s.RunUntil(1.0);
  EXPECT_EQ(nat.nat_table_size(), 0u);
}

TEST(NatDevice, LivelockEpisodeStarvesWanThenRecovers) {
  sim::Simulator s;
  NatDevice::Config cfg = QuietConfig();
  cfg.episode_mean_interval = 1e9;  // scheduled manually below via config
  NatDevice nat(s, cfg);
  nat.Start();
  // No episodes fire in this horizon: all WAN packets forwarded.
  for (int i = 0; i < 50; ++i) {
    s.At(i * 0.01, [&, i] {
      nat.OnArrival(MakeRecord(i * 0.01, net::Direction::kClientToServer, 40, 0x0A000003,
                               static_cast<std::uint16_t>(1000 + i)));
    });
  }
  s.RunUntil(5.0);
  EXPECT_EQ(nat.stats().packets(Segment::kNatToServer), 50u);
  EXPECT_EQ(nat.livelock_episodes(), 0);
}

TEST(NatDevice, LivelockEpisodesHappenWhenEnabled) {
  sim::Simulator s;
  NatDevice::Config cfg = QuietConfig();
  cfg.episode_mean_interval = 5.0;
  NatDevice nat(s, cfg);
  nat.Start();
  s.RunUntil(60.0);
  EXPECT_GT(nat.livelock_episodes(), 3);
}

TEST(NatDevice, WanPacketsSurviveEpisodeIfQueued) {
  // Packets that fit in the WAN ring during an episode are serviced after
  // the episode ends, not lost.
  sim::Simulator s;
  NatDevice::Config cfg = QuietConfig();
  cfg.wan_buffer = 8;
  cfg.episode_mean_interval = 1.0;  // an episode fires quickly...
  cfg.episode_min_duration = 0.5;
  cfg.episode_max_duration = 0.5;
  cfg.episode_full_stall = 0.1;
  NatDevice nat(s, cfg);
  nat.Start();
  // Find the first episode by scheduling arrivals well after t = 0.
  s.At(10.0, [&] {
    for (int i = 0; i < 4; ++i) {
      nat.OnArrival(MakeRecord(10.0, net::Direction::kClientToServer, 40, 0x0A000004,
                               static_cast<std::uint16_t>(2000 + i)));
    }
  });
  s.RunUntil(30.0);
  EXPECT_EQ(nat.stats().packets(Segment::kNatToServer), 4u);
}

TEST(NatDevice, InjectorSchedulesAtRecordTimestamp) {
  sim::Simulator s;
  NatDevice nat(s, QuietConfig());
  nat.Start();
  // Inject at t=0 a record stamped 0.5 s in the future.
  nat.injector().OnPacket(MakeRecord(0.5, net::Direction::kClientToServer));
  EXPECT_EQ(nat.stats().packets(Segment::kClientsToNat), 0u);
  s.RunUntil(0.4);
  EXPECT_EQ(nat.stats().packets(Segment::kClientsToNat), 0u);
  s.RunUntil(1.0);
  EXPECT_EQ(nat.stats().packets(Segment::kClientsToNat), 1u);
}

TEST(NatDevice, InjectedStreamKeepsTheEventQueueShort) {
  // 1,000 packets in tick-sized batches of 25, alternating directions at
  // 2 ms spacing: half the device's capacity, so nothing overflows and no
  // packet needs a simulator event of its own.
  sim::Simulator s;
  NatDevice nat(s, QuietConfig());
  nat.Start();
  int ticks = 0;
  std::size_t max_pending = 0;
  std::uint64_t feeder = 0;
  feeder = s.Every(0.0, 0.05, [&](double t) {
    std::vector<net::PacketRecord> batch;
    for (int i = 0; i < 25; ++i) {
      batch.push_back(MakeRecord(t + i * 0.002,
                                 i % 2 == 0 ? net::Direction::kServerToClient
                                            : net::Direction::kClientToServer,
                                 60, 0x0A000005, static_cast<std::uint16_t>(3000 + i)));
    }
    InjectBatch(nat, batch);
    max_pending = std::max(max_pending, s.pending());
    if (++ticks == 40) s.Cancel(feeder);
  });
  s.RunUntil(3.0);
  EXPECT_EQ(nat.stats().packets(Segment::kNatToClients), 520u);  // 13 of each 25
  EXPECT_EQ(nat.stats().packets(Segment::kNatToServer), 480u);
  EXPECT_EQ(nat.stats().drops(Segment::kServerToNat) + nat.stats().drops(Segment::kClientsToNat),
            0u);
  EXPECT_LE(max_pending, 2u);  // the feeder itself, at most one armed event
  EXPECT_LE(s.events_executed(), 50u);
}

// ---- Tie order and the wake latch --------------------------------------
//
// Jitter-0 cases where two device events share an instant. Simultaneous
// events run in the order they were scheduled, so an arrival injected
// before a service started precedes that service's completion, and one
// injected after it follows. Delivery times and drop counts are pinned.

TEST(NatDevice, ArrivalInjectedBeforeServiceStartPrecedesItsCompletion) {
  sim::Simulator s;
  NatDevice::Config cfg = QuietConfig();
  cfg.lan_buffer = 1;
  NatDevice nat(s, cfg);
  std::vector<double> deliveries;
  std::vector<double> drops;
  nat.SetDeliverCallback([&](const net::PacketRecord&, Segment) { deliveries.push_back(s.Now()); });
  nat.SetLossCallback([&](const net::PacketRecord&, Segment) { drops.push_back(s.Now()); });
  nat.Start();
  // One batch: the first packet's service ends at exactly 0.001, the
  // instant the next two arrive. Both arrivals come first: one fills the
  // one-slot LAN buffer, the other is dropped, then the completion frees it.
  InjectBatch(nat, {MakeRecord(0.0, net::Direction::kServerToClient),
                    MakeRecord(0.001, net::Direction::kServerToClient),
                    MakeRecord(0.001, net::Direction::kServerToClient)});
  s.RunUntil(1.0);
  EXPECT_EQ(deliveries, (std::vector<double>{0.001, 0.002}));
  EXPECT_EQ(drops, (std::vector<double>{0.001}));
  EXPECT_EQ(nat.stats().drops(Segment::kServerToNat), 1u);
}

TEST(NatDevice, ArrivalInjectedAfterServiceStartFollowsItsCompletion) {
  sim::Simulator s;
  NatDevice::Config cfg = QuietConfig();
  cfg.lan_buffer = 1;
  NatDevice nat(s, cfg);
  std::vector<double> deliveries;
  nat.SetDeliverCallback([&](const net::PacketRecord&, Segment) { deliveries.push_back(s.Now()); });
  nat.Start();
  InjectBatch(nat, {MakeRecord(0.0, net::Direction::kServerToClient)});
  // Injected mid-service: the completion at 0.001 was scheduled first, so
  // it frees the CPU before the two arrivals at the same instant.
  s.At(0.0005, [&] {
    InjectBatch(nat, {MakeRecord(0.001, net::Direction::kServerToClient),
                      MakeRecord(0.001, net::Direction::kServerToClient)});
  });
  s.RunUntil(1.0);
  EXPECT_EQ(deliveries, (std::vector<double>{0.001, 0.002, 0.003}));
  EXPECT_EQ(nat.stats().drops(Segment::kServerToNat), 0u);
}

TEST(NatDevice, ArrivalOnFullStallEndPrecedesTheWakeUp) {
  NatDevice::Config cfg = QuietConfig();
  cfg.lan_buffer = 1;
  cfg.episode_mean_interval = 2.0;
  cfg.episode_min_duration = 0.5;
  cfg.episode_max_duration = 0.5;
  cfg.episode_full_stall = 0.1;
  const double episode = EpisodeTime(cfg, 1);
  const double stall_end = episode + cfg.episode_full_stall;

  sim::Simulator s;
  NatDevice nat(s, cfg);
  std::vector<double> deliveries;
  std::vector<double> drops;
  nat.SetDeliverCallback([&](const net::PacketRecord&, Segment) { deliveries.push_back(s.Now()); });
  nat.SetLossCallback([&](const net::PacketRecord& record, Segment) {
    EXPECT_EQ(s.Now(), record.timestamp);
    drops.push_back(s.Now());
  });
  nat.Start();
  // A LAN packet parks in the one-slot buffer during the stall and arms the
  // wake-up for the stall end; a second one lands exactly on that instant.
  // It was injected first, so it arrives before the wake-up and finds the
  // buffer full.
  InjectBatch(nat, {MakeRecord(episode + 0.05, net::Direction::kServerToClient),
                    MakeRecord(stall_end, net::Direction::kServerToClient)});
  s.RunUntil(episode + 5.0);
  EXPECT_EQ(drops, (std::vector<double>{stall_end}));
  EXPECT_EQ(deliveries, (std::vector<double>{stall_end + 0.001}));
}

TEST(NatDevice, SecondEpisodeKeepsThePendingWanWakeUp) {
  NatDevice::Config cfg = QuietConfig();
  cfg.episode_mean_interval = 0.5;
  cfg.episode_min_duration = 1.0;
  cfg.episode_max_duration = 1.0;
  cfg.episode_full_stall = 0.05;
  cfg.seed = 15;
  const double first = EpisodeTime(cfg, 1);
  const double second = EpisodeTime(cfg, 2);
  // The second episode's full stall must start after the WAN packet and
  // end before the first episode's starvation does; the third comes after
  // the WAN packet has left.
  ASSERT_GT(second, first + 0.2);
  ASSERT_LT(second + cfg.episode_full_stall, first + 1.0);
  ASSERT_GT(EpisodeTime(cfg, 3), second + 1.1);

  sim::Simulator s;
  NatDevice nat(s, cfg);
  std::vector<double> lan_deliveries;
  std::vector<double> wan_deliveries;
  nat.SetDeliverCallback([&](const net::PacketRecord&, Segment seg) {
    (seg == Segment::kNatToClients ? lan_deliveries : wan_deliveries).push_back(s.Now());
  });
  nat.Start();
  // A WAN packet during the first episode's starvation latches a wake-up at
  // its end. A LAN packet during the second episode's full stall finds that
  // wake-up pending and schedules none of its own, so it waits for the
  // latched one rather than the second stall's end.
  InjectBatch(nat, {MakeRecord(first + 0.1, net::Direction::kClientToServer),
                    MakeRecord(second + 0.01, net::Direction::kServerToClient)});
  s.RunUntil(second + 5.0);
  const double latched_wake = first + 1.0;
  EXPECT_EQ(lan_deliveries, (std::vector<double>{latched_wake + 0.001}));
  EXPECT_EQ(wan_deliveries, (std::vector<double>{second + 1.0 + 0.001}));
  EXPECT_EQ(nat.stats().drops(Segment::kServerToNat) + nat.stats().drops(Segment::kClientsToNat),
            0u);
}

}  // namespace
}  // namespace gametrace::router
