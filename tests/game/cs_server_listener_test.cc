// Coverage for the server's observer surface: endpoint disconnects (the
// QoE quit path) and netchannel sequence numbering.
#include <algorithm>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "game/cs_server.h"
#include "trace/capture.h"

namespace gametrace::game {
namespace {

GameConfig ShortConfig() {
  GameConfig cfg = GameConfig::ScaledDefaults(300.0);
  cfg.seed = 9;
  return cfg;
}

TEST(CsServerListener, DisconnectByEndpointQuitsExactlyThatPlayer) {
  sim::Simulator s;
  trace::VectorSink sink;
  CsServer server(s, ShortConfig(), sink);
  server.Start();
  s.RunUntil(30.0);
  // The last broadcast before t = 30 s went to a connected player.
  const auto& records = sink.records();
  const auto update = std::find_if(records.rbegin(), records.rend(), [](const auto& r) {
    return r.direction == net::Direction::kServerToClient &&
           r.kind == net::PacketKind::kGameUpdate;
  });
  ASSERT_NE(update, records.rend());
  const net::Ipv4Address victim_ip = update->client_ip;
  const std::uint16_t victim_port = update->client_port;
  const int before = server.active_players();
  EXPECT_TRUE(server.DisconnectByEndpoint(victim_ip, victim_port));
  EXPECT_EQ(server.active_players(), before - 1);
  // Unknown endpoint: no effect.
  EXPECT_FALSE(server.DisconnectByEndpoint(net::Ipv4Address(1, 2, 3, 4), 1));
  EXPECT_EQ(server.active_players(), before - 1);
  // Same endpoint twice: second call fails.
  EXPECT_FALSE(server.DisconnectByEndpoint(victim_ip, victim_port));
}

TEST(CsServerListener, SequenceNumbersMonotonePerFlow) {
  sim::Simulator s;
  trace::VectorSink sink;
  CsServer server(s, ShortConfig(), sink);
  server.Start();
  s.RunUntil(20.0);

  // Per (endpoint, direction): sequenced packets must be strictly
  // increasing by 1 in emission order.
  std::map<std::tuple<std::uint32_t, std::uint16_t, int>, std::uint32_t> last_seq;
  std::uint64_t sequenced = 0;
  for (const auto& r : sink.records()) {
    if (r.seq == 0) continue;  // handshake / control
    ++sequenced;
    const auto key = std::tuple(r.client_ip.value(), r.client_port,
                                static_cast<int>(r.direction));
    const auto it = last_seq.find(key);
    if (it != last_seq.end()) {
      EXPECT_EQ(r.seq, it->second + 1) << "gap in emitted sequence";
      it->second = r.seq;
    } else {
      EXPECT_EQ(r.seq, 1u) << "flows start at sequence 1";
      last_seq[key] = r.seq;
    }
  }
  EXPECT_GT(sequenced, 10000u);
}

TEST(CsServerListener, ControlPacketsAreUnsequenced) {
  sim::Simulator s;
  trace::VectorSink sink;
  CsServer server(s, ShortConfig(), sink);
  server.Start();
  s.RunUntil(30.0);
  for (const auto& r : sink.records()) {
    if (r.kind == net::PacketKind::kConnectRequest ||
        r.kind == net::PacketKind::kConnectAccept ||
        r.kind == net::PacketKind::kConnectReject ||
        r.kind == net::PacketKind::kDisconnect) {
      EXPECT_EQ(r.seq, 0u);
    }
  }
}

}  // namespace
}  // namespace gametrace::game
