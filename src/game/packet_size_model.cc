#include "game/packet_size_model.h"

#include <algorithm>

#include "core/check.h"

namespace gametrace::game {

std::uint16_t PacketSizeModel::HandshakeSize(net::PacketKind kind, sim::Rng& rng) const {
  std::uint16_t base = 0;
  switch (kind) {
    case net::PacketKind::kConnectRequest:
      base = config_.connect_request;
      break;
    case net::PacketKind::kConnectAccept:
      base = config_.connect_accept;
      break;
    case net::PacketKind::kConnectReject:
      base = config_.connect_reject;
      break;
    case net::PacketKind::kDisconnect:
      base = config_.disconnect;
      break;
    default:
      GT_CHECK(false) << "PacketSizeModel::HandshakeSize: kind " << static_cast<int>(kind)
                      << " is not a control packet";
      break;
  }
  // +/- 4 bytes of jitter (player-name lengths etc.).
  const auto jitter = static_cast<int>(rng.NextBelow(9)) - 4;
  const int value = std::max(8, static_cast<int>(base) + jitter);
  return static_cast<std::uint16_t>(value);
}

}  // namespace gametrace::game
