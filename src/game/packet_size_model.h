// Application-payload size draws for every packet class the server emits or
// receives. Reproduces the paper's Figure 12/13 distributions: a narrow
// inbound peak at 40 B and a wide, player-count-dependent outbound spread.
#pragma once

#include <cstdint>

#include "game/config.h"
#include "net/packet.h"
#include "sim/random.h"
#include "sim/rng.h"

namespace gametrace::game {

// Each update and chat size is one sim::SampleClampedNormal draw from the
// class parameters below (GameConfig::Validate checks the bounds).
class PacketSizeModel {
 public:
  explicit PacketSizeModel(const SizeConfig& config) : config_(config) {}

  // Client -> server periodic state update.
  [[nodiscard]] sim::ClampedNormal InboundClass() const noexcept {
    return {config_.inbound_mean, config_.inbound_stddev, config_.inbound_min,
            config_.inbound_max};
  }
  [[nodiscard]] std::uint16_t InboundUpdate(sim::Rng& rng) const {
    return sim::SampleClampedNormal(rng, InboundClass());
  }

  // Server -> client state broadcast; grows with the player count since the
  // snapshot carries every player's coordinates.
  [[nodiscard]] sim::ClampedNormal OutboundClass(int connected_players) const noexcept {
    return {config_.outbound_base +
                config_.outbound_per_player * static_cast<double>(connected_players),
            config_.outbound_stddev, config_.outbound_min, config_.outbound_max};
  }
  [[nodiscard]] std::uint16_t OutboundUpdate(sim::Rng& rng, int connected_players) const {
    return sim::SampleClampedNormal(rng, OutboundClass(connected_players));
  }

  // Broadcast text/voice payload (either direction).
  [[nodiscard]] sim::ClampedNormal ChatClass() const noexcept {
    return {config_.chat_mean, config_.chat_stddev, config_.outbound_min, config_.chat_max};
  }
  [[nodiscard]] std::uint16_t ChatPayload(sim::Rng& rng) const {
    return sim::SampleClampedNormal(rng, ChatClass());
  }

  // True when this update should be replaced by a chat payload.
  [[nodiscard]] bool DrawChatSubstitution(sim::Rng& rng) const {
    return sim::Bernoulli(rng, config_.chat_probability);
  }

  // Control-plane packets; slight jitter so they are not a single histogram
  // spike.
  [[nodiscard]] std::uint16_t HandshakeSize(net::PacketKind kind, sim::Rng& rng) const;

  [[nodiscard]] const SizeConfig& config() const noexcept { return config_; }

 private:
  SizeConfig config_;
};

}  // namespace gametrace::game
