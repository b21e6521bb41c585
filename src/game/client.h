// Client profiles and identities.
//
// A profile fixes a client's network class (modem / broadband / "l337") and
// update rate; an identity is a stable IP drawn from the community pool so
// the same simulated person reconnecting is recognisable in the trace.
#pragma once

#include <cstdint>

#include "game/config.h"
#include "net/ip.h"
#include "sim/rng.h"

namespace gametrace::game {

struct ClientProfile {
  ClientClass cls = ClientClass::kModem;
  double update_rate = 24.3;   // client -> server packets per second
  int snapshots_per_tick = 1;  // server -> client packets per 50 ms tick
};

// Draws a profile from the configured population mix. The update rate is
// itself random per client (different machines, different fps).
[[nodiscard]] ClientProfile DrawProfile(const ClientMixConfig& mix, sim::Rng& rng);

// Stable IP for pool identity `index`: a deterministic, collision-free
// mapping into 10.0.0.0/8 (bit-reversed so consecutive identities do not
// share prefixes - matters for the route-cache ablation).
[[nodiscard]] net::Ipv4Address IdentityIp(std::size_t index) noexcept;

// ---------------------------------------------------------------------------
// Fleet IP-namespace packing.
//
// IdentityIp bit-reverses the pool index into the 24-bit host part of
// 10/8, so a population of P identities only occupies the top
// ceil(log2(P)) host bits - the low 24 - ceil(log2(P)) bits of every
// identity address are zero. The fleet exploits the unused low bits to
// pack far more than the 246 per-octet server namespaces: server s maps
// its clients through an additive shift of
//     ((s % 246) << 24) | (s / 246)
// which lands shard s in top octet 10 + (s % 246) at low-bit offset
// s / 246. Two servers collide only if they share both coordinates, so
// with the default 9000-identity pool (14 index bits, 10 free low bits)
// 246 * 1024 = 251,904 servers coexist with provably disjoint client
// address spaces - the property that makes per-shard analyses exactly
// mergeable.
// ---------------------------------------------------------------------------

// Bits of the 24-bit host space a pool of `population` identities
// occupies: the smallest b with 2^b >= population (0 for population <= 1).
[[nodiscard]] int IdentityIndexBits(std::size_t population) noexcept;

// Largest fleet whose per-server client namespaces stay pairwise disjoint
// at this population: 246 << (24 - IdentityIndexBits(population)).
[[nodiscard]] std::size_t MaxDisjointServers(std::size_t population) noexcept;

// The additive IP shift for server `server_id` of a fleet whose servers
// each draw from `population` identities. GT_CHECKs that the id fits the
// namespace (server_id < MaxDisjointServers(population)) and that the
// population fits the 24-bit host space. The result goes in
// GameConfig::client_ip_shift. Ids <= 245 produce exactly the classic
// per-octet shift (server_id << 24).
[[nodiscard]] std::uint32_t ShardIpShift(std::uint32_t server_id, std::size_t population);

// Random ephemeral source port for a new session.
[[nodiscard]] std::uint16_t DrawEphemeralPort(sim::Rng& rng) noexcept;

// Gap until the client's next update packet: 1/rate with multiplicative
// jitter of +/- mix.send_jitter (clients run off their own frame clock).
[[nodiscard]] double NextSendGap(const ClientProfile& profile, double jitter,
                                 sim::Rng& rng) noexcept;

// State of a connected client, owned by CsServer.
struct ActiveClient {
  std::uint64_t session_id = 0;
  std::size_t identity = 0;
  net::Ipv4Address ip;
  std::uint16_t port = 0;
  ClientProfile profile;
  double joined_at = 0.0;
  double next_send = 0.0;  // absolute time of the next inbound update
  // Netchannel sequence counters (next value to assign, starting at 1).
  std::uint32_t seq_in = 1;   // client -> server channel
  std::uint32_t seq_out = 1;  // server -> client channel
  // Downstream wire bytes accumulated since the last per-minute sample;
  // the minute sampler turns this into one kbps observation in the
  // "client.bandwidth.kbps" sketch and resets it.
  std::uint64_t window_bytes_down = 0;
};

}  // namespace gametrace::game
