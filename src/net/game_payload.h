// Half-Life-style netchannel payload synthesis and parsing.
//
// Real HL packets begin with an 8-byte netchannel header (32-bit outgoing
// sequence, 32-bit acknowledged sequence); connectionless control packets
// begin with 0xFFFFFFFF instead. The pcap exporter fills simulated
// payloads with these headers so exported captures carry the sequence
// numbers a real measurement study would mine for loss/reordering.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/packet.h"

namespace gametrace::net {

inline constexpr std::uint32_t kConnectionlessMarker = 0xFFFFFFFFu;
inline constexpr std::size_t kNetchanHeaderBytes = 8;

// Builds a payload of exactly `record.app_bytes` bytes for the record:
// sequenced records get (seq, ack) followed by a deterministic fill;
// connectionless records (seq == 0) get the 0xFFFFFFFF marker and a kind
// tag. Payloads shorter than the header are truncated raw fill.
[[nodiscard]] std::vector<std::uint8_t> BuildGamePayload(const PacketRecord& record);

struct ParsedGamePayload {
  bool connectionless = false;
  std::uint32_t seq = 0;  // 0 for connectionless payloads
  std::uint32_t ack = 0;
  // Connectionless payloads only: the kind tag after the marker. A
  // foreign capture may carry any value here, not only a PacketKind.
  std::uint32_t kind_tag = 0;
};

// Parses a payload produced by BuildGamePayload. Returns nullopt for
// payloads too short to carry a netchannel header.
[[nodiscard]] std::optional<ParsedGamePayload> ParseGamePayload(
    std::span<const std::uint8_t> payload);

}  // namespace gametrace::net
