#include "net/game_payload.h"

#include <cstring>

namespace gametrace::net {

namespace {

void PutLe32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  p[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  p[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint32_t GetLe32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

}  // namespace

std::vector<std::uint8_t> BuildGamePayload(const PacketRecord& record) {
  std::vector<std::uint8_t> payload(record.app_bytes, 0);
  // Deterministic fill so payload bytes are not all-zero (checksummable,
  // compressible like real delta-encoded state).
  for (std::size_t i = kNetchanHeaderBytes < payload.size() ? kNetchanHeaderBytes : 0;
       i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>((record.seq + i * 37 + record.client_port) & 0xff);
  }
  if (payload.size() < kNetchanHeaderBytes) return payload;

  if (record.seq == 0) {
    PutLe32(payload.data(), kConnectionlessMarker);
    PutLe32(payload.data() + 4, static_cast<std::uint32_t>(record.kind));
  } else {
    PutLe32(payload.data(), record.seq);
    // The ack field mirrors the last sequence seen on the reverse channel;
    // the simulator does not track it, so echo seq - 1 (self-consistent).
    PutLe32(payload.data() + 4, record.seq > 0 ? record.seq - 1 : 0);
  }
  return payload;
}

std::optional<ParsedGamePayload> ParseGamePayload(std::span<const std::uint8_t> payload) {
  if (payload.size() < kNetchanHeaderBytes) return std::nullopt;
  ParsedGamePayload parsed;
  const std::uint32_t first = GetLe32(payload.data());
  if (first == kConnectionlessMarker) {
    parsed.connectionless = true;
    parsed.kind_tag = GetLe32(payload.data() + 4);
    return parsed;
  }
  parsed.seq = first;
  parsed.ack = GetLe32(payload.data() + 4);
  return parsed;
}

}  // namespace gametrace::net
