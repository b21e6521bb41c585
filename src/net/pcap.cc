#include "net/pcap.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "core/check.h"
#include "net/game_payload.h"

namespace gametrace::net {

namespace {

constexpr std::uint32_t kMagic = 0xa1b2c3d4;
constexpr std::uint16_t kVersionMajor = 2;
constexpr std::uint16_t kVersionMinor = 4;
constexpr std::uint32_t kLinkTypeEthernet = 1;

template <typename T>
void WritePod(std::ofstream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool ReadPod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return static_cast<bool>(in);
}

std::uint32_t MaybeSwap(std::uint32_t v, bool swapped) noexcept {
  if (!swapped) return v;
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

}  // namespace

PcapWriter::PcapWriter(const std::string& path, std::uint32_t snaplen)
    : out_(path, std::ios::binary | std::ios::trunc), snaplen_(snaplen) {
  GT_CHECK_GT(snaplen, 0u) << "PcapWriter: snaplen must be positive";
  if (!out_) throw PcapError("PcapWriter: cannot open " + path, 0);
  WritePod(out_, kMagic);
  WritePod(out_, kVersionMajor);
  WritePod(out_, kVersionMinor);
  WritePod(out_, std::int32_t{0});   // thiszone
  WritePod(out_, std::uint32_t{0});  // sigfigs
  WritePod(out_, snaplen_);
  WritePod(out_, kLinkTypeEthernet);
}

void PcapWriter::WriteFrame(double timestamp, std::span<const std::uint8_t> frame) {
  // The record header stores unsigned 32-bit seconds: a negative or
  // non-finite timestamp would be undefined behaviour in the cast below.
  GT_CHECK(timestamp >= 0.0 && timestamp < 4294967296.0)
      << "PcapWriter::WriteFrame: timestamp " << timestamp << " outside the pcap epoch range";
  GT_CHECK_LE(frame.size(), std::numeric_limits<std::uint32_t>::max())
      << "PcapWriter::WriteFrame: frame exceeds the 32-bit record length field";
  const auto secs = static_cast<std::uint32_t>(timestamp);
  const auto usecs = static_cast<std::uint32_t>(
      std::lround((timestamp - static_cast<double>(secs)) * 1e6) % 1000000);
  const auto orig_len = static_cast<std::uint32_t>(frame.size());
  const std::uint32_t incl_len = std::min(orig_len, snaplen_);
  WritePod(out_, secs);
  WritePod(out_, usecs);
  WritePod(out_, incl_len);
  WritePod(out_, orig_len);
  out_.write(reinterpret_cast<const char*>(frame.data()), incl_len);
  ++packets_;
}

void PcapWriter::WriteRecord(const PacketRecord& record, const ServerEndpoint& server) {
  FrameSpec spec;
  spec.flow = FlowOf(record, server);
  spec.ip_id = next_ip_id_++;
  const std::vector<std::uint8_t> payload = BuildGamePayload(record);
  const std::vector<std::uint8_t> frame = BuildUdpFrame(spec, payload);
  WriteFrame(record.timestamp, frame);
}

void PcapWriter::Flush() { out_.flush(); }

PcapReader::PcapReader(const std::string& path)
    : in_(std::make_unique<std::ifstream>(path, std::ios::binary)) {
  if (!*in_) throw PcapError("PcapReader: cannot open " + path, 0);
  ReadGlobalHeader();
}

PcapReader::PcapReader(std::unique_ptr<std::istream> in) : in_(std::move(in)) {
  GT_CHECK(in_ != nullptr) << "PcapReader: null stream";
  ReadGlobalHeader();
}

std::uint64_t PcapReader::Offset() const {
  auto pos = in_->tellg();
  if (pos < 0) {
    // tellg refuses to report a position once failbit is set (e.g. after the
    // short read being diagnosed); clear the flags to recover it.
    in_->clear();
    pos = in_->tellg();
  }
  return pos < 0 ? 0 : static_cast<std::uint64_t>(pos);
}

void PcapReader::ReadGlobalHeader() {
  std::uint32_t magic = 0;
  if (!ReadPod(*in_, magic)) throw PcapError("PcapReader: truncated header", Offset());
  if (magic == kMagic) {
    swapped_ = false;
  } else if (MaybeSwap(magic, true) == kMagic) {
    swapped_ = true;
  } else {
    throw PcapError("PcapReader: bad magic (not a classic pcap file)", 0);
  }
  std::uint16_t maj = 0;
  std::uint16_t min = 0;
  std::int32_t zone = 0;
  std::uint32_t sigfigs = 0;
  if (!ReadPod(*in_, maj) || !ReadPod(*in_, min) || !ReadPod(*in_, zone) ||
      !ReadPod(*in_, sigfigs) || !ReadPod(*in_, snaplen_) || !ReadPod(*in_, link_type_)) {
    throw PcapError("PcapReader: truncated global header", Offset());
  }
  snaplen_ = MaybeSwap(snaplen_, swapped_);
  link_type_ = MaybeSwap(link_type_, swapped_);
  if (snaplen_ == 0 || snaplen_ > kMaxSaneLength) {
    throw PcapError("PcapReader: implausible snaplen " + std::to_string(snaplen_), 0);
  }
}

std::optional<PcapPacket> PcapReader::Next() {
  std::uint32_t secs = 0;
  if (!ReadPod(*in_, secs)) return std::nullopt;  // clean EOF
  std::uint32_t usecs = 0;
  std::uint32_t incl = 0;
  std::uint32_t orig = 0;
  if (!ReadPod(*in_, usecs) || !ReadPod(*in_, incl) || !ReadPod(*in_, orig)) {
    throw PcapError("PcapReader: truncated record header", Offset());
  }
  secs = MaybeSwap(secs, swapped_);
  usecs = MaybeSwap(usecs, swapped_);
  incl = MaybeSwap(incl, swapped_);
  orig = MaybeSwap(orig, swapped_);
  // Record sanity: the stored length can never exceed the capture snaplen
  // (with slack for writers that round snaplen up to the next power of two),
  // and the original length can never be smaller than the stored portion.
  if (incl > std::min<std::uint64_t>(std::uint64_t{snaplen_} + 65536u, kMaxSaneLength)) {
    throw PcapError("PcapReader: implausible record length " + std::to_string(incl), Offset());
  }
  if (orig < incl) {
    throw PcapError("PcapReader: record original length below stored length", Offset());
  }

  PcapPacket pkt;
  pkt.timestamp = static_cast<double>(secs) + static_cast<double>(usecs) * 1e-6;
  pkt.frame.resize(incl);
  in_->read(reinterpret_cast<char*>(pkt.frame.data()), incl);
  if (!*in_) throw PcapError("PcapReader: truncated packet body", Offset());
  return pkt;
}

std::vector<PacketRecord> PcapReader::ReadAllRecords(const ServerEndpoint& server,
                                                     std::uint64_t* skipped) {
  std::vector<PacketRecord> records;
  std::uint64_t skip_count = 0;
  while (auto pkt = Next()) {
    ParsedUdpFrame parsed;
    if (!ParseUdpFrame(pkt->frame, parsed)) {
      ++skip_count;
      continue;
    }
    PacketRecord rec;
    rec.timestamp = pkt->timestamp;
    rec.app_bytes = parsed.payload_bytes;
    // Recover the netchannel sequence, or a connectionless packet's kind,
    // when the payload carries one. A tag that names no PacketKind (a
    // foreign capture) leaves the record a game update.
    const std::size_t eth_ip_udp = pkt->frame.size() - parsed.payload_bytes;
    if (const auto game = ParseGamePayload(
            {pkt->frame.data() + eth_ip_udp, parsed.payload_bytes})) {
      constexpr auto kMaxKind = static_cast<std::uint32_t>(PacketKind::kWebAck);
      if (!game->connectionless) {
        rec.seq = game->seq;
      } else if (game->kind_tag <= kMaxKind) {
        rec.kind = static_cast<PacketKind>(game->kind_tag);
      }
    }
    if (parsed.flow.dst_ip == server.ip && parsed.flow.dst_port == server.port) {
      rec.direction = Direction::kClientToServer;
      rec.client_ip = parsed.flow.src_ip;
      rec.client_port = parsed.flow.src_port;
    } else if (parsed.flow.src_ip == server.ip && parsed.flow.src_port == server.port) {
      rec.direction = Direction::kServerToClient;
      rec.client_ip = parsed.flow.dst_ip;
      rec.client_port = parsed.flow.dst_port;
    } else {
      ++skip_count;
      continue;
    }
    records.push_back(rec);
  }
  if (skipped != nullptr) *skipped = skip_count;
  return records;
}

double RebaseToCaptureStart(std::span<PacketRecord> records) noexcept {
  if (records.empty()) return 0.0;
  const auto earliest = std::min_element(
      records.begin(), records.end(),
      [](const PacketRecord& a, const PacketRecord& b) { return a.timestamp < b.timestamp; });
  const double shift = std::floor(earliest->timestamp);
  for (PacketRecord& r : records) r.timestamp -= shift;
  return shift;
}

}  // namespace gametrace::net
