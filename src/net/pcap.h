// libpcap capture-file writer and reader (classic format, magic 0xa1b2c3d4,
// microsecond timestamps, LINKTYPE_ETHERNET).
//
// The paper's raw material is a tcpdump capture; this module lets the
// simulator export byte-exact equivalents and lets the analysis pipeline
// ingest real pcap files too.
//
// Error model: a malformed *file* (truncated, bad magic, implausible record
// length) is environmental input, not a bug, so it raises PcapError - a
// std::runtime_error carrying the byte offset of the damage. Misuse of the
// API (negative timestamps, oversized frames, zero snaplen) is a contract
// violation and fails through GT_CHECK.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/headers.h"
#include "net/packet.h"

namespace gametrace::net {

// Corrupt or truncated pcap input. `offset` is the file position (in bytes)
// at which the reader detected the damage.
class PcapError : public std::runtime_error {
 public:
  PcapError(const std::string& what, std::uint64_t offset)
      : std::runtime_error(what + " (at byte offset " + std::to_string(offset) + ")"),
        offset_(offset) {}

  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::uint64_t offset_;
};

struct PcapPacket {
  double timestamp = 0.0;  // seconds (+ fractional microseconds)
  std::vector<std::uint8_t> frame;
};

class PcapWriter {
 public:
  // Creates/truncates `path` and writes the global header.
  // snaplen: maximum stored frame size (longer frames are truncated, with
  // the original length recorded, exactly as tcpdump -s does). Must be > 0.
  explicit PcapWriter(const std::string& path, std::uint32_t snaplen = 65535);

  // Writes a raw frame at `timestamp` seconds. The timestamp must be finite
  // and non-negative (the record header stores unsigned seconds).
  void WriteFrame(double timestamp, std::span<const std::uint8_t> frame);

  // Convenience: synthesises the Ethernet/IPv4/UDP frame for a simulated
  // record (payload filled with zeros of the recorded length) and writes it.
  void WriteRecord(const PacketRecord& record, const ServerEndpoint& server);

  [[nodiscard]] std::uint64_t packets_written() const noexcept { return packets_; }

  void Flush();

 private:
  std::ofstream out_;
  std::uint32_t snaplen_;
  std::uint64_t packets_ = 0;
  std::uint16_t next_ip_id_ = 1;
};

class PcapReader {
 public:
  // Largest snaplen / record length the reader accepts before declaring the
  // file corrupt. Real capture tools cap snaplen at 256 KiB; 64 MiB leaves
  // two orders of magnitude of headroom while still rejecting the resize
  // bombs a corrupt length field would otherwise trigger.
  static constexpr std::uint32_t kMaxSaneLength = 64u * 1024 * 1024;

  // Opens `path`; throws PcapError if the file cannot be opened or its
  // global header is damaged.
  explicit PcapReader(const std::string& path);

  // Reads from an arbitrary stream (in-memory parsing, fuzz harnesses).
  explicit PcapReader(std::unique_ptr<std::istream> in);

  // Reads the next packet; nullopt at end of file. Throws PcapError on a
  // corrupt record.
  std::optional<PcapPacket> Next();

  [[nodiscard]] std::uint32_t snaplen() const noexcept { return snaplen_; }
  [[nodiscard]] std::uint32_t link_type() const noexcept { return link_type_; }

  // Reads the remaining packets, parsing each as UDP/IPv4 and converting to
  // PacketRecord relative to `server` (direction inferred from which side is
  // the server endpoint). Non-UDP or non-server frames are skipped and
  // counted in `skipped`.
  std::vector<PacketRecord> ReadAllRecords(const ServerEndpoint& server,
                                           std::uint64_t* skipped = nullptr);

 private:
  void ReadGlobalHeader();
  [[nodiscard]] std::uint64_t Offset() const;

  std::unique_ptr<std::istream> in_;
  bool swapped_ = false;  // file written with opposite endianness
  std::uint32_t snaplen_ = 0;
  std::uint32_t link_type_ = 0;
};

// Moves a capture's clock to start in its first second: subtracts the
// whole seconds before the earliest timestamp from every record, and
// returns them. A real capture is stamped in Unix time (~1.7e9 s), while
// the analyses bin from t = 0 (core::Characterizer's minute series refuse
// a span past trace::LoadAggregator::kMaxSpanSeconds, 2^26 s). Exact:
// each timestamp loses a whole number of seconds at or below it.
double RebaseToCaptureStart(std::span<PacketRecord> records) noexcept;

}  // namespace gametrace::net
