// Compact binary trace format (.gtr): 22 bytes per packet record.
//
// The pcap exporter (net/pcap.h) produces interoperable captures but costs
// ~90 B per game packet; week-long simulated traces use this format instead
// (little-endian, fixed layout, versioned header) at 5x less disk.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/packet.h"
#include "trace/capture.h"

namespace gametrace::trace {

// Corrupt or truncated .gtr input (environmental error, not a contract
// violation): unknown magic, unsupported version, torn trailing record,
// out-of-range direction or packet-kind byte, or a timestamp outside
// [0, 2^32) s - the pcap epoch range, so every readable trace converts.
class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct TraceHeader {
  static constexpr std::uint32_t kMagic = 0x47545231;  // "GTR1"
  std::uint32_t magic = kMagic;
  std::uint32_t version = 2;  // v2 added the 32-bit netchannel sequence
  net::ServerEndpoint server;
};

class TraceWriter final : public CaptureSink {
 public:
  TraceWriter(const std::string& path, const net::ServerEndpoint& server);

  void OnColumns(const net::PacketBatch& batch) override;

  [[nodiscard]] std::uint64_t packets_written() const noexcept { return packets_; }

  void Flush();

 private:
  std::ofstream out_;
  std::uint64_t packets_ = 0;
  std::vector<std::uint8_t> buffer_;  // one batch's encoded records
};

class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  // Reads from an arbitrary stream (in-memory parsing, fuzz harnesses).
  explicit TraceReader(std::unique_ptr<std::istream> in);

  [[nodiscard]] const net::ServerEndpoint& server() const noexcept { return server_; }

  // Next record, or nullopt at EOF. Throws TraceError on a corrupt file: a
  // torn record, a direction byte other than 0/1 or a kind byte above
  // PacketKind::kWebAck.
  std::optional<net::PacketRecord> Next();

  // Streams all remaining records into `sink` in 1024-record OnColumns
  // chunks; returns the count. On a corrupt record it throws TraceError
  // after delivering every complete chunk before the one holding it. An
  // empty trace delivers nothing, and no batch is ever empty.
  std::uint64_t Drain(CaptureSink& sink);

  std::vector<net::PacketRecord> ReadAll();

 private:
  void ReadHeader();
  // Reads up to `max_records` whole records into `out`; returns how many.
  // Throws TraceError if the stream ends inside a record.
  std::size_t ReadRecords(std::uint8_t* out, std::size_t max_records);

  std::unique_ptr<std::istream> in_;
  net::ServerEndpoint server_;
};

}  // namespace gametrace::trace
