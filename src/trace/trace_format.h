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
// violation): unknown magic, unsupported version, torn trailing record.
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
};

class TraceReader {
 public:
  explicit TraceReader(const std::string& path);

  // Reads from an arbitrary stream (in-memory parsing, fuzz harnesses).
  explicit TraceReader(std::unique_ptr<std::istream> in);

  [[nodiscard]] const net::ServerEndpoint& server() const noexcept { return server_; }

  // Next record, or nullopt at EOF. Throws TraceError on a corrupt file.
  std::optional<net::PacketRecord> Next();

  // Streams all remaining records into `sink`; returns the count.
  std::uint64_t Drain(CaptureSink& sink);

  std::vector<net::PacketRecord> ReadAll();

 private:
  void ReadHeader();

  std::unique_ptr<std::istream> in_;
  net::ServerEndpoint server_;
};

}  // namespace gametrace::trace
