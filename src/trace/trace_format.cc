#include "trace/trace_format.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/check.h"
#include "obs/ledger.h"

namespace gametrace::trace {

namespace {

// On-disk record layout (little-endian), format version 2:
//   offset 0  : double  timestamp
//   offset 8  : u32     client_ip
//   offset 12 : u16     client_port
//   offset 14 : u16     app_bytes
//   offset 16 : u8      direction
//   offset 17 : u8      kind
//   offset 18 : u32     seq (netchannel sequence; 0 = connectionless)
constexpr std::size_t kRecordBytes = 22;
// Drain's chunk: one stream read and one OnColumns call per 1024 records.
constexpr std::size_t kChunkRecords = 1024;

void EncodeRow(const net::PacketBatch& batch, std::size_t i, std::uint8_t* out) noexcept {
  std::memcpy(out, &batch.timestamps[i], sizeof(double));
  std::memcpy(out + 8, &batch.client_ips[i], sizeof(std::uint32_t));
  std::memcpy(out + 12, &batch.client_ports[i], sizeof(std::uint16_t));
  std::memcpy(out + 14, &batch.app_bytes[i], sizeof(std::uint16_t));
  out[16] = batch.directions[i];
  out[17] = batch.kinds[i];
  std::memcpy(out + 18, &batch.seqs[i], sizeof(std::uint32_t));
}

constexpr auto kMaxDirection = static_cast<std::uint8_t>(net::Direction::kServerToClient);
constexpr auto kMaxKind = static_cast<std::uint8_t>(net::PacketKind::kWebAck);
// 2^32 s, the pcap writer's epoch limit: every readable trace converts.
constexpr double kTimestampLimit = 4294967296.0;

// The cold half of DecodeRow: names the first invalid field of record `in`.
[[noreturn, gnu::cold, gnu::noinline]] void RejectRow(const std::uint8_t* in, double t) {
  if (in[16] > kMaxDirection) {
    throw TraceError("TraceReader: bad direction byte " + std::to_string(in[16]));
  }
  if (in[17] > kMaxKind) {
    throw TraceError("TraceReader: bad packet kind byte " + std::to_string(in[17]));
  }
  throw TraceError("TraceReader: bad timestamp " + std::to_string(t) + " (outside [0, 2^32) s)");
}

// The one read side of the record layout, shared by Next and Drain. Rejects
// an enum byte outside its range (the analyses index per-direction tables
// by the direction byte) and a timestamp outside [0, kTimestampLimit) (NaN
// fails the comparison too). The message is built off the hot path.
void DecodeRow(const std::uint8_t* in, net::PacketRow& row) {
  std::memcpy(&row.timestamp, in, sizeof(double));
  if (in[16] > kMaxDirection || in[17] > kMaxKind ||
      !(row.timestamp >= 0.0 && row.timestamp < kTimestampLimit)) [[unlikely]] {
    RejectRow(in, row.timestamp);
  }
  std::memcpy(&row.client_ip, in + 8, sizeof(row.client_ip));
  std::memcpy(&row.client_port, in + 12, sizeof(row.client_port));
  std::memcpy(&row.app_bytes, in + 14, sizeof(row.app_bytes));
  row.direction = in[16];
  row.kind = in[17];
  std::memcpy(&row.seq, in + 18, sizeof(row.seq));
}

}  // namespace

TraceWriter::TraceWriter(const std::string& path, const net::ServerEndpoint& server)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw TraceError("TraceWriter: cannot open " + path);
  TraceHeader header;
  header.server = server;
  out_.write(reinterpret_cast<const char*>(&header.magic), sizeof(header.magic));
  out_.write(reinterpret_cast<const char*>(&header.version), sizeof(header.version));
  const std::uint32_t ip = server.ip.value();
  out_.write(reinterpret_cast<const char*>(&ip), sizeof(ip));
  out_.write(reinterpret_cast<const char*>(&server.port), sizeof(server.port));
}

void TraceWriter::OnColumns(const net::PacketBatch& batch) {
  const obs::LayerScope scope(obs::Layer::kTraceEncode);
  // Encode the whole batch, then one stream write.
  buffer_.resize(batch.count * kRecordBytes);
  for (std::size_t i = 0; i < batch.count; ++i) {
    EncodeRow(batch, i, buffer_.data() + i * kRecordBytes);
  }
  out_.write(reinterpret_cast<const char*>(buffer_.data()),
             static_cast<std::streamsize>(buffer_.size()));
  packets_ += batch.count;
}

void TraceWriter::Flush() { out_.flush(); }

TraceReader::TraceReader(const std::string& path)
    : in_(std::make_unique<std::ifstream>(path, std::ios::binary)) {
  if (!*in_) throw TraceError("TraceReader: cannot open " + path);
  ReadHeader();
}

TraceReader::TraceReader(std::unique_ptr<std::istream> in) : in_(std::move(in)) {
  GT_CHECK(in_ != nullptr) << "TraceReader: null stream";
  ReadHeader();
}

void TraceReader::ReadHeader() {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
  in_->read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in_->read(reinterpret_cast<char*>(&version), sizeof(version));
  in_->read(reinterpret_cast<char*>(&ip), sizeof(ip));
  in_->read(reinterpret_cast<char*>(&port), sizeof(port));
  if (!*in_ || magic != TraceHeader::kMagic) {
    throw TraceError("TraceReader: not a gametrace file");
  }
  if (version != 2) throw TraceError("TraceReader: unsupported version");
  server_.ip = net::Ipv4Address(ip);
  server_.port = port;
}

std::size_t TraceReader::ReadRecords(std::uint8_t* out, std::size_t max_records) {
  in_->read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(max_records * kRecordBytes));
  const auto got = static_cast<std::size_t>(in_->gcount());
  if (got % kRecordBytes != 0) throw TraceError("TraceReader: truncated record");
  return got / kRecordBytes;
}

std::optional<net::PacketRecord> TraceReader::Next() {
  std::array<std::uint8_t, kRecordBytes> buf{};
  if (ReadRecords(buf.data(), 1) == 0) return std::nullopt;  // clean EOF
  net::PacketRow row{};
  DecodeRow(buf.data(), row);
  return row.View().RecordAt(0);
}

std::uint64_t TraceReader::Drain(CaptureSink& sink) {
  // One read per 1024-record chunk, decoded straight into the columns and
  // delivered via OnColumns: memory stays O(1). A torn or invalid record
  // throws before its chunk is delivered, so the sink has seen exactly the
  // complete chunks before it.
  std::vector<std::uint8_t> chunk(kChunkRecords * kRecordBytes);
  const std::uint8_t* bytes = chunk.data();
  net::ColumnarBatch batch;
  batch.Reserve(kChunkRecords);
  std::uint64_t n = 0;
  for (;;) {
    std::size_t records = 0;
    {
      const obs::LayerScope scope(obs::Layer::kTraceDecode);
      records = ReadRecords(chunk.data(), kChunkRecords);
      batch.Clear();
      batch.AppendRows(records, [bytes](std::size_t i, net::PacketRow& row) {
        DecodeRow(bytes + i * kRecordBytes, row);
      });
    }
    if (records == 0) return n;
    sink.OnColumns(batch.View());
    n += records;
    if (records < kChunkRecords) return n;
  }
}

std::vector<net::PacketRecord> TraceReader::ReadAll() {
  std::vector<net::PacketRecord> out;
  while (auto record = Next()) out.push_back(*record);
  return out;
}

}  // namespace gametrace::trace
