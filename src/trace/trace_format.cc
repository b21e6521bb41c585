#include "trace/trace_format.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/check.h"

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

std::array<std::uint8_t, kRecordBytes> Encode(const net::PacketRecord& r) {
  std::array<std::uint8_t, kRecordBytes> buf{};
  std::memcpy(buf.data(), &r.timestamp, sizeof(double));
  const std::uint32_t ip = r.client_ip.value();
  std::memcpy(buf.data() + 8, &ip, sizeof(ip));
  std::memcpy(buf.data() + 12, &r.client_port, sizeof(r.client_port));
  std::memcpy(buf.data() + 14, &r.app_bytes, sizeof(r.app_bytes));
  buf[16] = static_cast<std::uint8_t>(r.direction);
  buf[17] = static_cast<std::uint8_t>(r.kind);
  std::memcpy(buf.data() + 18, &r.seq, sizeof(r.seq));
  return buf;
}

net::PacketRecord Decode(const std::array<std::uint8_t, kRecordBytes>& buf) {
  net::PacketRecord r;
  std::memcpy(&r.timestamp, buf.data(), sizeof(double));
  std::uint32_t ip = 0;
  std::memcpy(&ip, buf.data() + 8, sizeof(ip));
  r.client_ip = net::Ipv4Address(ip);
  std::memcpy(&r.client_port, buf.data() + 12, sizeof(r.client_port));
  std::memcpy(&r.app_bytes, buf.data() + 14, sizeof(r.app_bytes));
  r.direction = static_cast<net::Direction>(buf[16]);
  r.kind = static_cast<net::PacketKind>(buf[17]);
  std::memcpy(&r.seq, buf.data() + 18, sizeof(r.seq));
  return r;
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
  for (std::size_t i = 0; i < batch.count; ++i) {
    const auto buf = Encode(batch.RecordAt(i));
    out_.write(reinterpret_cast<const char*>(buf.data()), buf.size());
  }
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

std::optional<net::PacketRecord> TraceReader::Next() {
  std::array<std::uint8_t, kRecordBytes> buf{};
  in_->read(reinterpret_cast<char*>(buf.data()), buf.size());
  if (in_->gcount() == 0) return std::nullopt;  // clean EOF
  if (static_cast<std::size_t>(in_->gcount()) != buf.size()) {
    throw TraceError("TraceReader: truncated record");
  }
  return Decode(buf);
}

std::uint64_t TraceReader::Drain(CaptureSink& sink) {
  // Decode straight into columnar chunks and deliver via OnColumns: the
  // per-record virtual dispatch disappears, columnar sinks consume the
  // columns directly, and memory stays O(1).
  constexpr std::size_t kBatchRecords = 1024;
  net::ColumnarBatch batch;
  batch.Reserve(kBatchRecords);
  std::uint64_t n = 0;
  while (auto record = Next()) {
    batch.PushRecord(*record);
    if (batch.size() == kBatchRecords) {
      sink.OnColumns(batch.View());
      n += batch.size();
      batch.Clear();
    }
  }
  if (!batch.empty()) {
    sink.OnColumns(batch.View());
    n += batch.size();
  }
  return n;
}

std::vector<net::PacketRecord> TraceReader::ReadAll() {
  std::vector<net::PacketRecord> out;
  while (auto record = Next()) out.push_back(*record);
  return out;
}

}  // namespace gametrace::trace
