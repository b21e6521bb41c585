#include "trace/trace_format.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace gametrace::trace {
namespace {

class TraceFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("gametrace_gtr_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".gtr"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
  net::ServerEndpoint server_;
};

net::PacketRecord MakeRecord(double t, std::uint16_t bytes,
                             net::Direction dir = net::Direction::kClientToServer,
                             net::PacketKind kind = net::PacketKind::kGameUpdate) {
  net::PacketRecord r;
  r.timestamp = t;
  r.client_ip = net::Ipv4Address(10, 7, 8, 9);
  r.client_port = 31337;
  r.app_bytes = bytes;
  r.direction = dir;
  r.kind = kind;
  return r;
}

TEST_F(TraceFormatTest, HeaderRoundTrip) {
  server_.ip = net::Ipv4Address(172, 16, 5, 5);
  server_.port = 27016;
  {
    TraceWriter writer(path_, server_);
    writer.Flush();
  }
  TraceReader reader(path_);
  EXPECT_EQ(reader.server().ip, server_.ip);
  EXPECT_EQ(reader.server().port, server_.port);
  EXPECT_FALSE(reader.Next().has_value());
}

TEST_F(TraceFormatTest, RecordRoundTripExact) {
  const net::PacketRecord original =
      MakeRecord(12345.678901, 237, net::Direction::kServerToClient, net::PacketKind::kDownload);
  {
    TraceWriter writer(path_, server_);
    writer.OnPacket(original);
    writer.Flush();
  }
  TraceReader reader(path_);
  const auto read = reader.Next();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, original);  // bit-exact, including the double timestamp
}

TEST_F(TraceFormatTest, AllKindsAndDirectionsRoundTrip) {
  {
    TraceWriter writer(path_, server_);
    for (int kind = 0; kind <= 6; ++kind) {
      for (int dir = 0; dir <= 1; ++dir) {
        writer.OnPacket(MakeRecord(kind + dir * 0.5, static_cast<std::uint16_t>(10 * kind + 1),
                                   static_cast<net::Direction>(dir),
                                   static_cast<net::PacketKind>(kind)));
      }
    }
    writer.Flush();
  }
  TraceReader reader(path_);
  const auto records = reader.ReadAll();
  EXPECT_EQ(records.size(), 14u);
  for (const auto& r : records) {
    EXPECT_LE(static_cast<int>(r.kind), 6);
  }
}

TEST_F(TraceFormatTest, DrainStreamsIntoSink) {
  constexpr int kCount = 5000;
  {
    TraceWriter writer(path_, server_);
    for (int i = 0; i < kCount; ++i) {
      writer.OnPacket(MakeRecord(i * 0.05, static_cast<std::uint16_t>(i % 400)));
    }
    writer.Flush();
    EXPECT_EQ(writer.packets_written(), static_cast<std::uint64_t>(kCount));
  }
  TraceReader reader(path_);
  CountingSink counter;
  EXPECT_EQ(reader.Drain(counter), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(counter.packets(), static_cast<std::uint64_t>(kCount));
}

// Records the size of every batch Drain delivers.
class BatchSizeSink final : public CaptureSink {
 public:
  void OnColumns(const net::PacketBatch& batch) override { sizes.push_back(batch.count); }
  std::vector<std::size_t> sizes;
};

TEST_F(TraceFormatTest, DrainTornRecordDeliversOnlyTheCompleteChunksBefore) {
  // 1500 and 2048 whole records, then a torn one: the chunk holding the
  // torn record (records 1024..1500 resp. the empty third chunk) is not
  // delivered, every complete chunk before it is.
  for (const auto& [whole, delivered] :
       {std::pair<int, std::vector<std::size_t>>{1500, {1024}},
        std::pair<int, std::vector<std::size_t>>{2048, {1024, 1024}}}) {
    {
      TraceWriter writer(path_, server_);
      for (int i = 0; i <= whole; ++i) writer.OnPacket(MakeRecord(i * 0.01, 40));
      writer.Flush();
    }
    std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 5);
    TraceReader reader(path_);
    BatchSizeSink sink;
    EXPECT_THROW((void)reader.Drain(sink), TraceError);
    EXPECT_EQ(sink.sizes, delivered) << whole << " whole records";
  }
}

TEST_F(TraceFormatTest, DrainWholeChunksDeliversNoEmptyBatch) {
  {
    TraceWriter writer(path_, server_);
    for (int i = 0; i < 2048; ++i) writer.OnPacket(MakeRecord(i * 0.01, 40));
    writer.Flush();
  }
  TraceReader reader(path_);
  BatchSizeSink sink;
  EXPECT_EQ(reader.Drain(sink), 2048u);
  EXPECT_EQ(sink.sizes, (std::vector<std::size_t>{1024, 1024}));
}

TEST_F(TraceFormatTest, DrainEmptyTraceDeliversNothing) {
  {
    TraceWriter writer(path_, server_);
    writer.Flush();
  }
  TraceReader reader(path_);
  BatchSizeSink sink;
  EXPECT_EQ(reader.Drain(sink), 0u);
  EXPECT_TRUE(sink.sizes.empty());
}

// Overwrites byte `offset` of record `record` (after the 14-byte header).
void PatchRecordByte(const std::string& path, std::size_t record, std::size_t offset,
                     std::uint8_t value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(14 + 22 * record + offset));
  f.put(static_cast<char>(value));
}

TEST_F(TraceFormatTest, OutOfRangeEnumBytesRejected) {
  // Byte 16 is the direction (0/1), byte 17 the packet kind (<= kWebAck).
  for (const auto& [offset, value] : {std::pair<std::size_t, std::uint8_t>{16, 2},
                                      std::pair<std::size_t, std::uint8_t>{16, 255},
                                      std::pair<std::size_t, std::uint8_t>{17, 9}}) {
    {
      TraceWriter writer(path_, server_);
      for (int i = 0; i < 1100; ++i) writer.OnPacket(MakeRecord(i * 0.01, 40));
      writer.Flush();
    }
    PatchRecordByte(path_, 1050, offset, value);
    TraceReader reader(path_);
    BatchSizeSink sink;
    EXPECT_THROW((void)reader.Drain(sink), TraceError);
    EXPECT_EQ(sink.sizes, (std::vector<std::size_t>{1024}));

    TraceReader scalar(path_);
    for (int i = 0; i < 1050; ++i) ASSERT_TRUE(scalar.Next().has_value());
    EXPECT_THROW((void)scalar.Next(), TraceError);
  }
}

// Overwrites the 8-byte timestamp of record `record`.
void PatchRecordTimestamp(const std::string& path, std::size_t record, double t) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(14 + 22 * record));
  f.write(reinterpret_cast<const char*>(&t), sizeof(t));
}

TEST_F(TraceFormatTest, OutOfRangeTimestampsRejected) {
  // A timestamp must lie in [0, 2^32) s, the pcap epoch range.
  for (const double t : {std::numeric_limits<double>::quiet_NaN(), -1.0, 0x1p32}) {
    {
      TraceWriter writer(path_, server_);
      for (int i = 0; i < 1100; ++i) writer.OnPacket(MakeRecord(i * 0.01, 40));
      writer.Flush();
    }
    PatchRecordTimestamp(path_, 1050, t);
    TraceReader reader(path_);
    BatchSizeSink sink;
    try {
      (void)reader.Drain(sink);
      ADD_FAILURE() << "Drain accepted timestamp " << t;
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("bad timestamp"), std::string::npos) << e.what();
    }
    EXPECT_EQ(sink.sizes, (std::vector<std::size_t>{1024})) << t;

    TraceReader scalar(path_);
    for (int i = 0; i < 1050; ++i) ASSERT_TRUE(scalar.Next().has_value());
    EXPECT_THROW((void)scalar.Next(), TraceError) << t;
  }
}

TEST_F(TraceFormatTest, TimestampRangeEndsAreAccepted) {
  const double last = std::nextafter(0x1p32, 0.0);
  {
    TraceWriter writer(path_, server_);
    writer.OnPacket(MakeRecord(0.0, 40));
    writer.OnPacket(MakeRecord(last, 40));
    writer.Flush();
  }
  TraceReader reader(path_);
  EXPECT_EQ(reader.Next()->timestamp, 0.0);
  EXPECT_EQ(reader.Next()->timestamp, last);
  EXPECT_FALSE(reader.Next().has_value());
}

TEST_F(TraceFormatTest, BadMagicRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a trace file at all";
  }
  EXPECT_THROW(TraceReader reader(path_), std::runtime_error);
}

TEST_F(TraceFormatTest, TruncatedRecordThrows) {
  {
    TraceWriter writer(path_, server_);
    writer.OnPacket(MakeRecord(1.0, 40));
    writer.Flush();
  }
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 5);
  TraceReader reader(path_);
  EXPECT_THROW((void)reader.Next(), std::runtime_error);
}

TEST_F(TraceFormatTest, MissingFileRejected) {
  EXPECT_THROW(TraceReader("/nonexistent/missing.gtr"), std::runtime_error);
  EXPECT_THROW(TraceWriter("/nonexistent/missing.gtr", server_), std::runtime_error);
}

TEST_F(TraceFormatTest, CompactFormatIsTwentyTwoBytesPerRecord) {
  constexpr int kCount = 100;
  {
    TraceWriter writer(path_, server_);
    for (int i = 0; i < kCount; ++i) writer.OnPacket(MakeRecord(i, 40));
    writer.Flush();
  }
  const auto size = std::filesystem::file_size(path_);
  EXPECT_EQ(size, 14u + 22u * kCount);  // 14-byte header + 22 B/record
}

}  // namespace
}  // namespace gametrace::trace
