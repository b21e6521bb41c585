#include "trace/capture.h"

#include <vector>

#include <gtest/gtest.h>

#include "net/packet_batch.h"

namespace gametrace::trace {
namespace {

net::PacketRecord MakeRecord(double t, net::Direction dir, std::uint16_t bytes) {
  net::PacketRecord r;
  r.timestamp = t;
  r.app_bytes = bytes;
  r.direction = dir;
  return r;
}

TEST(CountingSink, CountsByDirection) {
  CountingSink sink;
  sink.OnPacket(MakeRecord(0.0, net::Direction::kClientToServer, 40));
  sink.OnPacket(MakeRecord(0.1, net::Direction::kClientToServer, 41));
  sink.OnPacket(MakeRecord(0.2, net::Direction::kServerToClient, 130));
  EXPECT_EQ(sink.packets(), 3u);
  EXPECT_EQ(sink.packets_in(), 2u);
  EXPECT_EQ(sink.packets_out(), 1u);
  EXPECT_EQ(sink.app_bytes(), 211u);
}

TEST(VectorSink, StoresRecordsInOrder) {
  VectorSink sink;
  sink.OnPacket(MakeRecord(1.0, net::Direction::kClientToServer, 1));
  sink.OnPacket(MakeRecord(2.0, net::Direction::kClientToServer, 2));
  ASSERT_EQ(sink.records().size(), 2u);
  EXPECT_EQ(sink.records()[0].app_bytes, 1);
  EXPECT_EQ(sink.records()[1].app_bytes, 2);
}

TEST(VectorSink, TakeRecordsMovesOut) {
  VectorSink sink;
  sink.OnPacket(MakeRecord(1.0, net::Direction::kClientToServer, 1));
  auto records = sink.TakeRecords();
  EXPECT_EQ(records.size(), 1u);
  EXPECT_TRUE(sink.records().empty());
}

TEST(TeeSink, ForwardsToAllAttached) {
  CountingSink a;
  CountingSink b;
  TeeSink tee;
  tee.Attach(a);
  tee.Attach(b);
  EXPECT_EQ(tee.sink_count(), 2u);
  tee.OnPacket(MakeRecord(0.0, net::Direction::kClientToServer, 40));
  EXPECT_EQ(a.packets(), 1u);
  EXPECT_EQ(b.packets(), 1u);
}

TEST(TeeSink, EmptyTeeIsNoop) {
  TeeSink tee;
  EXPECT_NO_THROW(tee.OnPacket(MakeRecord(0.0, net::Direction::kClientToServer, 40)));
}

TEST(CallbackSink, InvokesCallable) {
  int calls = 0;
  CallbackSink sink([&calls](const net::PacketRecord& r) {
    ++calls;
    EXPECT_EQ(r.app_bytes, 99);
  });
  sink.OnPacket(MakeRecord(0.0, net::Direction::kServerToClient, 99));
  EXPECT_EQ(calls, 1);
}

TEST(Replay, FeedsEveryRecord) {
  std::vector<net::PacketRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(MakeRecord(i * 0.1, net::Direction::kClientToServer, 40));
  }
  CountingSink sink;
  Replay(records, sink);
  EXPECT_EQ(sink.packets(), 10u);
}

TEST(Replay, EmptyVector) {
  CountingSink sink;
  Replay({}, sink);
  EXPECT_EQ(sink.packets(), 0u);
}

TEST(CaptureSink, RecordAdaptersDeliverOneRowBatches) {
  struct RowCounter final : CaptureSink {
    void OnColumns(const net::PacketBatch& batch) override {
      batch_sizes.push_back(batch.count);
      for (std::size_t i = 0; i < batch.count; ++i) seen.push_back(batch.RecordAt(i));
    }
    std::vector<std::size_t> batch_sizes;
    std::vector<net::PacketRecord> seen;
  };
  std::vector<net::PacketRecord> records;
  for (int i = 0; i < 3; ++i) {
    records.push_back(MakeRecord(i * 0.1, net::Direction::kServerToClient, 100 + i));
  }
  RowCounter sink;
  sink.OnPacket(records[0]);
  sink.OnBatch(std::span<const net::PacketRecord>(records).subspan(1));
  EXPECT_EQ(sink.batch_sizes, (std::vector<std::size_t>{1, 1, 1}));
  EXPECT_EQ(sink.seen, records);
}

// Records of one (client, port, direction) flow, in the given time order.
std::vector<net::PacketRecord> Flow(std::uint32_t ip, net::Direction dir,
                                    std::vector<double> times) {
  std::vector<net::PacketRecord> out;
  for (const double t : times) {
    net::PacketRecord r = MakeRecord(t, dir, 40);
    r.client_ip = net::Ipv4Address(ip);
    r.client_port = 27005;
    out.push_back(r);
  }
  return out;
}

bool ProbeAccepts(const std::vector<net::PacketRecord>& records) {
  net::ColumnarBatch columns;
  columns.Append(records);
  return internal::ColumnsPreservePerFlowOrder(columns.View());
}

TEST(FlowOrderProbe, AcceptsInterleavedFlows) {
  // A tick batch interleaves independent client clocks: globally out of
  // order, but each flow (client, port, direction) is non-decreasing.
  const auto a = Flow(0x0A000001, net::Direction::kClientToServer, {0.03, 0.04});
  const auto b = Flow(0x0A000002, net::Direction::kClientToServer, {0.01, 0.02});
  const auto a_out = Flow(0x0A000001, net::Direction::kServerToClient, {0.00, 0.05});
  EXPECT_TRUE(ProbeAccepts({a[0], b[0], a_out[0], b[1], a[1], a_out[1]}));
  // Equal timestamps within a flow are fine, and so is an empty batch.
  EXPECT_TRUE(ProbeAccepts(Flow(0x0A000003, net::Direction::kClientToServer, {0.5, 0.5})));
  EXPECT_TRUE(ProbeAccepts({}));
}

TEST(FlowOrderProbe, RejectsRegressionWithinAFlow) {
  const auto a = Flow(0x0A000001, net::Direction::kClientToServer, {0.04, 0.03});
  const auto b = Flow(0x0A000002, net::Direction::kClientToServer, {0.01, 0.02});
  EXPECT_FALSE(ProbeAccepts({b[0], a[0], b[1], a[1]}));
  // The probe's scratch is reused across batches: a clean batch after a
  // rejected one must pass again.
  EXPECT_TRUE(ProbeAccepts({b[0], b[1]}));
}

}  // namespace
}  // namespace gametrace::trace
