// Cross-format equivalence: the same simulated traffic analysed live, via
// the compact .gtr format, and via a real pcap file must yield identical
// statistics - the capture substrate cannot colour the analysis.
#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "core/experiment.h"
#include "game/config.h"
#include "net/pcap.h"
#include "trace/aggregator.h"
#include "trace/summary.h"
#include "trace/trace_format.h"

namespace gametrace {
namespace {

class RoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto base = std::filesystem::temp_directory_path() /
                      ("gametrace_rt_" + std::to_string(::getpid()) + "_" +
                       ::testing::UnitTest::GetInstance()->current_test_info()->name());
    gtr_path_ = base.string() + ".gtr";
    pcap_path_ = base.string() + ".pcap";
  }
  void TearDown() override {
    std::filesystem::remove(gtr_path_);
    std::filesystem::remove(pcap_path_);
  }

  std::string gtr_path_;
  std::string pcap_path_;
};

TEST_F(RoundTripTest, GtrRoundTripPreservesSummary) {
  auto cfg = game::GameConfig::ScaledDefaults(60.0);
  trace::TraceSummary live;
  trace::TraceWriter writer(gtr_path_, cfg.server);
  {
    trace::CaptureSink* sinks[] = {&live, &writer};
    core::RunServerTrace(cfg, sinks);
    writer.Flush();
  }

  trace::TraceReader reader(gtr_path_);
  trace::TraceSummary replayed;
  reader.Drain(replayed);

  EXPECT_EQ(replayed.total_packets(), live.total_packets());
  EXPECT_EQ(replayed.packets_in(), live.packets_in());
  EXPECT_EQ(replayed.app_bytes_total(), live.app_bytes_total());
  EXPECT_DOUBLE_EQ(replayed.mean_packet_size_in(), live.mean_packet_size_in());
  EXPECT_EQ(replayed.attempted_connections(), live.attempted_connections());
  EXPECT_EQ(replayed.established_connections(), live.established_connections());
}

TEST_F(RoundTripTest, PcapRoundTripPreservesSizesAndDirections) {
  auto cfg = game::GameConfig::ScaledDefaults(20.0);
  trace::TraceSummary live;
  net::PcapWriter writer(pcap_path_);
  trace::CallbackSink pcap_sink(
      [&](const net::PacketRecord& r) { writer.WriteRecord(r, cfg.server); });
  {
    trace::CaptureSink* sinks[] = {&live, &pcap_sink};
    core::RunServerTrace(cfg, sinks);
    writer.Flush();
  }

  net::PcapReader reader(pcap_path_);
  std::uint64_t skipped = 0;
  const auto records = reader.ReadAllRecords(cfg.server, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(records.size(), live.total_packets());

  trace::TraceSummary replayed;
  for (const auto& r : records) replayed.OnPacket(r);
  EXPECT_EQ(replayed.packets_in(), live.packets_in());
  EXPECT_EQ(replayed.packets_out(), live.packets_out());
  EXPECT_EQ(replayed.app_bytes_total(), live.app_bytes_total());
  // Pcap timestamps are quantised to 1 us; sizes must be byte-exact.
  EXPECT_DOUBLE_EQ(replayed.mean_packet_size_out(), live.mean_packet_size_out());
  // Handshake kinds ride the connectionless payload's tag.
  EXPECT_GT(live.attempted_connections(), 0u);
  EXPECT_EQ(replayed.attempted_connections(), live.attempted_connections());
  EXPECT_EQ(replayed.established_connections(), live.established_connections());
}

TEST_F(RoundTripTest, PcapFramesCarryValidChecksums) {
  auto cfg = game::GameConfig::ScaledDefaults(5.0);
  net::PcapWriter writer(pcap_path_);
  trace::CallbackSink pcap_sink(
      [&](const net::PacketRecord& r) { writer.WriteRecord(r, cfg.server); });
  core::RunServerTrace(cfg, pcap_sink);
  writer.Flush();

  net::PcapReader reader(pcap_path_);
  std::uint64_t checked = 0;
  while (auto pkt = reader.Next()) {
    net::ParsedUdpFrame parsed;
    ASSERT_TRUE(net::ParseUdpFrame(pkt->frame, parsed));
    ASSERT_TRUE(parsed.ip_checksum_ok);
    ASSERT_TRUE(parsed.udp_checksum_ok);
    ++checked;
  }
  EXPECT_GT(checked, 3000u);  // ~800 pps for 5 simulated seconds
}

TEST_F(RoundTripTest, EpochStampedPcapSummarizesAfterRebase) {
  // A real capture is stamped in Unix time. Unrebased, its timestamps lie
  // far past the minute series' span cap; rebased to the capture's first
  // second, it characterizes like the same traffic stamped from zero.
  constexpr double kEpoch = 1.7e9;
  auto cfg = game::GameConfig::ScaledDefaults(20.0);
  core::Characterizer live;
  net::PcapWriter writer(pcap_path_);
  trace::CallbackSink pcap_sink([&](const net::PacketRecord& r) {
    net::PacketRecord stamped = r;
    stamped.timestamp += kEpoch;
    writer.WriteRecord(stamped, cfg.server);
  });
  {
    trace::CaptureSink* sinks[] = {&live, &pcap_sink};
    core::RunServerTrace(cfg, sinks);
    writer.Flush();
  }
  const core::CharacterizationReport expected = live.Finish();

  net::PcapReader reader(pcap_path_);
  std::vector<net::PacketRecord> records = reader.ReadAllRecords(cfg.server);
  ASSERT_FALSE(records.empty());
  {
    core::Characterizer unrebased;
    EXPECT_THROW(
        for (const auto& r : records) unrebased.OnPacket(r), trace::TraceError);
  }
  EXPECT_EQ(net::RebaseToCaptureStart(records), kEpoch);
  core::Characterizer characterizer;
  for (const auto& r : records) characterizer.OnPacket(r);
  const core::CharacterizationReport report = characterizer.Finish();
  EXPECT_EQ(report.summary.total_packets(), expected.summary.total_packets());
  EXPECT_EQ(report.summary.app_bytes_total(), expected.summary.app_bytes_total());
  EXPECT_NEAR(report.summary.duration(), expected.summary.duration(), 1e-5);
  EXPECT_EQ(report.sessions.size(), expected.sessions.size());
  ASSERT_EQ(report.minute_packets_in.size(), expected.minute_packets_in.size());
  EXPECT_EQ(report.minute_packets_in.Sum(), expected.minute_packets_in.Sum());
  EXPECT_EQ(report.minute_packets_out.Sum(), expected.minute_packets_out.Sum());
}

}  // namespace
}  // namespace gametrace
