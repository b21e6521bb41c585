#include "core/characterizer.h"

#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "game/config.h"
#include "trace/trace_format.h"

namespace gametrace::core {
namespace {

// One shared 15-minute run for the expensive assertions.
class CharacterizerRun : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto cfg = game::GameConfig::ScaledDefaults(900.0);
    auto characterizer = std::make_unique<Characterizer>();
    RunServerTrace(cfg, *characterizer);
    report_ = new CharacterizationReport(characterizer->Finish(900.0));
  }
  static void TearDownTestSuite() {
    delete report_;
    report_ = nullptr;
  }

  static CharacterizationReport* report_;
};

CharacterizationReport* CharacterizerRun::report_ = nullptr;

TEST_F(CharacterizerRun, SummaryPopulated) {
  EXPECT_GT(report_->summary.total_packets(), 100000u);
  EXPECT_DOUBLE_EQ(report_->summary.duration(), 900.0);
  EXPECT_GT(report_->summary.mean_packet_load(), 300.0);
}

TEST_F(CharacterizerRun, MinuteSeriesCoverWindow) {
  // 15 minutes; the final tick may emit epsilon past the horizon and open
  // one extra bin.
  EXPECT_GE(report_->minute_packets_in.size(), 15u);
  EXPECT_LE(report_->minute_packets_in.size(), 16u);
  EXPECT_EQ(report_->minute_bytes_out.size(), report_->minute_packets_in.size());
  for (std::size_t i = 0; i < 15; ++i) EXPECT_GT(report_->minute_packets_in[i], 0.0);
}

TEST_F(CharacterizerRun, VtBaseSeriesAtTenMilliseconds) {
  EXPECT_DOUBLE_EQ(report_->vt_base_packets.interval(), 0.010);
  EXPECT_GE(report_->vt_base_packets.size(), 90000u);
  EXPECT_LE(report_->vt_base_packets.size(), 90010u);  // final-tick spill
}

TEST_F(CharacterizerRun, HurstRegionsMatchPaperShape) {
  // Figure 5's three regions: anti-persistent below 50 ms, high variance
  // in the middle, (the >30 min region needs a longer trace).
  EXPECT_LT(report_->hurst.small_scale, 0.45);
  EXPECT_GT(report_->hurst.mid_scale, 0.7);
}

TEST_F(CharacterizerRun, SizeHistogramsMatchPaperShape) {
  // Figure 12: inbound mode at ~40 B, outbound spread with a higher mean.
  const auto in_mode = report_->size_in.bin_center(report_->size_in.ModeBin());
  EXPECT_NEAR(in_mode, 40.0, 3.0);
  EXPECT_GT(report_->size_out.ApproxMean(), 2.8 * report_->size_in.ApproxMean());
  // Figure 13: almost all inbound below 60 B.
  const auto cdf_in = report_->size_in.Cdf();
  EXPECT_GT(cdf_in[60], 0.99);
  // The paper truncates at 500 B: nothing (or nearly nothing) above.
  EXPECT_LT(static_cast<double>(report_->size_total.overflow()),
            0.001 * static_cast<double>(report_->size_total.total()));
}

TEST_F(CharacterizerRun, SessionsReconstructed) {
  EXPECT_GT(report_->sessions.size(), 10u);
  EXPECT_GT(report_->session_bandwidth.total(), 0u);
}

TEST_F(CharacterizerRun, SessionBandwidthsPegAtModemRates) {
  // Figure 11: the bulk of session bandwidths at or below ~56 kbps.
  std::uint64_t below_56k = 0;
  std::uint64_t counted = 0;
  for (const auto& session : report_->sessions) {
    if (session.duration() <= 30.0) continue;
    ++counted;
    if (session.mean_bandwidth_bps() <= 56000.0) ++below_56k;
  }
  ASSERT_GT(counted, 0u);
  EXPECT_GT(static_cast<double>(below_56k) / static_cast<double>(counted), 0.9);
}

TEST(Characterizer, EmptyFinishIsSafe) {
  Characterizer characterizer;
  const auto report = characterizer.Finish();
  EXPECT_EQ(report.summary.total_packets(), 0u);
  EXPECT_TRUE(report.sessions.empty());
  EXPECT_TRUE(report.variance_time.points.empty());
}

TEST(Characterizer, VtWindowBoundsMemory) {
  CharacterizationOptions options;
  options.vt_window = 10.0;
  Characterizer characterizer(options);
  net::PacketRecord r;
  r.app_bytes = 40;
  for (int i = 0; i < 10000; ++i) {
    r.timestamp = i * 0.01;  // up to 100 s
    characterizer.OnPacket(r);
  }
  const auto report = characterizer.Finish(100.0);
  // Base series capped at the 10 s window, not the 100 s trace.
  EXPECT_EQ(report.vt_base_packets.size(), 1000u);
  // But the summary still covers everything.
  EXPECT_EQ(report.summary.total_packets(), 10000u);
}

TEST(Characterizer, CustomOverheadPropagates) {
  CharacterizationOptions options;
  options.wire_overhead = 0;
  Characterizer characterizer(options);
  net::PacketRecord r;
  r.timestamp = 0.5;
  r.app_bytes = 100;
  characterizer.OnPacket(r);
  const auto report = characterizer.Finish(1.0);
  EXPECT_EQ(report.summary.wire_bytes_total(), 100u);
  EXPECT_DOUBLE_EQ(report.minute_bytes_in[0], 100.0);
}

TEST(Characterizer, MinuteSpanIsCapped) {
  // A week of minutes bins normally; a timestamp near the .gtr format's
  // 2^32 s ceiling is refused before any series grows towards it.
  Characterizer characterizer;
  net::PacketRecord r;
  r.app_bytes = 40;
  r.timestamp = 626477.0;  // the paper's trace span
  characterizer.OnPacket(r);
  r.timestamp = 4294967295.0;
  try {
    characterizer.OnPacket(r);
    ADD_FAILURE() << "a timestamp past the span cap was binned";
  } catch (const trace::TraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
    EXPECT_NE(what.find("67108864"), std::string::npos) << what;
  }
  Characterizer week;
  r.timestamp = 626400.0;  // the last minute of the paper's week
  week.OnPacket(r);
  const auto report = week.Finish(626477.0);
  EXPECT_EQ(report.minute_packets_in.size(), 10442u);
  EXPECT_DOUBLE_EQ(report.minute_packets_in[10440], 1.0);
  EXPECT_THROW((void)Characterizer().Finish(trace::LoadAggregator::kMaxSpanSeconds * 2.0),
               trace::TraceError);
}

}  // namespace
}  // namespace gametrace::core
