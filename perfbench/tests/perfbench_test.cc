// Tests of the benchmark's own machinery: the timing sink must not change
// what the analysis computes, and a traced repetition's self times plus
// its residual must add up to its wall time.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "checks.h"
#include "core/characterizer.h"
#include "core/experiment.h"
#include "game/config.h"
#include "timing.h"
#include "trace/capture.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace gt = gametrace;

constexpr double kWindow = 300.0;

TEST(SpanLog, SelfTimesSubtractChildrenAndSumToRoot) {
  SpanLog log;
  const int root = log.Open("rep", -1, 0);
  const int a = log.Add("a", root, 60);
  log.Add("a.child", a, 25);
  log.Add("b", root, 30);
  log.Close(root, 100);
  const std::vector<std::int64_t> self = log.SelfTimes();
  EXPECT_EQ(self, (std::vector<std::int64_t>{10, 35, 25, 30}));
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}), 100);
  EXPECT_EQ(log.Self("a"), 35);
  EXPECT_EQ(log.Total("b"), 30);
  EXPECT_EQ(log.Total("missing"), 0);
}

TEST(TimingSink, ForwardsEveryTierAndCountsPackets) {
  gt::game::GameConfig config = gt::game::GameConfig::ScaledDefaults(kWindow);
  gt::trace::CountingSink direct;
  gt::trace::CountingSink behind;
  TimingSink timing(behind, /*traced=*/true);
  gt::trace::CaptureSink* sinks[] = {&direct, &timing};
  const auto run = gt::core::RunServerTrace(config, sinks);

  EXPECT_EQ(behind.packets(), direct.packets());
  EXPECT_EQ(behind.packets_in(), direct.packets_in());
  EXPECT_EQ(behind.app_bytes(), direct.app_bytes());
  EXPECT_EQ(timing.columns().packets + timing.scalar().packets, run.stats.packets_emitted);
  EXPECT_GT(timing.columns().calls, 0u);
  EXPECT_GT(timing.first_packet_ns(), 0);
}

TEST(TimingSink, LeavesReportsIdentical) {
  const ServerRep plain = RunPaperServerRep(7, kWindow, /*decorated=*/false, nullptr);
  const ServerRep stamped = RunPaperServerRep(7, kWindow, /*decorated=*/true, nullptr);
  SpanLog log;
  const ServerRep traced = RunPaperServerRep(7, kWindow, /*decorated=*/true, &log);

  const std::string expected = SerializeReport(*plain.report);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(SerializeReport(*stamped.report), expected);
  EXPECT_EQ(SerializeReport(*traced.report), expected);
  EXPECT_GT(stamped.setup_ns, 0);
  EXPECT_EQ(plain.setup_ns, 0);
}

TEST(Ledger, SelfTimesPlusResidualSumToTracedWall) {
  SpanLog log;
  const ServerRep rep = RunPaperServerRep(11, kWindow, /*decorated=*/true, &log);
  ASSERT_FALSE(log.empty());
  const std::int64_t wall = log.spans().front().total_ns;
  EXPECT_EQ(wall, rep.wall_ns);

  const std::vector<std::int64_t> self = log.SelfTimes();
  const std::int64_t residual = self.front();
  const std::int64_t layers = std::accumulate(self.begin() + 1, self.end(), std::int64_t{0});
  EXPECT_EQ(layers + residual, wall);
  // The residual is glue between spans, not a hidden layer.
  EXPECT_GE(residual, 0);
  EXPECT_LT(static_cast<double>(residual), 0.05 * static_cast<double>(wall));
  for (std::size_t i = 0; i < self.size(); ++i) {
    EXPECT_GE(self[i], 0) << log.spans()[i].name;
  }
  EXPECT_GT(log.Self("game.generate"), 0);
  EXPECT_GT(log.Total("core.characterizer.on_columns"), 0);
  EXPECT_GT(log.Total("core.characterizer.finish"), 0);
}

TEST(Checks, ReferenceServerPassesInvariantsAndBands) {
  const ServerRep rep = RunPaperServerRep(3, 1800.0, /*decorated=*/false, nullptr);
  CheckList checks;
  CheckConservation(checks, *rep.report, rep.stats.packets_emitted);
  CheckPaperBands(checks, rep.report->summary, rep.mean_players);
  for (const Check& check : checks.checks()) {
    EXPECT_TRUE(check.pass) << check.name << ": " << check.detail;
  }
  EXPECT_DOUBLE_EQ(checks.pass_frac(), 1.0);

  CheckList broken;
  CheckConservation(broken, *rep.report, rep.stats.packets_emitted + 1);
  EXPECT_FALSE(broken.all_pass());
  EXPECT_LT(broken.pass_frac(), 1.0);
}

}  // namespace
}  // namespace perfbench
