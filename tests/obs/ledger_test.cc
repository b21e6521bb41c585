// Cost-ledger accounting semantics: idle scopes record nothing, enabled
// scopes count calls, nested scopes charge exclusive time, and an active
// ExportSession holds the `run` root.
#include "obs/ledger.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <thread>

#include "obs/exporter.h"
#include "obs/metrics.h"

namespace gametrace::obs {
namespace {

std::uint64_t Calls(Layer layer) { return LedgerSnapshot()[static_cast<std::size_t>(layer)].calls; }
std::uint64_t Nanos(Layer layer) { return LedgerSnapshot()[static_cast<std::size_t>(layer)].ns; }

void ScopedWork() { const LayerScope scope(Layer::kGameGenerate); }

TEST(Ledger, IdleScopesRecordNothing) {
  EnableLedger(false);
  ResetLedger();
  for (int i = 0; i < 10; ++i) ScopedWork();
  EXPECT_EQ(Calls(Layer::kGameGenerate), 0u);
}

TEST(Ledger, ActiveScopesCountCallsAndTime) {
  EnableLedger(true);
  ResetLedger();
  for (int i = 0; i < 7; ++i) ScopedWork();
  {
    const LayerScope scope(Layer::kTraceEncode);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EnableLedger(false);
  EXPECT_EQ(Calls(Layer::kGameGenerate), 7u);
  EXPECT_EQ(Calls(Layer::kTraceEncode), 1u);
  EXPECT_GE(Nanos(Layer::kTraceEncode), 2'000'000u);
}

TEST(Ledger, EnableMidstreamOnlyCountsActiveWindow) {
  EnableLedger(false);
  ResetLedger();
  ScopedWork();  // idle: not counted
  EnableLedger(true);
  ScopedWork();
  ScopedWork();
  EnableLedger(false);
  ScopedWork();  // idle again
  EXPECT_EQ(Calls(Layer::kGameGenerate), 2u);
}

TEST(Ledger, NestedScopesChargeExclusiveTime) {
  EnableLedger(true);
  ResetLedger();
  {
    const LayerScope parent(Layer::kSimDispatch);
    const LayerScope child(Layer::kGameGenerate);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EnableLedger(false);
  EXPECT_GE(Nanos(Layer::kGameGenerate), 20'000'000u);
  EXPECT_LT(Nanos(Layer::kSimDispatch), 5'000'000u);
  EXPECT_EQ(Calls(Layer::kSimDispatch), 1u);
}

TEST(Ledger, SnapshotIsIndexedByLayer) {
  // Every layer is named, once.
  std::set<std::string_view> names(kLayerNames.begin(), kLayerNames.end());
  EXPECT_EQ(names.size(), kLayerCount);
  EXPECT_EQ(names.count(""), 0u);
  EXPECT_EQ(kLayerNames[static_cast<std::size_t>(Layer::kRun)], "run");
  EXPECT_EQ(kLayerNames[static_cast<std::size_t>(Layer::kRouterNat)], "router.nat");

  EnableLedger(true);
  ResetLedger();
  {
    const LayerScope scope(Layer::kFleetMerge);
  }
  EnableLedger(false);
  const LedgerTallies tallies = LedgerSnapshot();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    EXPECT_EQ(tallies[i].calls, i == static_cast<std::size_t>(Layer::kFleetMerge) ? 1u : 0u)
        << kLayerNames[i];
  }
}

TEST(Ledger, DumpLedgerIntoWritesCounterPairs) {
  EnableLedger(true);
  ResetLedger();
  for (int i = 0; i < 3; ++i) ScopedWork();
  EnableLedger(false);

  MetricsRegistry registry;
  DumpLedgerInto(registry);
  EXPECT_EQ(registry.counter_value("ledger.game.generate.calls"), 3u);
  // Every layer gets both counters, fired or not; an empty scope's time
  // can legitimately round to zero.
  const std::string json = registry.ToJson();
  for (const std::string_view name : kLayerNames) {
    EXPECT_NE(json.find("\"ledger." + std::string(name) + ".ns\""), std::string::npos) << name;
    EXPECT_NE(json.find("\"ledger." + std::string(name) + ".calls\""), std::string::npos)
        << name;
  }
}

TEST(Ledger, ResetZeroesEveryLayer) {
  EnableLedger(true);
  ResetLedger();
  ScopedWork();
  EXPECT_EQ(Calls(Layer::kGameGenerate), 1u);
  ResetLedger();
  EXPECT_EQ(Calls(Layer::kGameGenerate), 0u);
  EXPECT_EQ(Nanos(Layer::kGameGenerate), 0u);
  ScopedWork();
  EnableLedger(false);
  EXPECT_EQ(Calls(Layer::kGameGenerate), 1u);
}

TEST(Ledger, ExportSessionHoldsTheRunRoot) {
  const std::string dir = ::testing::TempDir() + "ledger_test";
  std::filesystem::remove_all(dir);
  ExportOptions options;
  options.metrics_path = dir + "/metrics.json";
  options.dump_path = dir + "/flight_dump.json";
  {
    ExportSession session(std::move(options));
    EXPECT_TRUE(LedgerEnabled());
    {
      const LayerScope scope(Layer::kGameGenerate);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(session.Finish(), 0);
    EXPECT_FALSE(LedgerEnabled());
    const MetricsRegistry& metrics = session.metrics();
    EXPECT_EQ(metrics.counter_value("ledger.run.calls"), 1u);
    EXPECT_EQ(metrics.counter_value("ledger.game.generate.calls"), 1u);
    // The generate time is the run's child, not part of its self time.
    EXPECT_GE(metrics.counter_value("ledger.game.generate.ns"), 5'000'000u);
    EXPECT_LT(metrics.counter_value("ledger.run.ns"),
              metrics.counter_value("ledger.game.generate.ns"));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gametrace::obs
