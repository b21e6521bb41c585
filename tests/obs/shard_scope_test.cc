// ShardScope tests: runs one after another under one ambient context, each
// in a scope of its own, fold into one coherent record - one ring
// timeline, one flight grid, per-scope trace pids - and a scope under an
// unbound context leaves nothing behind. RunFleet's use of the scope is
// covered by the fleet identity tests (tests/core/fleet_test.cc,
// tests/core/flight_fleet_test.cc).
#include "obs/shard_scope.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <utility>

#include "core/experiment.h"
#include "game/config.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_log.h"
#include "obs/watchdog.h"
#include "trace/summary.h"

namespace gametrace::obs {
namespace {

constexpr double kDuration = 120.0;

TEST(ShardScope, SequentialRunsFoldIntoOneRecord) {
  MetricsRegistry metrics;
  TraceLog trace;
  FlightRecorder recorder(FlightRecorder::Options{.sample_period_seconds = 60.0});
  const ScopedObsBinding bind(
      {.metrics = &metrics, .trace = &trace, .recorder = &recorder, .heartbeat = false});
  const ObsContext ambient = Current();

  constexpr std::array<int, 2> kShards = {1, 2};
  std::uint64_t emitted = 0;
  std::array<std::uint64_t, 2> emitted_at_sample = {0, 0};
  for (const int shard : kShards) {
    auto config = game::GameConfig::ScaledDefaults(kDuration);
    config.seed = 100 + static_cast<std::uint64_t>(shard);
    ShardScope scope(ambient, shard);
    ASSERT_TRUE(scope.recorder().has_value());
    {
      const auto point = scope.Bind();
      EXPECT_EQ(Current().metrics, &scope.metrics());
      EXPECT_EQ(Current().trace->pid(), shard);
      trace::TraceSummary summary;
      emitted += core::RunServerTrace(config, summary).stats.packets_emitted;
    }
    EXPECT_EQ(Current().metrics, &metrics);
    ASSERT_EQ(scope.recorder()->size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      emitted_at_sample[i] +=
          scope.recorder()->at(i).metrics.counter_value("server.packets_emitted");
    }
    std::move(scope).MergeInto(ambient);
  }

  // One ring timeline: neither run fed bins the other had already passed.
  const stats::TieredRing* load = metrics.find_ring("server.load.pps");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->dropped_late(), 0u);
  EXPECT_EQ(metrics.counter_value("server.packets_emitted"), emitted);

  // One flight grid: the two runs' snapshots merged pairwise.
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.at(0).t_seconds, 60.0);
  EXPECT_EQ(recorder.at(1).t_seconds, 120.0);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(recorder.at(i).metrics.counter_value("server.packets_emitted"),
              emitted_at_sample[i]);
  }
  EXPECT_GT(emitted_at_sample[0], 0u);

  // Each trace event keeps the pid of the scope that recorded it.
  std::set<int> pids;
  for (const TraceLog::Event& event : trace.events()) pids.insert(event.pid);
  EXPECT_EQ(pids, (std::set<int>{1, 2}));
}

TEST(ShardScope, FollowsTheAmbientContext) {
  MetricsRegistry metrics;
  TraceLog trace;
  trace.SetCategoryEnabled("tick", true);
  FlightRecorder recorder(FlightRecorder::Options{.sample_period_seconds = 30.0});
  WatchdogEngine watchdog(WatchdogEngine::BuiltinRules());
  const ObsContext ambient{.metrics = &metrics,
                           .trace = &trace,
                           .recorder = &recorder,
                           .watchdog = &watchdog,
                           .prom_path = "live.prom",
                           .heartbeat = true};

  ShardScope first(ambient, /*shard_id=*/0);
  const ObsContext bound = first.context();
  EXPECT_EQ(bound.metrics, &first.metrics());
  EXPECT_EQ(bound.trace, &first.trace());
  EXPECT_EQ(bound.recorder, &*first.recorder());
  // Alerting and exposition happen once, over the merged stream.
  EXPECT_EQ(bound.watchdog, nullptr);
  EXPECT_EQ(bound.prom_path, nullptr);
  EXPECT_TRUE(bound.heartbeat);
  EXPECT_TRUE(first.trace().CategoryEnabled("tick"));
  ASSERT_TRUE(first.recorder().has_value());
  EXPECT_EQ(first.recorder()->options().sample_period_seconds, 30.0);

  // Only shard 0 keeps the heartbeat.
  ShardScope third(ambient, /*shard_id=*/2);
  EXPECT_FALSE(third.context().heartbeat);
  EXPECT_EQ(third.trace().pid(), 2);
}

TEST(ShardScope, UnderAnUnboundContextLeavesNothingBehind) {
  ASSERT_EQ(Current().metrics, nullptr);
  ShardScope scope(Current(), /*shard_id=*/0);
  EXPECT_FALSE(scope.recorder().has_value());
  {
    const auto bind = scope.Bind();
    trace::TraceSummary summary;
    (void)core::RunServerTrace(game::GameConfig::ScaledDefaults(60.0), summary);
  }
  // The run was observed in the scope, and the binding is gone with it.
  EXPECT_GT(scope.metrics().counter_value("server.packets_emitted"), 0u);
  std::move(scope).MergeInto(Current());
  EXPECT_EQ(Current().metrics, nullptr);
  EXPECT_EQ(Current().trace, nullptr);
  EXPECT_EQ(Current().recorder, nullptr);
  EXPECT_EQ(Current().watchdog, nullptr);
}

}  // namespace
}  // namespace gametrace::obs
