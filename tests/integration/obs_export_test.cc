// End-to-end observability: run the calibrated server under a bound
// ObsContext and check that (a) the sim-derived counters agree exactly
// with the server's own Stats bookkeeping, even when bare components run
// under the same binding, and (b) the exported trace is
// valid Chrome trace_event JSON whose spans tell the same story.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/experiment.h"
#include "game/config.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_log.h"
#include "router/nat_device.h"
#include "sim/simulator.h"
#include "trace/capture.h"

#include "../obs/json_reader.h"

namespace gametrace {
namespace {

using gametrace::testing::JsonReader;

struct ObservedRun {
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  core::ServerTraceResult result;
};

ObservedRun RunObserved(double duration, bool tick_spans = false) {
  ObservedRun run;
  if (tick_spans) run.trace.SetCategoryEnabled("tick", true);
  const obs::ScopedObsBinding bind(
      {.metrics = &run.metrics, .trace = &run.trace, .shard_id = 0, .heartbeat = false});
  const auto config = game::GameConfig::ScaledDefaults(duration);
  trace::CountingSink sink;
  run.result = core::RunServerTrace(config, sink);
  return run;
}

TEST(ObsExport, CountersAgreeWithServerStats) {
  const auto run = RunObserved(600.0);
  const auto& stats = run.result.stats;
  const auto& m = run.metrics;
  EXPECT_EQ(m.counter_value("server.packets_emitted"), stats.packets_emitted);
  EXPECT_EQ(m.counter_value("server.connections.attempted"), stats.attempts);
  EXPECT_EQ(m.counter_value("server.connections.established"), stats.established);
  EXPECT_EQ(m.counter_value("server.connections.refused"), stats.refused);
  EXPECT_EQ(m.counter_value("server.disconnects.orderly"), stats.orderly_disconnects);
  EXPECT_EQ(m.counter_value("server.disconnects.outage"), stats.outage_disconnects);
  EXPECT_EQ(m.counter_value("server.maps_started"),
            static_cast<std::uint64_t>(stats.maps_played));
  EXPECT_EQ(m.counter_value("server.rounds_started"), stats.rounds_played);
  EXPECT_EQ(m.gauge_value("server.peak_players"), static_cast<double>(stats.peak_players));
  EXPECT_GT(m.counter_value("sim.events_executed"), 0u);
  EXPECT_GT(m.gauge_value("sim.queue.high_water"), 0.0);
}

// A count reaches the registry only through the run harness. A bare
// server and device built under the same binding afterwards (as Table IV's
// sequence-gap cross-check once did) add nothing to it.
TEST(ObsExport, BareComponentsUnderABindingCountNothing) {
  obs::MetricsRegistry metrics;
  const obs::ScopedObsBinding bind({.metrics = &metrics, .heartbeat = false});
  auto config = core::NatExperimentConfig::Defaults();
  config.duration = 120.0;
  config.game.trace_duration = config.duration;
  config.game.maps.map_duration = config.duration + 60.0;
  const core::NatExperimentResult result = core::RunNatExperiment(config);
  ASSERT_GT(result.livelock_episodes, 0);
  {
    sim::Simulator simulator;
    router::NatDevice nat(simulator, config.device);
    game::CsServer server(simulator, config.game, nat.injector());
    nat.Start();
    server.Start();
    simulator.RunUntil(config.duration);
  }
  EXPECT_EQ(metrics.counter_value("server.packets_emitted"), result.server.packets_emitted);
  EXPECT_EQ(metrics.counter_value("nat.livelock_episodes"),
            static_cast<std::uint64_t>(result.livelock_episodes));
}

TEST(ObsExport, TraceJsonRoundTripsThroughAParser) {
  const auto run = RunObserved(600.0);
  const auto doc = JsonReader::Parse(run.trace.ToJson());

  EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");
  EXPECT_EQ(doc.at("otherData").at("dropped_events").number, 0.0);
  const auto& events = doc.at("traceEvents").items;
  ASSERT_FALSE(events.empty());

  std::set<std::string> cats;
  bool saw_run_span = false;
  double prev_ts = -1.0;
  for (const auto& event : events) {
    const std::string& ph = event.at("ph").text;
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C") << "unexpected ph " << ph;
    EXPECT_GE(event.at("ts").number, 0.0);
    EXPECT_GE(event.at("ts").number, prev_ts);  // stable ts-sorted export
    prev_ts = event.at("ts").number;
    cats.insert(event.at("cat").text);
    if (event.at("name").text == "server_trace") {
      saw_run_span = true;
      EXPECT_EQ(ph, "X");
      // The run span covers the simulated window (in microseconds).
      EXPECT_GE(event.at("dur").number, 600.0 * 1e6 * 0.99);
    }
  }
  EXPECT_TRUE(saw_run_span);
  EXPECT_TRUE(cats.count("map")) << "expected map rotation spans";
  EXPECT_TRUE(cats.count("session")) << "expected connect/disconnect instants";
}

TEST(ObsExport, TickSpansAreOptIn) {
  const auto quiet = RunObserved(120.0, /*tick_spans=*/false);
  const auto verbose = RunObserved(120.0, /*tick_spans=*/true);

  auto count_ticks = [](const obs::TraceLog& log) {
    std::size_t n = 0;
    for (const auto& event : log.events()) {
      if (std::string(event.cat) == "tick") ++n;
    }
    return n;
  };
  EXPECT_EQ(count_ticks(quiet.trace), 0u);
  // 120 s at a 50 ms tick: one span per tick.
  EXPECT_EQ(count_ticks(verbose.trace), verbose.result.stats.ticks);
  EXPECT_GT(verbose.result.stats.ticks, 0u);
}

TEST(ObsExport, MetricsJsonRoundTripsThroughAParser) {
  const auto run = RunObserved(300.0);
  const auto doc = JsonReader::Parse(run.metrics.ToJson());
  EXPECT_EQ(doc.at("counters").at("server.packets_emitted").number,
            static_cast<double>(run.result.stats.packets_emitted));
  EXPECT_EQ(doc.at("gauges").at("server.peak_players").at("merge").text, "max");
}

}  // namespace
}  // namespace gametrace
