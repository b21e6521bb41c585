// Black-box integration: a GT_CHECK violation mid-simulation leaves a
// parseable flight_dump.json carrying the latest snapshot, and an injected
// NAT overload raises the Table-IV meltdown alert on the sampling grid.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "game/config.h"
#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_log.h"
#include "obs/watchdog.h"
#include "trace/capture.h"

#include "core/check.h"

#include "../obs/json_reader.h"

namespace gametrace {
namespace {

using gametrace::testing::JsonReader;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Trips a contract once the simulated clock crosses `trip_at` - the stand-in
// for any mid-run invariant failure deep inside a consumer.
class TrippingSink final : public trace::CaptureSink {
 public:
  explicit TrippingSink(double trip_at) : trip_at_(trip_at) {}
  void OnColumns(const net::PacketBatch& batch) override {
    for (std::size_t i = 0; i < batch.count; ++i) {
      GT_CHECK(batch.timestamps[i] < trip_at_)
          << "synthetic black-box trip at t=" << batch.timestamps[i];
    }
  }

 private:
  double trip_at_;
};

// The satellite acceptance test: install the black-box guard, trip a
// GT_CHECK mid-simulation, and the dump file exists, parses, and carries
// the most recent flight snapshot.
TEST(FlightBlackbox, ContractViolationMidSimLeavesAParseableDump) {
  const std::string path = ::testing::TempDir() + "blackbox/flight_dump.json";
  std::remove(path.c_str());

  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  obs::FlightRecorder recorder(obs::FlightRecorder::Options{.sample_period_seconds = 60.0});
  const obs::ScopedObsBinding bind(
      {.metrics = &metrics, .trace = &trace, .recorder = &recorder, .heartbeat = false});
  const obs::ScopedFlightDump guard(path);

  // The sink trips at t = 70, after the t = 60 snapshot has been recorded.
  const auto config = game::GameConfig::ScaledDefaults(300.0);
  TrippingSink sink(70.0);
  EXPECT_THROW(core::RunServerTrace(config, sink), ContractViolation);

  ASSERT_FALSE(recorder.empty());
  EXPECT_EQ(recorder.latest().t_seconds, 60.0);

  const auto doc = JsonReader::Parse(ReadFile(path));
  EXPECT_EQ(doc.at("reason").text, "contract_violation");
  EXPECT_NE(doc.at("failure").at("message").text.find("synthetic black-box trip"),
            std::string::npos);
  EXPECT_GT(doc.at("failure").at("line").number, 0.0);

  // The dump's newest snapshot is the recorder's latest, metrics included.
  const auto& snapshots = doc.at("snapshots").items;
  ASSERT_FALSE(snapshots.empty());
  const auto& last = snapshots.back();
  EXPECT_EQ(last.at("t").number, 60.0);
  EXPECT_EQ(last.at("seq").number,
            static_cast<double>(recorder.sequence_of(recorder.size() - 1)));
  EXPECT_EQ(last.at("metrics").at("counters").at("server.packets_emitted").number,
            static_cast<double>(
                recorder.latest().metrics.counter_value("server.packets_emitted")));

  // The sim-time trace tail made it into the box alongside the snapshots.
  EXPECT_FALSE(doc.at("trace_tail").items.empty());
}

// The other satellite acceptance test: an injected NAT overload run emits
// the meltdown alert at the expected sim-time (the first sampling point,
// since the offered load is above threshold from the start).
TEST(FlightBlackbox, NatOverloadRaisesTheMeltdownAlertOnSchedule) {
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  obs::FlightRecorder recorder(obs::FlightRecorder::Options{.sample_period_seconds = 60.0});
  obs::WatchdogEngine watchdog(obs::WatchdogEngine::BuiltinRules());
  const obs::ScopedObsBinding bind({.metrics = &metrics,
                                    .trace = &trace,
                                    .recorder = &recorder,
                                    .watchdog = &watchdog,
                                    .heartbeat = false});

  // The paper's Table-IV setup offers ~920 pps into the device - beyond
  // the ~850 pps meltdown threshold from the first minute on.
  auto config = core::NatExperimentConfig::Defaults();
  config.game.trace_duration = 120.0;
  config.game.maps.map_duration = 180.0;  // one uninterrupted map
  (void)core::RunNatExperiment(config);

  ASSERT_EQ(recorder.size(), 2u);  // t = 60 and t = 120
  EXPECT_GT(recorder.latest().metrics.counter_value("nat.device.packets"), 0u);

  const auto& alerts = watchdog.alerts();
  const obs::Alert* meltdown = nullptr;
  for (const auto& alert : alerts) {
    if (alert.rule == "nat.meltdown") {
      meltdown = &alert;
      break;
    }
  }
  ASSERT_NE(meltdown, nullptr) << "overload run must trip the meltdown rule";
  EXPECT_EQ(meltdown->t_seconds, 60.0);  // first snapshot of the overload
  EXPECT_GT(meltdown->value, 850.0);
  EXPECT_EQ(meltdown->threshold, 850.0);

  // Live CatchUp during the run already saw everything; a final CatchUp
  // adds nothing (the cursor contract).
  const std::size_t before = alerts.size();
  watchdog.CatchUp(recorder);
  EXPECT_EQ(watchdog.alerts().size(), before);
}

}  // namespace
}  // namespace gametrace
