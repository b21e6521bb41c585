// FlightRecorder tests: ring bookkeeping, the deterministic snapshot-wise
// merge and its grid contract, byte-stable JSONL serialization, and the
// black-box dump (WriteFlightDump, ScopedFlightDump, DumpFlightNow).
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_log.h"

#include "core/check.h"

#include "json_reader.h"

namespace gametrace::obs {
namespace {

using gametrace::testing::JsonReader;
using gametrace::testing::JsonValue;

MetricsRegistry MakeRegistry(std::uint64_t packets, double players) {
  MetricsRegistry metrics;
  metrics.counter("server.packets_emitted").Add(packets);
  metrics.gauge("server.active_players").Set(players);
  return metrics;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FlightRecorder, RingEvictsOldestAndKeepsGlobalSequence) {
  FlightRecorder recorder(
      FlightRecorder::Options{.sample_period_seconds = 60.0, .max_snapshots = 3});
  EXPECT_TRUE(recorder.empty());
  for (int i = 1; i <= 5; ++i) {
    recorder.Sample(60.0 * i, MakeRegistry(static_cast<std::uint64_t>(i) * 100, i));
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.total_samples(), 5u);
  EXPECT_EQ(recorder.evicted(), 2u);
  // Held snapshots are the last three samples; "seq" stays global.
  EXPECT_EQ(recorder.sequence_of(0), 2u);
  EXPECT_EQ(recorder.sequence_of(2), 4u);
  EXPECT_EQ(recorder.at(0).t_seconds, 180.0);
  EXPECT_EQ(recorder.latest().t_seconds, 300.0);
  EXPECT_EQ(recorder.latest().metrics.counter_value("server.packets_emitted"), 500u);
}

TEST(FlightRecorder, OptionsAreValidated) {
  EXPECT_THROW(FlightRecorder(FlightRecorder::Options{.sample_period_seconds = 0.0}),
               ContractViolation);
  EXPECT_THROW(FlightRecorder(FlightRecorder::Options{.sample_period_seconds = -1.0}),
               ContractViolation);
  EXPECT_THROW(
      FlightRecorder(FlightRecorder::Options{.sample_period_seconds = 60.0, .max_snapshots = 0}),
      ContractViolation);
}

// One recorder follows one clock. A sample at or before the last one is a
// run that restarted its clock in a shared recorder; such runs sample
// recorders of their own and fold them with Merge.
TEST(FlightRecorder, SampleRejectsRepeatedOrEarlierTimestamps) {
  FlightRecorder recorder(
      FlightRecorder::Options{.sample_period_seconds = 60.0, .max_snapshots = 1});
  recorder.Sample(60.0, MakeRegistry(1, 1));
  recorder.Sample(120.0, MakeRegistry(2, 1));  // evicts t = 60
  EXPECT_THROW(recorder.Sample(120.0, MakeRegistry(3, 1)), ContractViolation);
  EXPECT_THROW(recorder.Sample(90.0, MakeRegistry(3, 1)), ContractViolation);
  EXPECT_THROW(recorder.Sample(60.0, MakeRegistry(3, 1)), ContractViolation);
  // The rejected samples left the ring as it was.
  EXPECT_EQ(recorder.total_samples(), 2u);
  EXPECT_EQ(recorder.latest().t_seconds, 120.0);
  recorder.Sample(180.0, MakeRegistry(3, 1));
  EXPECT_EQ(recorder.latest().t_seconds, 180.0);
}

TEST(FlightRecorder, MergeReducesSnapshotwise) {
  FlightRecorder a;
  FlightRecorder b;
  a.Sample(60.0, MakeRegistry(100, 3));
  a.Sample(120.0, MakeRegistry(200, 4));
  b.Sample(60.0, MakeRegistry(10, 1));
  b.Sample(120.0, MakeRegistry(20, 2));

  a.Merge(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at(0).metrics.counter_value("server.packets_emitted"), 110u);
  EXPECT_EQ(a.at(0).metrics.gauge_value("server.active_players"), 4.0);  // kSum
  EXPECT_EQ(a.at(1).metrics.counter_value("server.packets_emitted"), 220u);
  EXPECT_EQ(a.at(1).metrics.gauge_value("server.active_players"), 6.0);
}

TEST(FlightRecorder, MergeAdoptsFromEitherEmptySide) {
  FlightRecorder filled;
  filled.Sample(60.0, MakeRegistry(100, 3));

  FlightRecorder empty;
  empty.Merge(filled);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty.total_samples(), 1u);
  EXPECT_EQ(empty.at(0).metrics.counter_value("server.packets_emitted"), 100u);

  FlightRecorder other;
  filled.Merge(other);  // merging an empty side is a no-op
  EXPECT_EQ(filled.size(), 1u);
  EXPECT_EQ(filled.at(0).metrics.counter_value("server.packets_emitted"), 100u);
}

TEST(FlightRecorder, MergeRejectsMismatchedGrids) {
  FlightRecorder two;
  two.Sample(60.0, MakeRegistry(1, 1));
  two.Sample(120.0, MakeRegistry(2, 1));

  FlightRecorder one;
  one.Sample(60.0, MakeRegistry(1, 1));
  EXPECT_THROW(two.Merge(one), ContractViolation);  // different snapshot counts

  FlightRecorder shifted;
  shifted.Sample(30.0, MakeRegistry(1, 1));
  shifted.Sample(90.0, MakeRegistry(2, 1));
  EXPECT_THROW(two.Merge(shifted), ContractViolation);  // different timestamps

  // Same held size but different eviction history is also a grid mismatch.
  FlightRecorder ring(FlightRecorder::Options{.sample_period_seconds = 60.0, .max_snapshots = 2});
  ring.Sample(0.0, MakeRegistry(1, 1));
  ring.Sample(60.0, MakeRegistry(2, 1));
  ring.Sample(120.0, MakeRegistry(3, 1));
  FlightRecorder flat(FlightRecorder::Options{.sample_period_seconds = 60.0, .max_snapshots = 2});
  flat.Sample(60.0, MakeRegistry(2, 1));
  flat.Sample(120.0, MakeRegistry(3, 1));
  EXPECT_THROW(ring.Merge(flat), ContractViolation);
}

TEST(FlightRecorder, JsonlRoundTripsAndIsByteStable) {
  auto build = [] {
    FlightRecorder recorder(
        FlightRecorder::Options{.sample_period_seconds = 60.0, .max_snapshots = 2});
    for (int i = 1; i <= 3; ++i) {
      recorder.Sample(60.0 * i, MakeRegistry(static_cast<std::uint64_t>(i) * 7, i));
    }
    return recorder;
  };
  const FlightRecorder recorder = build();
  const std::string jsonl = recorder.ToJsonl();

  // Equal recorders serialize to equal bytes - what the fleet bit-identity
  // tests lean on.
  EXPECT_EQ(jsonl, build().ToJsonl());

  std::ostringstream streamed;
  recorder.WriteJsonl(streamed);
  EXPECT_EQ(streamed.str(), jsonl);

  const auto lines = Lines(jsonl);
  ASSERT_EQ(lines.size(), 2u);  // ring of 2 held the last two samples
  const auto first = JsonReader::Parse(lines[0]);
  EXPECT_EQ(first.at("t").number, 120.0);
  EXPECT_EQ(first.at("seq").number, 1.0);  // global sequence despite eviction
  EXPECT_EQ(first.at("metrics").at("counters").at("server.packets_emitted").number, 14.0);
  const auto second = JsonReader::Parse(lines[1]);
  EXPECT_EQ(second.at("t").number, 180.0);
  EXPECT_EQ(second.at("seq").number, 2.0);
  EXPECT_EQ(second.at("metrics").at("gauges").at("server.active_players").at("value").number,
            3.0);
}

TEST(FlightDump, DocumentCarriesFailureSnapshotsAndTraceTail) {
  FlightRecorder recorder;
  for (int i = 1; i <= 3; ++i) {
    recorder.Sample(60.0 * i, MakeRegistry(static_cast<std::uint64_t>(i) * 10, i));
  }
  TraceLog trace;
  trace.Instant("late", "session", 110.0);
  trace.Instant("early", "session", 10.0);

  const ContractFailure failure{.file = "somewhere.cc",
                                .line = 42,
                                .condition = "x > 0",
                                .message = "synthetic failure"};
  std::ostringstream out;
  WriteFlightDump(out, "unit_test", &recorder, &trace, &failure,
                  FlightDumpOptions{.last_snapshots = 2, .last_trace_events = 8});

  const auto doc = JsonReader::Parse(out.str());
  EXPECT_EQ(doc.at("reason").text, "unit_test");
  EXPECT_EQ(doc.at("failure").at("file").text, "somewhere.cc");
  EXPECT_EQ(doc.at("failure").at("line").number, 42.0);
  EXPECT_EQ(doc.at("failure").at("condition").text, "x > 0");
  EXPECT_EQ(doc.at("failure").at("message").text, "synthetic failure");
  EXPECT_EQ(doc.at("total_samples").number, 3.0);
  EXPECT_EQ(doc.at("evicted_snapshots").number, 0.0);

  // last_snapshots = 2 keeps only the most recent two, newest last.
  const auto& snapshots = doc.at("snapshots").items;
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].at("t").number, 120.0);
  EXPECT_EQ(snapshots[1].at("t").number, 180.0);
  EXPECT_EQ(snapshots[1].at("metrics").at("counters").at("server.packets_emitted").number, 30.0);

  // The trace tail is sim-time sorted, not push-order.
  const auto& tail = doc.at("trace_tail").items;
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].at("name").text, "early");
  EXPECT_EQ(tail[1].at("name").text, "late");
  EXPECT_EQ(tail[1].at("ph").text, "i");
  EXPECT_EQ(doc.at("trace_dropped_events").number, 0.0);
  // One entry per ledger layer, in layer order.
  const auto& ledger = doc.at("ledger").items;
  ASSERT_EQ(ledger.size(), kLayerCount);
  EXPECT_EQ(ledger[0].at("layer").text, "run");
  EXPECT_EQ(ledger[kLayerCount - 1].at("layer").text, "fleet.merge");
}

TEST(FlightDump, NullSectionsProduceAnEmptyButValidDocument) {
  std::ostringstream out;
  WriteFlightDump(out, "bare", nullptr, nullptr, nullptr);
  const auto doc = JsonReader::Parse(out.str());
  EXPECT_EQ(doc.at("reason").text, "bare");
  EXPECT_FALSE(doc.has("failure"));
  EXPECT_TRUE(doc.at("snapshots").items.empty());
  EXPECT_TRUE(doc.at("trace_tail").items.empty());
}

TEST(FlightDump, ScopedGuardWritesOnContractViolationThenChains) {
  const std::string path = ::testing::TempDir() + "flight_dump_guard.json";
  std::remove(path.c_str());

  MetricsRegistry metrics;
  TraceLog trace;
  FlightRecorder recorder;
  recorder.Sample(60.0, MakeRegistry(123, 5));
  const ScopedObsBinding bind(
      {.metrics = &metrics, .trace = &trace, .recorder = &recorder, .heartbeat = false});
  {
    const ScopedFlightDump guard(path);
    // The guard chains to the test suite's throwing handler, so the
    // violation is still catchable - after the black box hits disk.
    EXPECT_THROW(GT_CHECK(false) << "tripped on purpose", ContractViolation);
  }

  const auto doc = JsonReader::Parse(ReadFile(path));
  EXPECT_EQ(doc.at("reason").text, "contract_violation");
  EXPECT_EQ(doc.at("failure").at("condition").text, "GT_CHECK(false) failed");
  EXPECT_EQ(doc.at("failure").at("message").text, "tripped on purpose");
  const auto& snapshots = doc.at("snapshots").items;
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].at("metrics").at("counters").at("server.packets_emitted").number,
            123.0);

  // The destructor restored the plain throwing handler: violations still
  // throw, and the dump is not rewritten.
  std::remove(path.c_str());
  EXPECT_THROW(GT_CHECK(false) << "after guard", ContractViolation);
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(FlightDump, DumpFlightNowRequiresAnActiveGuard) {
  EXPECT_FALSE(DumpFlightNow("no guard"));

  const std::string path = ::testing::TempDir() + "flight_dump_manual.json";
  std::remove(path.c_str());
  FlightRecorder recorder;
  recorder.Sample(60.0, MakeRegistry(7, 1));
  const ScopedObsBinding bind({.recorder = &recorder, .heartbeat = false});
  const ScopedFlightDump guard(path);

  ASSERT_TRUE(DumpFlightNow("manual"));
  const auto doc = JsonReader::Parse(ReadFile(path));
  EXPECT_EQ(doc.at("reason").text, "manual");
  EXPECT_FALSE(doc.has("failure"));  // survivable dumps carry no failure
  ASSERT_EQ(doc.at("snapshots").items.size(), 1u);
}

TEST(FlightDump, SecondGuardIsRejectedAndFirstStaysArmed) {
  const std::string path = ::testing::TempDir() + "flight_dump_first.json";
  const ScopedFlightDump guard(path);
  EXPECT_THROW(ScopedFlightDump(::testing::TempDir() + "flight_dump_second.json"),
               ContractViolation);
  EXPECT_TRUE(DumpFlightNow("still armed"));
}

}  // namespace
}  // namespace gametrace::obs
