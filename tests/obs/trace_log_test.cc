#include "obs/trace_log.h"

#include <gtest/gtest.h>

#include <utility>

#include "json_reader.h"

namespace gametrace::obs {
namespace {

using gametrace::testing::JsonReader;

TEST(TraceLog, RecordsCompleteAndInstantEvents) {
  TraceLog log(/*pid=*/3);
  log.Complete("map de_dust", "map", 1.0, 2.5);
  log.Instant("connect", "session", 1.25);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].ph, 'X');
  EXPECT_DOUBLE_EQ(log.events()[0].ts_us, 1e6);
  EXPECT_DOUBLE_EQ(log.events()[0].dur_us, 1.5e6);
  EXPECT_EQ(log.events()[0].pid, 3);
  EXPECT_EQ(log.events()[1].ph, 'i');
}

TEST(TraceLog, TickCategoryStartsDisabled) {
  TraceLog log;
  EXPECT_FALSE(log.CategoryEnabled("tick"));
  EXPECT_TRUE(log.CategoryEnabled("map"));  // unknown categories default on
  log.Complete("tick", "tick", 0.0, 0.05);
  EXPECT_EQ(log.size(), 0u);
  log.SetCategoryEnabled("tick", true);
  log.Complete("tick", "tick", 0.0, 0.05);
  EXPECT_EQ(log.size(), 1u);
}

TEST(TraceLog, CapsEventsAndCountsDrops) {
  TraceLog log(/*pid=*/0, /*max_events=*/4);
  for (int i = 0; i < 10; ++i) log.Instant("e", "session", static_cast<double>(i));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto doc = JsonReader::Parse(log.ToJson());
  EXPECT_EQ(doc.at("otherData").at("dropped_events").number, 6.0);
}

TEST(TraceLog, MergePreservesOriginShard) {
  TraceLog fleet(/*pid=*/0);
  TraceLog shard1(/*pid=*/1);
  shard1.Instant("a", "session", 2.0);
  TraceLog shard2(/*pid=*/2);
  shard2.Instant("b", "session", 1.0);
  fleet.Merge(std::move(shard1));
  fleet.Merge(std::move(shard2));
  ASSERT_EQ(fleet.size(), 2u);
  // Export is stable ts order, so shard2's earlier event comes first.
  const auto doc = JsonReader::Parse(fleet.ToJson());
  const auto& events = doc.at("traceEvents").items;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").text, "b");
  EXPECT_EQ(events[0].at("pid").number, 2.0);
  EXPECT_EQ(events[1].at("name").text, "a");
  EXPECT_EQ(events[1].at("pid").number, 1.0);
}

TEST(TraceLog, JsonRoundTripHasChromeShape) {
  TraceLog log(/*pid=*/7);
  log.Complete("outage", "outage", 10.0, 12.0);
  log.Instant("refuse", "session", 10.5);
  log.CounterSample("players", "session", 11.0, 21.0);

  const auto doc = JsonReader::Parse(log.ToJson());
  EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");
  const auto& events = doc.at("traceEvents").items;
  ASSERT_EQ(events.size(), 3u);

  const auto& complete = events[0];
  EXPECT_EQ(complete.at("ph").text, "X");
  EXPECT_EQ(complete.at("name").text, "outage");
  EXPECT_EQ(complete.at("cat").text, "outage");
  EXPECT_EQ(complete.at("ts").number, 1e7);
  EXPECT_EQ(complete.at("dur").number, 2e6);
  EXPECT_EQ(complete.at("pid").number, 7.0);

  const auto& instant = events[1];
  EXPECT_EQ(instant.at("ph").text, "i");
  EXPECT_EQ(instant.at("s").text, "g");  // global-scoped instant

  const auto& counter = events[2];
  EXPECT_EQ(counter.at("ph").text, "C");
  EXPECT_EQ(counter.at("args").at("value").number, 21.0);
}

}  // namespace
}  // namespace gametrace::obs
