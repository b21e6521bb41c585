#include "game/map_rotation.h"

#include <vector>

#include <gtest/gtest.h>

namespace gametrace::game {
namespace {

MapConfig FastMaps() {
  MapConfig cfg;
  cfg.map_duration = 100.0;
  cfg.changeover_stall_mean = 5.0;
  cfg.changeover_stall_jitter = 1.0;
  cfg.round_mean_duration = 20.0;
  cfg.round_min_duration = 5.0;
  cfg.buy_time = 2.0;
  cfg.buy_time_activity = 0.5;
  return cfg;
}

TEST(MapRotation, StartBeginsFirstMap) {
  sim::Simulator s;
  MapRotation rotation(s, FastMaps(), sim::Rng(1));
  EXPECT_EQ(rotation.maps_played(), 0);
  rotation.Start();
  EXPECT_EQ(rotation.maps_played(), 1);
  EXPECT_FALSE(rotation.stalled());
}

TEST(MapRotation, RotatesOnSchedule) {
  sim::Simulator s;
  MapRotation rotation(s, FastMaps(), sim::Rng(2));
  rotation.Start();
  // ~100 s map + ~5 s stall per cycle: in 1000 s expect ~9-10 maps.
  s.RunUntil(1000.0);
  EXPECT_GE(rotation.maps_played(), 8);
  EXPECT_LE(rotation.maps_played(), 11);
}

TEST(MapRotation, StallWindowObserved) {
  sim::Simulator s;
  MapRotation rotation(s, FastMaps(), sim::Rng(3));
  std::vector<double> stall_begins;
  std::vector<double> map_starts;
  rotation.SetCallbacks(
      {.on_stall_begin = [&](double t) { stall_begins.push_back(t); },
       .on_map_start = [&](double t) { map_starts.push_back(t); },
       .on_round_start = nullptr});
  rotation.Start();
  s.RunUntil(350.0);
  ASSERT_GE(stall_begins.size(), 2u);
  ASSERT_GE(map_starts.size(), 3u);  // initial + 2 rotations
  // Stall begins exactly at the map duration; the next map starts 4-6 s
  // later (5 +/- 1 jitter).
  EXPECT_DOUBLE_EQ(stall_begins[0], 100.0);
  EXPECT_GE(map_starts[1] - stall_begins[0], 4.0);
  EXPECT_LE(map_starts[1] - stall_begins[0], 6.0);
}

TEST(MapRotation, StalledFlagDuringChangeover) {
  sim::Simulator s;
  MapRotation rotation(s, FastMaps(), sim::Rng(4));
  rotation.Start();
  s.RunUntil(101.0);  // inside the first changeover
  EXPECT_TRUE(rotation.stalled());
  s.RunUntil(110.0);  // stall is 4-6 s
  EXPECT_FALSE(rotation.stalled());
}

TEST(MapRotation, RoundsAccumulate) {
  sim::Simulator s;
  MapRotation rotation(s, FastMaps(), sim::Rng(5));
  rotation.Start();
  s.RunUntil(1000.0);
  // ~20 s rounds across ~950 s of live play.
  EXPECT_GT(rotation.rounds_played(), 20u);
  EXPECT_LT(rotation.rounds_played(), 90u);
}

TEST(MapRotation, BuyTimeReducesActivity) {
  sim::Simulator s;
  MapRotation rotation(s, FastMaps(), sim::Rng(6));
  rotation.Start();
  // Immediately after the map starts we are in buy time.
  EXPECT_DOUBLE_EQ(rotation.activity_factor(), 0.5);
  s.RunUntil(3.0);  // past the 2 s buy window
  EXPECT_DOUBLE_EQ(rotation.activity_factor(), 1.0);
}

TEST(MapRotation, ActivityIsOneWhenStalledOrUnstarted) {
  sim::Simulator s;
  MapRotation rotation(s, FastMaps(), sim::Rng(7));
  EXPECT_DOUBLE_EQ(rotation.activity_factor(), 1.0);  // not started
  rotation.Start();
  s.RunUntil(101.0);  // stalled
  EXPECT_DOUBLE_EQ(rotation.activity_factor(), 1.0);
}

TEST(MapRotation, PaperRateMapsPerWeek) {
  // With the paper's 30 min rotation, a week is ~335-345 maps (339 observed).
  sim::Simulator s;
  MapConfig cfg;  // defaults: 1800 s maps, ~12 s stalls
  MapRotation rotation(s, cfg, sim::Rng(8));
  rotation.Start();
  s.RunUntil(626477.0);
  EXPECT_GE(rotation.maps_played(), 340);
  EXPECT_LE(rotation.maps_played(), 350);
}

}  // namespace
}  // namespace gametrace::game
