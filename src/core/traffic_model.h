// Fitted source models of game traffic (paper section IV-B: "the trace
// itself can be used to more accurately develop source models for
// simulation", after Borella's "Source Models of Network Game Traffic").
//
// TrafficModelFitter learns, per direction, the aggregate packet
// interarrival process (mean + coefficient of variation) and the empirical
// payload-size distribution. TrafficModelGenerator replays a statistically
// equivalent stream without simulating any game logic - the cheap stand-in
// for capacity studies.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "net/packet.h"
#include "sim/rng.h"
#include "stats/empirical_distribution.h"
#include "stats/histogram.h"
#include "stats/running_stats.h"
#include "trace/capture.h"

namespace gametrace::core {

struct DirectionModel {
  double packet_rate = 0.0;        // packets/sec
  double interarrival_mean = 0.0;  // seconds
  double interarrival_cv = 0.0;    // stddev / mean
  stats::EmpiricalDistribution sizes;
};

struct TrafficModel {
  DirectionModel inbound;
  DirectionModel outbound;
  double fitted_over_seconds = 0.0;
};

class TrafficModelFitter final : public trace::CaptureSink {
 public:
  // Capture timestamps may be mildly out of order (the game simulator
  // pre-dates client sends inside a tick window); packets are re-sorted
  // through a small reorder buffer before interarrival gaps are taken.
  // `reorder_horizon` must exceed the worst-case disorder (one tick).
  explicit TrafficModelFitter(double reorder_horizon = 0.25);

  void OnColumns(const net::PacketBatch& batch) override;

  // Drains the reorder buffers and fits. Requires at least two packets in
  // each direction. The fitter is spent afterwards.
  [[nodiscard]] TrafficModel Fit();

 private:
  void Observe(const net::PacketRecord& record);

  struct DirectionState {
    stats::RunningStats gaps;
    std::priority_queue<double, std::vector<double>, std::greater<>> pending;
    double last = -1.0;

    void Release(double up_to);
    void Drain();
  };

  double horizon_;
  DirectionState in_;
  DirectionState out_;
  stats::Histogram sizes_in_;
  stats::Histogram sizes_out_;
  double first_time_ = -1.0;
  double last_time_ = 0.0;
};

class TrafficModelGenerator {
 public:
  TrafficModelGenerator(TrafficModel model, std::uint64_t seed);

  // Emits a synthetic stream over [0, duration) into `sink`. Interarrivals
  // are lognormal with the fitted mean/cv (degenerating to deterministic
  // when cv is ~0); sizes are drawn from the fitted empirical distribution.
  // Returns the number of packets emitted.
  std::uint64_t Generate(double duration, trace::CaptureSink& sink);

 private:
  TrafficModel model_;
  sim::Rng rng_;
};

}  // namespace gametrace::core
