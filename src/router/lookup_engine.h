// Per-packet route-lookup service-time model.
//
// Router vendors size their lookup path for 125-250 B average packets
// (paper section IV-A); for a device like the SMC Barricade that works out
// to a *packet* capacity of 1000-1500 pps regardless of packet size. The
// engine draws a service time per packet around 1/capacity.
//
// The engine's generator feeds nothing else, so it draws kBatch times
// ahead and hands them out in order: the same sequence, with the generator
// and the divide off the device's per-packet path.
#pragma once

#include <array>
#include <cstddef>

#include "sim/rng.h"

namespace gametrace::router {

class LookupEngine {
 public:
  // mean_capacity_pps: average packets/sec the engine can route.
  // jitter_fraction: uniform multiplicative jitter on the per-packet time,
  // e.g. 0.25 means each service takes (1 +/- 0.25) / capacity seconds.
  LookupEngine(double mean_capacity_pps, double jitter_fraction, sim::Rng rng);

  [[nodiscard]] double DrawServiceTime() {
    if (next_ == kBatch) Refill();
    return drawn_[next_++];
  }

  [[nodiscard]] double mean_capacity_pps() const noexcept { return capacity_pps_; }
  [[nodiscard]] double mean_service_time() const noexcept { return 1.0 / capacity_pps_; }

 private:
  static constexpr std::size_t kBatch = 64;

  void Refill();

  double capacity_pps_;
  double jitter_;
  sim::Rng rng_;
  std::array<double, kBatch> drawn_{};
  std::size_t next_ = kBatch;  // drawn_[next_..] are still to be handed out
};

}  // namespace gametrace::router
