#include "router/lookup_engine.h"

#include <stdexcept>

#include "sim/random.h"

#include "core/check.h"

namespace gametrace::router {

LookupEngine::LookupEngine(double mean_capacity_pps, double jitter_fraction, sim::Rng rng)
    : capacity_pps_(mean_capacity_pps), jitter_(jitter_fraction), rng_(rng) {
  GT_CHECK(mean_capacity_pps > 0.0) << "LookupEngine: capacity must be positive";
  GT_CHECK(jitter_fraction >= 0.0 && jitter_fraction < 1.0)
      << "LookupEngine: jitter must be in [0, 1)";
}

void LookupEngine::Refill() {
  // The draws first, then the arithmetic: a loop free of generator calls
  // vectorizes its divides.
  for (double& service_time : drawn_) service_time = rng_.NextDouble();
  for (double& service_time : drawn_) {
    const double factor = 1.0 + jitter_ * (2.0 * service_time - 1.0);
    service_time = factor / capacity_pps_;
  }
  next_ = 0;
}

}  // namespace gametrace::router
