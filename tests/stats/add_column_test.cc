// EmpiricalDistribution's columnar AddColumn kernel must be identical to
// the scalar unit-weight Add loop, at arbitrary (random) batch boundaries.
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stats/empirical_distribution.h"

namespace gametrace::stats {
namespace {

std::vector<std::uint16_t> RandomSizes(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  std::vector<std::uint16_t> sizes;
  sizes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes.push_back(static_cast<std::uint16_t>(rng.NextBelow(600)));
  }
  return sizes;
}

// Random split points so kernels see ragged batch boundaries, not one
// full-array call.
template <typename Fn>
void ForRandomChunks(std::uint64_t seed, std::size_t n, Fn&& fn) {
  sim::Rng rng(seed);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t len = std::min<std::size_t>(1 + rng.NextBelow(97), n - i);
    fn(i, len);
    i += len;
  }
}

TEST(AddColumn, EmpiricalDistributionMatchesUnitAdds) {
  const std::vector<std::uint16_t> sizes = RandomSizes(7, 4000);
  EmpiricalDistribution scalar, columnar;
  for (const std::uint16_t x : sizes) scalar.Add(static_cast<double>(x), 1.0);
  ForRandomChunks(107, sizes.size(), [&](std::size_t i, std::size_t len) {
    columnar.AddColumn(std::span<const std::uint16_t>(sizes).subspan(i, len));
  });
  EXPECT_EQ(scalar.support_size(), columnar.support_size());
  EXPECT_EQ(scalar.total_weight(), columnar.total_weight());
  EXPECT_EQ(scalar.Mean(), columnar.Mean());
  EXPECT_EQ(scalar.Variance(), columnar.Variance());
  for (double u = 0.0; u < 1.0; u += 0.0625) {
    EXPECT_EQ(scalar.SampleByUniform(u), columnar.SampleByUniform(u));
  }
}

}  // namespace
}  // namespace gametrace::stats
