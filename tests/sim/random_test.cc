#include "sim/random.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"

namespace gametrace::sim {
namespace {

constexpr int kDraws = 200000;

TEST(Random, UniformRange) {
  Rng rng(1);
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = Uniform(rng, 3.0, 7.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 7.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 5.0, 0.02);
}

TEST(Random, ExponentialMoments) {
  Rng rng(2);
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = Exponential(rng, 2.0);
    EXPECT_GE(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 2.0, 0.03);
  EXPECT_NEAR(sq / kDraws - mean * mean, 4.0, 0.15);  // var = mean^2
}

TEST(Random, ExponentialValidation) {
  Rng rng(3);
  EXPECT_THROW((void)Exponential(rng, 0.0), gametrace::ContractViolation);
  EXPECT_THROW((void)Exponential(rng, -1.0), gametrace::ContractViolation);
}

TEST(Random, NormalMoments) {
  Rng rng(4);
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = Normal(rng, 40.0, 4.5);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 40.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / kDraws - mean * mean), 4.5, 0.05);
}

TEST(Random, NormalSymmetry) {
  Rng rng(5);
  int above = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (StandardNormal(rng) > 0.0) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / kDraws, 0.5, 0.01);
}

TEST(Random, LognormalMatchesRequestedMoments) {
  Rng rng(6);
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = LognormalFromMoments(rng, 703.0, 850.0);
    EXPECT_GT(x, 0.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 703.0, 20.0);
  EXPECT_NEAR(std::sqrt(sq / kDraws - mean * mean), 850.0, 60.0);
}

TEST(Random, LognormalZeroStddevIsDegenerate) {
  Rng rng(7);
  EXPECT_DOUBLE_EQ(LognormalFromMoments(rng, 5.0, 0.0), 5.0);
}

TEST(Random, LognormalValidation) {
  Rng rng(8);
  EXPECT_THROW((void)LognormalFromMoments(rng, 0.0, 1.0), gametrace::ContractViolation);
  EXPECT_THROW((void)LognormalFromMoments(rng, 1.0, -1.0), gametrace::ContractViolation);
}

TEST(Random, ParetoTailAndScale) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(Pareto(rng, 2.0, 1.5), 2.0);
  // Mean of Pareto(x_m, alpha) = alpha x_m / (alpha - 1) for alpha > 1.
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) sum += Pareto(rng, 1.0, 3.0);
  EXPECT_NEAR(sum / kDraws, 1.5, 0.03);
  EXPECT_THROW((void)Pareto(rng, 0.0, 1.0), gametrace::ContractViolation);
}

TEST(Random, BernoulliRate) {
  Rng rng(10);
  int yes = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (Bernoulli(rng, 0.2)) ++yes;
  }
  EXPECT_NEAR(static_cast<double>(yes) / kDraws, 0.2, 0.005);
}

TEST(Random, PoissonSmallMean) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double k = static_cast<double>(Poisson(rng, 3.0));
    sum += k;
    sq += k * k;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(sq / kDraws - mean * mean, 3.0, 0.1);  // var = mean
}

TEST(Random, PoissonLargeMeanUsesApproximation) {
  Rng rng(12);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += static_cast<double>(Poisson(rng, 500.0));
  EXPECT_NEAR(sum / 20000, 500.0, 2.0);
}

TEST(Random, PoissonZeroMean) {
  Rng rng(13);
  EXPECT_EQ(Poisson(rng, 0.0), 0u);
}

TEST(ZipfSampler, Validation) { EXPECT_THROW(ZipfSampler(0, 1.0), gametrace::ContractViolation); }

TEST(ZipfSampler, PopularHeadsDominarte) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(16);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
  // Rank 0 should have roughly 1/H(1000) ~ 13% of the mass at s = 1.
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.134, 0.02);
}

TEST(ZipfSampler, SFlattensDistribution) {
  ZipfSampler flat(100, 0.0);  // s = 0 -> uniform
  Rng rng(17);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[flat.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 100, kDraws / 100 * 0.2);
}

}  // namespace
}  // namespace gametrace::sim
