// QuantileSketch: relative rank-error bound, bounded-store collapse, and
// the merge contract the fleet leans on - sketch state is a pure function
// of the sample multiset, so ANY merge order (and therefore any worker
// count) produces bit-identical state.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.h"
#include "stats/quantile_sketch.h"

#include "core/check.h"

namespace gametrace::stats {
namespace {

std::vector<double> KbpsStream(std::uint64_t seed, std::size_t n) {
  // Shaped like the per-client bandwidth windows the server records:
  // mostly 4-64 kbps with a heavy-ish upper tail.
  sim::Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    const double u = rng.NextDouble();
    x = 4.0 + 60.0 * u * u * u + 36.0 * rng.NextDouble();
  }
  return xs;
}

double ExactQuantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  return xs[rank];
}

// Serializes every observable bit of sketch state for identity checks.
std::string StateFingerprint(const QuantileSketch& s) {
  std::string out = std::to_string(s.count()) + "/" + std::to_string(s.zero_count()) + "/" +
                    std::to_string(s.min_key()) + "/";
  for (std::size_t i = 0; i < s.bucket_count(); ++i) out += std::to_string(s.bucket(i)) + ",";
  out += "/" + std::to_string(s.min()) + "/" + std::to_string(s.max()) + "/" +
         std::to_string(s.sum());
  return out;
}

TEST(QuantileSketch, QuantilesStayWithinTheRelativeErrorBound) {
  const double alpha = 0.01;
  const auto xs = KbpsStream(11, 20000);
  QuantileSketch sketch(alpha);
  for (double x : xs) sketch.Add(x);

  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double exact = ExactQuantile(xs, q);
    const double estimate = sketch.Quantile(q);
    // The DDSketch guarantee: relative error alpha at the same rank; allow
    // one extra alpha of slack for rank interpolation at the bucket edge.
    EXPECT_NEAR(estimate, exact, 2.0 * alpha * exact) << "q = " << q;
  }
  EXPECT_EQ(sketch.count(), xs.size());
  EXPECT_DOUBLE_EQ(sketch.max(), *std::max_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(sketch.min(), *std::min_element(xs.begin(), xs.end()));
}

TEST(QuantileSketch, MergeIsOrderIndependentAndBitIdentical) {
  const auto xs = KbpsStream(23, 9000);

  // Reference: one sketch over the whole stream.
  QuantileSketch whole;
  for (double x : xs) whole.Add(x);

  // Eight shards, then three reduction shapes: sequential shard order,
  // reversed order, and a pairwise tree (what 2 or 8 fleet workers
  // produce). All must match the single-pass state bit for bit.
  const auto shard = [&xs](std::size_t k) {
    QuantileSketch s;
    for (std::size_t i = k; i < xs.size(); i += 8) s.Add(xs[i]);
    return s;
  };

  QuantileSketch forward = shard(0);
  for (std::size_t k = 1; k < 8; ++k) forward.Merge(shard(k));

  QuantileSketch backward = shard(7);
  for (std::size_t k = 7; k-- > 0;) backward.Merge(shard(k));

  std::vector<QuantileSketch> tree;
  tree.reserve(8);
  for (std::size_t k = 0; k < 8; ++k) tree.push_back(shard(k));
  while (tree.size() > 1) {
    std::vector<QuantileSketch> next;
    for (std::size_t i = 0; i + 1 < tree.size(); i += 2) {
      tree[i].Merge(tree[i + 1]);
      next.push_back(tree[i]);
    }
    tree = std::move(next);
  }

  const std::string reference = StateFingerprint(whole);
  EXPECT_EQ(StateFingerprint(forward), reference);
  EXPECT_EQ(StateFingerprint(backward), reference);
  EXPECT_EQ(StateFingerprint(tree.front()), reference);
  EXPECT_DOUBLE_EQ(forward.Quantile(0.99), whole.Quantile(0.99));
}

TEST(QuantileSketch, CollapsePreservesTheUpperTailWithinBound) {
  // A dynamic range far beyond max_buckets forces the lowest buckets to
  // collapse; the upper tail - the provisioning end - must stay accurate.
  const double alpha = 0.02;
  QuantileSketch sketch(alpha, 64);
  std::vector<double> xs;
  sim::Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    xs.push_back(std::pow(10.0, 8.0 * rng.NextDouble() - 4.0));  // 1e-4 .. 1e4
    sketch.Add(xs.back());
  }
  EXPECT_LE(sketch.bucket_count(), 64u);
  const double exact = ExactQuantile(xs, 0.99);
  EXPECT_NEAR(sketch.Quantile(0.99), exact, 2.0 * alpha * exact);
  // Collapse happened (the full range needs far more than 64 buckets), yet
  // the total count is intact.
  EXPECT_EQ(sketch.count(), xs.size());
}

TEST(QuantileSketch, ZeroAndEmptyBehavior) {
  QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  sketch.Add(0.0);
  sketch.Add(1e-12);  // below the indexable floor
  EXPECT_EQ(sketch.zero_count(), 2u);
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  sketch.Add(10.0);
  // With {0, 0, 10} the p99 rank (0.99 * 2 = 1.98) still lands in the
  // zero region; only the max rank reaches the positive sample.
  EXPECT_EQ(sketch.Quantile(0.99), 0.0);
  EXPECT_GT(sketch.Quantile(1.0), 0.0);
}

TEST(QuantileSketch, MergeRejectsGeometryMismatch) {
  QuantileSketch a(0.01);
  QuantileSketch b(0.02);
  a.Add(1.0);
  b.Add(1.0);
  EXPECT_FALSE(a.SameShape(b));
  EXPECT_THROW(a.Merge(b), gametrace::ContractViolation);
}

TEST(QuantileSketch, MemoryIsBoundedByTheStoreCap) {
  QuantileSketch sketch(0.01, 128);
  sim::Rng rng(3);
  for (int i = 0; i < 1000; ++i) sketch.Add(std::exp(10.0 * rng.NextDouble()));
  const std::size_t after_1k = sketch.MemoryBytes();
  for (int i = 0; i < 100000; ++i) sketch.Add(std::exp(10.0 * rng.NextDouble()));
  EXPECT_LE(sketch.MemoryBytes(), after_1k + 128 * sizeof(std::uint64_t));
  EXPECT_LE(sketch.bucket_count(), 128u);
}

// ---- SketchKey: the default geometry's key table against libm ----------

// Bucket counts keyed by the libm expression, the definition the table
// must reproduce: a dense store for keys in [-kHalf, kHalf).
class LibmKeyedReference {
 public:
  explicit LibmKeyedReference(double alpha)
      : log_gamma_(std::log((1.0 + alpha) / (1.0 - alpha))), counts_(2 * kHalf, 0) {}

  void Add(double x) {
    if (x < QuantileSketch::kMinIndexable) {
      ++zero_;
      return;
    }
    const std::int32_t key = QuantileSketch::LibmKey(x, log_gamma_);
    ASSERT_TRUE(key >= -kHalf && key < kHalf) << "key " << key << " of " << x;
    ++counts_[static_cast<std::size_t>(key + kHalf)];
  }

  // Buckets (the zero bucket included) whose counts differ from `sketch`,
  // which must hold every key uncollapsed.
  [[nodiscard]] std::uint64_t Mismatches(const QuantileSketch& sketch) const {
    std::uint64_t mismatches = sketch.zero_count() != zero_ ? 1 : 0;
    for (std::int32_t key = -kHalf; key < kHalf; ++key) {
      const std::int64_t i = std::int64_t{key} - sketch.min_key();
      const std::uint64_t got = i >= 0 && static_cast<std::uint64_t>(i) < sketch.bucket_count()
                                    ? sketch.bucket(static_cast<std::size_t>(i))
                                    : 0;
      mismatches += got != counts_[static_cast<std::size_t>(key + kHalf)] ? 1 : 0;
    }
    return mismatches;
  }

 private:
  static constexpr std::int32_t kHalf = 2048;
  double log_gamma_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t zero_ = 0;
};

double DefaultLogGamma() {
  const double alpha = QuantileSketch::kDefaultAlpha;
  return std::log((1.0 + alpha) / (1.0 - alpha));
}

// Room for every key a double in the table's range can have: no collapse.
constexpr std::size_t kUncollapsed = 4096;

// The table's verdict on x against libm's, tallied.
struct KeyTally {
  std::uint64_t checks = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t fallbacks = 0;

  void Check(const SketchKeyTable& table, double x, double log_gamma) {
    ++checks;
    std::int32_t key = 0;
    if (!table.Find(x, key)) {
      ++fallbacks;
      return;
    }
    mismatches += key != QuantileSketch::LibmKey(x, log_gamma) ? 1 : 0;
  }
};

// x moved by `ulps` representable doubles (x positive and normal).
double StepUlps(double x, std::int64_t ulps) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) + static_cast<std::uint64_t>(ulps));
}

TEST(SketchKey, EveryEdgeOfTheTableRangeAtSixtyFourUlps) {
  // Every bucket edge gamma^k and every sub-bin edge (exponent and top
  // eight mantissa bits) over the table's range and one octave past each
  // end, each at -64..+64 ulps.
  const double log_gamma = DefaultLogGamma();
  const SketchKeyTable table(log_gamma);
  QuantileSketch sketch(QuantileSketch::kDefaultAlpha, kUncollapsed);
  LibmKeyedReference reference(QuantileSketch::kDefaultAlpha);
  KeyTally tally;
  const auto around = [&](double edge) {
    for (std::int64_t d = -64; d <= 64; ++d) {
      const double x = StepUlps(edge, d);
      tally.Check(table, x, log_gamma);
      sketch.Add(x);
      reference.Add(x);
    }
  };
  const double lo = std::ldexp(1.0, SketchKeyTable::kMinExponent - 1);
  const double hi = std::ldexp(1.0, SketchKeyTable::kMaxExponent + 2);
  for (std::int32_t k = QuantileSketch::LibmKey(lo, log_gamma);
       k <= QuantileSketch::LibmKey(hi, log_gamma); ++k) {
    around(std::exp(static_cast<double>(k) * log_gamma));
  }
  for (double octave = lo; octave < hi; octave *= 2.0) {
    for (int j = 0; j < (1 << SketchKeyTable::kSubBits); ++j) {
      around(octave * (1.0 + std::ldexp(j, -SketchKeyTable::kSubBits)));
    }
  }
  EXPECT_GT(tally.checks, 2'000'000u);
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_LT(tally.fallbacks, tally.checks);
  EXPECT_EQ(reference.Mismatches(sketch), 0u);
}

TEST(SketchKey, TenMillionLogUniformValuesAndTheFallbackRate) {
  // Log-uniform over [1e-9, e^25]: past the table's top end, so values
  // above it take libm through the same Add.
  const double log_gamma = DefaultLogGamma();
  const SketchKeyTable table(log_gamma);
  QuantileSketch sketch(QuantileSketch::kDefaultAlpha, kUncollapsed);
  LibmKeyedReference reference(QuantileSketch::kDefaultAlpha);
  KeyTally tally;
  const double lo = std::log(1e-9);
  const double span = 25.0 - lo;
  sim::Rng rng(29);
  for (int i = 0; i < 10'000'000; ++i) {
    const double x = std::exp(lo + span * rng.NextDouble());
    tally.Check(table, x, log_gamma);
    sketch.Add(x);
    reference.Add(x);
  }
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_EQ(reference.Mismatches(sketch), 0u);
  // Out-of-range values (about 1 in 11 here) fall back by design; the
  // guard band alone is a relative 2e-11 of each 0.02-wide key.
  std::uint64_t in_range = 0;
  std::uint64_t band = 0;
  sim::Rng again(29);
  for (int i = 0; i < 10'000'000; ++i) {
    const double x = std::exp(lo + span * again.NextDouble());
    if (x >= std::ldexp(1.0, SketchKeyTable::kMaxExponent + 1)) continue;
    ++in_range;
    std::int32_t key = 0;
    band += table.Find(x, key) ? 0 : 1;
  }
  EXPECT_LT(static_cast<double>(band) / static_cast<double>(in_range), 1e-6);
}

TEST(SketchKey, ZeroSubnormalFloorAndNonFiniteThroughAdd) {
  QuantileSketch sketch;
  LibmKeyedReference reference(QuantileSketch::kDefaultAlpha);
  for (const double x : {0.0, std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min(), 0.999e-9, 1e-9}) {
    sketch.Add(x);
    reference.Add(x);
  }
  EXPECT_EQ(sketch.zero_count(), 4u);
  EXPECT_EQ(sketch.bucket_count(), 1u);
  EXPECT_EQ(sketch.min_key(), QuantileSketch::LibmKey(1e-9, DefaultLogGamma()));
  EXPECT_EQ(reference.Mismatches(sketch), 0u);
  const std::string before = StateFingerprint(sketch);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), -1.0, -1e-300}) {
    EXPECT_THROW(sketch.Add(bad), ContractViolation) << bad;
  }
  EXPECT_EQ(StateFingerprint(sketch), before);
}

TEST(SketchKey, NonDefaultAlphaTakesTheLibmKey) {
  QuantileSketch sketch(0.02, kUncollapsed);
  LibmKeyedReference reference(0.02);
  sim::Rng rng(5);
  for (int i = 0; i < 200'000; ++i) {
    const double x = std::exp(-20.0 + 40.0 * rng.NextDouble());
    sketch.Add(x);
    reference.Add(x);
  }
  EXPECT_EQ(reference.Mismatches(sketch), 0u);
}

TEST(SketchKey, TableRefusesSubBinsWiderThanOneKey) {
  // At alpha = 0.001 a sub-bin spans about 1.95 keys.
  EXPECT_THROW(SketchKeyTable(std::log(1.001 / 0.999)), ContractViolation);
}

}  // namespace
}  // namespace gametrace::stats
