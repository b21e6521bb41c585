// Deterministic, seedable random number generator (xoshiro256**).
//
// Every stochastic component of the simulator takes an explicit Rng (or a
// stream split from one) so that whole-week traces are bit-reproducible
// from a single seed - a requirement for regression-testing the
// calibration targets in DESIGN.md section 3.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace gametrace::sim {

// Derives the seed of substream `stream` of `base_seed`: the SplitMix64
// output at position `stream + 1` of the sequence seeded with `base_seed`.
// Distinct (base_seed, stream) pairs give statistically independent,
// well-mixed seeds, so a fleet of shards can each run Rng(SubstreamSeed(
// base_seed, shard_id)) with no coordination and no overlap - and, unlike
// Rng::Split(), the derivation is position-independent: shard k's stream
// does not depend on how many other shards exist or in what order they are
// created.
[[nodiscard]] std::uint64_t SubstreamSeed(std::uint64_t base_seed,
                                          std::uint64_t stream) noexcept;

// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64 so that any
// 64-bit seed - including 0 - produces a well-mixed state.
// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double NextDouble() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound) without modulo bias (Lemire's method).
  [[nodiscard]] std::uint64_t NextBelow(std::uint64_t bound) noexcept;

  // Derives an independent generator; streams split from distinct calls are
  // statistically independent. Used to give each simulated client its own
  // stream so adding a client never perturbs another client's randomness.
  [[nodiscard]] Rng Split() noexcept;

  // Independent generator for substream `stream` of `base_seed` (see
  // SubstreamSeed). Stateless convenience for sharded engines.
  [[nodiscard]] static Rng ForSubstream(std::uint64_t base_seed,
                                        std::uint64_t stream) noexcept {
    return Rng(SubstreamSeed(base_seed, stream));
  }

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace gametrace::sim
