#include "sim/rng.h"

namespace gametrace::sim {

namespace {

constexpr std::uint64_t RotL(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// SplitMix64: used only for seeding / stream splitting.
constexpr std::uint64_t SplitMix64(std::uint64_t& s) noexcept {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t SubstreamSeed(std::uint64_t base_seed, std::uint64_t stream) noexcept {
  // Jump the SplitMix64 sequence straight to position stream + 1: the state
  // after n increments is base_seed + n * gamma, so no loop is needed.
  std::uint64_t s = base_seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

Rng Rng::Split() noexcept {
  // Use two outputs of this generator as the seed of the child stream.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(a ^ RotL(b, 31));
}

}  // namespace gametrace::sim
