// Fast pseudo-random number generation for sampling algorithms.
//
// The estimators in this library are sampling-dominated: every random-walk
// step draws at least one random number, and NRMSE experiments run hundreds
// of independent chains. std::mt19937_64 is correct but needlessly slow and
// heavy to seed; we use xoshiro256** (Blackman & Vigna), which passes BigCrush
// and is 2-3x faster, with SplitMix64 seeding as recommended by its authors.

#pragma once

#include <cstdint>
#include <limits>

namespace grw {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
/// Also useful on its own as a cheap stateless mixer.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be used
/// with <random> distributions, but prefer the member helpers which avoid
/// distribution-object overhead in hot loops.
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs a generator from a 64-bit seed. Different seeds produce
  /// independent-looking streams (seeded through SplitMix64).
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// Re-seeds the generator deterministically.
  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Next raw 64 random bits.
  uint64_t operator()() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's multiply-shift rejection method (no modulo in the
  /// common path).
  uint64_t UniformInt(uint64_t bound) {
    uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double UniformReal() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return UniformReal() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Derives a child seed from a base seed and a stream index, so that
/// parallel experiment replicas get decorrelated generators.
inline uint64_t DeriveSeed(uint64_t base, uint64_t stream) {
  uint64_t s = base ^ (0x6a09e667f3bcc909ULL + stream * 0x3c6ef372fe94f82bULL);
  return SplitMix64(s);
}

}  // namespace grw
