// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component of the simulator (topology generation, host
// responsiveness, load models, route flaps) draws from an explicitly seeded
// generator so that a given seed reproduces a run bit-for-bit. We use
// xoshiro256++ (public domain, Blackman & Vigna) seeded through splitmix64,
// which is both faster and statistically stronger than std::mt19937_64 and
// has a trivially copyable, value-semantic state.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

namespace vp::util {

/// splitmix64 step; used to expand a single 64-bit seed into generator state
/// and as a cheap stateless hash for per-entity deterministic randomness.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a value; handy to derive independent substreams
/// (e.g. hash(seed, block_index)) without carrying generator objects around.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// Combine two 64-bit values into one well-mixed value.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Maps 64 random bits to a double in [0, 1) from their top 53 bits — the
/// one hash-to-uniform draw every stateless per-entity decision uses.
constexpr double to_unit(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// xoshiro256++ engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit constexpr Rng(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) word = splitmix64(s);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). 53 bits of mantissa entropy.
  constexpr double uniform() noexcept { return to_unit((*this)()); }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). Lemire's unbiased multiply-shift method.
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    // Rejection sampling on the low word keeps the result exactly uniform.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with probability p.
  constexpr bool chance(double p) noexcept { return uniform() < p; }

  /// Pareto-distributed sample with shape `alpha` and scale `x_min` —
  /// the heavy tail behind per-block DNS load and AS size distributions.
  double pareto(double x_min, double alpha) noexcept {
    return x_min / std::pow(1.0 - uniform(), 1.0 / alpha);
  }

  /// Exponentially distributed sample with the given mean.
  double exponential(double mean) noexcept {
    return -mean * std::log1p(-uniform());
  }

  /// Normal sample via Box–Muller (one value per call; simple over fast).
  double normal(double mean, double stddev) noexcept {
    const double u1 = 1.0 - uniform();  // avoid log(0)
    const double u2 = uniform();
    const double mag =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
    return mean + stddev * mag;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace vp::util
