// Deterministic pseudo-random number generation for simulations.
//
// Every experiment in this repository is seeded explicitly so that runs
// are reproducible bit-for-bit. The generator is xoshiro256**, which is
// fast, has a 256-bit state, and passes BigCrush; it is more than
// adequate for Monte-Carlo channel simulation.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

namespace ppr {

// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
// Satisfies the UniformRandomBitGenerator requirements so it can be used
// with <random> distributions, but the common draws (uniform, normal,
// bernoulli) are provided as members to keep call sites terse and to
// guarantee identical streams across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  // The integer-exact draws are defined here so that per-chip loops
  // inline them; the libm-based ones (Normal, Exponential) are in rng.cc.
  std::uint64_t operator()() { return Next(); }
  std::uint64_t Next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1): 53 high-quality bits.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double UniformDouble(double lo, double hi);

  // Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t UniformInt(std::uint64_t bound) {
    assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  // Standard normal via Box-Muller (deterministic across platforms,
  // unlike std::normal_distribution).
  double Normal();
  double Normal(double mean, double stddev);

  // Exponential with the given rate (mean 1/rate). rate must be > 0.
  double Exponential(double rate);

  // Derives an independent child generator; used to give each node /
  // link / packet its own stream so adding a node does not perturb the
  // draws of others.
  Rng Fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace ppr
