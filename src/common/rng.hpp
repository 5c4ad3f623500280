// Deterministic pseudo-random number generation.
//
// Every stochastic decision in the simulator (workload draws, link jitter,
// object-ID allocation) flows through one of these generators so that a run
// is fully determined by its seed.  That determinism is what lets the test
// suite assert exact traces and lets the benches regenerate the paper's
// figures reproducibly.
#pragma once

#include <cstdint>
#include <limits>

#include "common/hash.hpp"
#include "common/u128.hpp"

namespace objrpc {

/// SplitMix64: used to seed and to derive independent substreams.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    return mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the workhorse generator.  Fast, high quality, and
/// deterministic across platforms (unlike std::mt19937 distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound).  bound == 0 yields 0.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Debiased multiply-shift (Lemire).
    while (true) {
      const std::uint64_t x = next_u64();
      const auto m = static_cast<unsigned __int128>(x) * bound;
      const auto l = static_cast<std::uint64_t>(m);
      if (l >= bound || l >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Exponentially distributed with the given mean (> 0).
  double next_exponential(double mean);

  /// Zipf-distributed rank in [0, n) with exponent `s` (s == 0 → uniform).
  /// Used for skewed object-popularity workloads.
  std::uint64_t next_zipf(std::uint64_t n, double s);

  /// A fresh 128-bit value; models Twizzler's secure-random object IDs.
  U128 next_u128() { return U128{next_u64(), next_u64()}; }

  /// Derive an independent substream (stable under call-order changes
  /// elsewhere): hash the label into a new seed.
  Rng fork(std::uint64_t label) const {
    SplitMix64 sm(s_[0] ^ (label * 0xd1342543de82ef95ULL));
    return Rng(sm.next());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace objrpc
