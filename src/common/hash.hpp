// 64-bit mixing steps shared by the simulator's seeded hashes: the wire
// digest (sim/network.cpp), the load generator's op-stream digest, and
// the SplitMix64 seeder (common/rng.hpp).
#pragma once

#include <bit>
#include <cstdint>

namespace objrpc {

/// The splitmix64 finalizer: a bijection whose every output bit depends
/// on every input bit.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// One multiply-rotate step folding word `w` into running hash `h`.
/// Order-sensitive and far cheaper than mix64; meant for bulk words
/// (payload bytes) between full mix64 steps, which do the avalanche.
constexpr std::uint64_t fold_word(std::uint64_t h, std::uint64_t w) {
  return std::rotl((h ^ w) * 0x9E3779B97F4A7C15ULL, 31);
}

}  // namespace objrpc
