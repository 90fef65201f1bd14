#include "cache/signature.h"

namespace merlin {

namespace {

/// SplitMix64 finalizer: a full-period bijection on 64-bit words with good
/// avalanche, the same primitive net/rng.h's generator is built on.
/// Deterministic everywhere (pure integer arithmetic).
constexpr std::uint64_t splitmix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void SigHasher::mix(std::uint64_t x) {
  // Two independent permutation chains: each lane absorbs the word with a
  // different injection (xor vs add, distinct odd constants) before the
  // finalizer, so the lanes never collapse onto each other.
  lo_ = splitmix(lo_ ^ (x + 0x9E3779B97F4A7C15ULL));
  hi_ = splitmix(hi_ + (x ^ 0xC2B2AE3D27D4EB4FULL));
  ++count_;
}

CacheKey SigHasher::digest() const {
  // Length-close both lanes on a copy; the live state stays absorbable.
  const std::uint64_t lo = splitmix(lo_ ^ (count_ + 0x165667B19E3779F9ULL));
  const std::uint64_t hi = splitmix(hi_ + (count_ ^ 0x27D4EB2F165667C5ULL));
  return CacheKey{hi, lo};
}

}  // namespace merlin
