#pragma once
// Canonical structural signatures for sub-problem cache keys.
//
// The old GammaCache keyed entries by an ad-hoc byte string (chi code +
// ordered member sink ids) that was only unambiguous within one
// (net, library, config) combination — which is why it had to be cleared
// per run.  A cross-net, cross-run cache needs keys that are canonical over
// everything the stored curves depend on:
//
//   * a *context* signature, mixed once per bubble_construct run from the
//     buffer library contents, the wire model, the candidate-location set,
//     and every DP knob that shapes stored curves (pruning quanta, alpha,
//     wire widths, buffer stride, ...);
//   * a *sub-problem* signature mixed per Gamma group from the grouping
//     structure (chi, length) and the exact ordered member sinks
//     (id, position, load, required time).
//
// Both are absorbed into one 128-bit digest (CacheKey).  Hashing is a pair
// of independent SplitMix64 permutation chains — fully deterministic,
// platform-independent (no libm, no pointer bits), and wide enough that
// accidental collisions are out of reach for any realistic entry count.
// Keys are compared by value only (no stored preimage): a collision would
// silently alias two sub-problems, which 128 bits makes a non-event.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace merlin {

/// cache-entry: CacheKey
/// A fixed-width (128-bit) cache key.  Value-comparable and trivially
/// copyable.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend constexpr bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Hash functor for unordered containers keyed by CacheKey.  The key is
/// already a uniform digest, so folding the words is enough.
struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9E3779B97F4A7C15ULL));
  }
};

/// cache-entry: SigHasher
/// Incremental 128-bit mixer.  Absorb words with mix(); doubles are absorbed
/// by bit pattern (mix_double), so results distinguish -0.0 from 0.0 and
/// NaN payloads — exactly the bit-identity contract the cached curves obey.
class SigHasher {
 public:
  SigHasher() = default;
  /// Forks a hasher from a previously computed digest (the per-group keys
  /// all start from the run's context signature).
  explicit SigHasher(const CacheKey& seed) : hi_(seed.hi), lo_(seed.lo) {}

  void mix(std::uint64_t x);
  void mix_double(double x) { mix(std::bit_cast<std::uint64_t>(x)); }
  void mix_i32(std::int32_t x) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)));
  }
  void mix_bool(bool x) { mix(x ? 1u : 0u); }

  /// Finalizes over the absorbed word count (so prefixes of one stream can
  /// never collide with the stream itself) without disturbing the state —
  /// the hasher may keep absorbing afterwards.
  [[nodiscard]] CacheKey digest() const;

 private:
  std::uint64_t hi_ = 0x6A09E667F3BCC908ULL;  // sqrt(2), sqrt(3) fractions
  std::uint64_t lo_ = 0xBB67AE8584CAA73BULL;
  std::uint64_t count_ = 0;
};

}  // namespace merlin
