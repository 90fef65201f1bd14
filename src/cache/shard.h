#pragma once
// SubproblemCache + CacheSession: the cross-net cache front end.
//
// Ownership / lifetime model (replaces the old run-scoped GammaCache):
//
//   * SubproblemCache is process-scoped.  It owns every cached curve
//     outright (CacheEntry is arena-decoupled, see cache/store.h), so it
//     outlives any bubble_construct run, any SolutionArena, and any batch —
//     the enabling layer for server mode, where one warm cache serves many
//     requests.
//   * CacheSession is the single-threaded handle the engines use.  It keeps
//     a per-run local table (the paper's section III.4 cross-iteration
//     reuse) and *stages* every insert privately; nothing it does touches
//     the shared store's contents.
//
// Determinism contract (the batch engine's bit-identity invariant):
//
//   * During a parallel phase the shared store is READ-ONLY.  Sessions copy
//     entries out on first use (adoption) and record the key in a touch
//     log; they never mutate shared state.
//   * All writes — LRU refreshes from the touch logs, staged inserts,
//     evictions — happen in SubproblemCache::apply(FlushBatch), which the
//     batch runner calls serially in ascending net id after the pool
//     drains (the same deterministic-merge pattern as its stats
//     reduction).  The store's end state (content, LRU order, eviction
//     victims) is therefore a pure function of the workload, identical at
//     any thread count.
//   * Eviction is cost-aware LRU over one list, budgeted in provenance
//     nodes (CacheConfig::capacity_nodes) and applied during the publish.
//
// One writer, no locks: lookup() may run beside other lookups; apply(),
// clear() and for_each_entry_oldest_first() never overlap any other call.
// The batch runner brackets its parallel phase with open_read_phase() /
// close_read_phase(), and the three exclusive calls assert that no read
// phase is open (live in Debug and sanitizer builds, compiled out in
// Release).  merlin_d's scheduler thread makes its snapshot saves itself,
// between jobs, so no save overlaps a running job (serve/server.h).
//
// Capacity 0 disables the shared store entirely: every lookup misses and
// apply() drops its batch, reducing behavior to per-worker scratch caching
// (the CI cache-off leg runs the full suite this way via MERLIN_CACHE=off).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "cache/signature.h"
#include "cache/store.h"

namespace merlin {

/// cache-entry: CacheConfig
struct CacheConfig {
  /// Provenance-node budget of the store (one node is one SolNode, ~48
  /// bytes).  0 = shared store disabled.
  std::uint64_t capacity_nodes = 0;
};

/// cache-entry: cache_config_mb
/// A budget of `mb` megabytes of provenance nodes (0 = disabled): how
/// merlin_cli and merlin_d both size the store from --cache-mb, so the
/// daemon's cold runs stay digest-equal to the CLI's.
inline CacheConfig cache_config_mb(std::uint64_t mb) {
  return CacheConfig{mb * 1024ull * 1024ull / sizeof(SolNode)};
}

/// cache-entry: FlushBatch
/// The staged writes of one net: shared keys it hit (in first-hit order,
/// the LRU refresh sequence) and the entries it wants published (in
/// insertion order).  Produced by CacheSession::take_flush, consumed by
/// SubproblemCache::apply.
struct FlushBatch {
  std::vector<CacheKey> touched;
  std::vector<CacheEntry> staged;
  [[nodiscard]] bool empty() const { return touched.empty() && staged.empty(); }
};

/// What one apply() call did (summed into the batch obs counters).
struct CacheApplyOutcome {
  std::uint64_t staged = 0;      ///< entries offered by the batch
  std::uint64_t inserted = 0;    ///< entries actually published
  std::uint64_t duplicates = 0;  ///< offered keys already present (refreshed)
  std::uint64_t evicted = 0;     ///< LRU victims removed to hold the budget
  std::uint64_t rejected = 0;    ///< entries larger than the whole budget
};

/// cache-entry: SubproblemCache
class SubproblemCache {
 public:
  explicit SubproblemCache(CacheConfig cfg = {}) : cfg_(cfg) {}
  SubproblemCache(const SubproblemCache&) = delete;
  SubproblemCache& operator=(const SubproblemCache&) = delete;

  [[nodiscard]] bool enabled() const { return cfg_.capacity_nodes > 0; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  /// Read side (may run beside other lookups): copies the entry for `key`
  /// into `out` and returns true, or returns false on miss.  Never mutates
  /// LRU state — recency is recorded by the caller's touch log and applied
  /// at flush, keeping reads order-independent.
  [[nodiscard]] bool lookup(const CacheKey& key, CacheEntry& out) const;

  /// Write side: applies one net's staged writes — touch refreshes first
  /// (in log order), then inserts (in insertion order, duplicates refresh
  /// instead), evicting LRU tails whenever the store exceeds its budget.
  /// The batch runner calls this serially in ascending net id.
  CacheApplyOutcome apply(FlushBatch&& batch);

  [[nodiscard]] std::size_t entry_count() const { return map_.size(); }
  [[nodiscard]] std::uint64_t node_cost() const { return node_cost_; }

  /// Deterministic enumeration for cache/snapshot.h: `fn(ordinal, entry)`
  /// for every entry in LRU order, oldest first (`ordinal` counts from 0).
  /// Re-inserting the entries in callback order through apply() reproduces
  /// the exact content AND recency order, which is what makes a snapshot
  /// roundtrip bit-identical.
  void for_each_entry_oldest_first(
      const std::function<void(std::size_t, const CacheEntry&)>& fn) const;

  /// Drops every entry (capacity budget unchanged).
  void clear();

  /// Brackets a phase in which only lookup() may run (the batch runner's
  /// parallel phase).  Phases do not nest.
  void open_read_phase() noexcept;
  void close_read_phase() noexcept { read_phase_ = false; }

 private:
  using Lru = std::list<CacheEntry>;

  CacheConfig cfg_;
  Lru lru_;  ///< front = most recently used; entries never move
  std::unordered_map<CacheKey, Lru::iterator, CacheKeyHash> map_;
  std::uint64_t node_cost_ = 0;
  bool read_phase_ = false;  ///< between open_read_phase and close_read_phase
};

/// cache-entry: cache_env_off
/// True when the MERLIN_CACHE environment variable force-disables shared
/// caching ("off" or "0") — the batch runner then detaches any configured
/// SubproblemCache, so the CI cache-off leg can run an unmodified suite.
[[nodiscard]] bool cache_env_off();

/// The engines' single-threaded cache handle.  Replaces GammaCache: owned
/// by exactly one thread at a time (the batch engine keeps one per pool
/// worker), optionally attached to a shared SubproblemCache.
///
/// find() is deliberately NON-const: it mutates the hit/miss counters and
/// may adopt a shared entry into the local table — the old GammaCache hid
/// that mutation behind `mutable` members in a const method, which this
/// interface makes explicit (tests/test_cache.cpp pins it down).
/// cache-entry: CacheSession
class CacheSession {
 public:
  CacheSession() = default;
  explicit CacheSession(SubproblemCache* shared)
      : shared_(shared != nullptr && shared->enabled() ? shared : nullptr) {}

  /// Returns the entry for `key` (local table first, then the shared
  /// store, adopting on a shared hit) or nullptr on miss.  The pointer is
  /// invalidated by the next non-const call on this session.
  [[nodiscard]] const CacheEntry* find(const CacheKey& key,
                                       bool* shared_hit = nullptr);

  /// Interns `curves` (copying their provenance out of `arena`) into the
  /// local table and stages the entry for publication at the next flush.
  /// `merlin_loops` is CacheEntry::merlin_loops (0 for a Gamma group).
  void insert(const CacheKey& key, std::span<const SolutionCurve> curves,
              const SolutionArena& arena, std::uint32_t merlin_loops = 0);

  /// Drops local entries, the touch log and the counters; keeps the shared
  /// attachment and allocations.  Called at the start of every
  /// merlin_optimize run (a fresh net or a retried attempt).
  void clear();

  /// Hands the net's staged writes to the caller (for SubproblemCache::
  /// apply) and resets the local state like clear().
  [[nodiscard]] FlushBatch take_flush();

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }
  /// Hits served by the shared store (first adoption only; subsequent
  /// finds of the same key are local hits).  <= hits().
  [[nodiscard]] std::size_t shared_hits() const { return shared_hits_; }
  [[nodiscard]] SubproblemCache* shared() const { return shared_; }

 private:
  struct LocalEntry {
    CacheEntry entry;
    bool publish = false;  ///< staged for flush (false for adopted entries)
  };

  SubproblemCache* shared_ = nullptr;
  std::unordered_map<CacheKey, std::uint32_t, CacheKeyHash> map_;
  std::vector<LocalEntry> entries_;
  std::vector<CacheKey> touched_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t shared_hits_ = 0;
};

}  // namespace merlin
