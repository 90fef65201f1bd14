#pragma once
// Arena-decoupled storage for cached sub-problem curves.
//
// The old GammaCache stored SolutionCurves whose provenance handles pointed
// into the run's SolutionArena — so entries died with the run, and every
// mark_compact had to remap the whole cache.  A CacheEntry instead copies
// one Gamma group's survivor curves out of the arena into a self-contained
// blob: the solution points (metrics plus a node index *local to the
// entry*) and the reachable provenance sub-DAG, re-indexed 0..N-1 in
// child-before-parent order.  Entries therefore outlive any single
// bubble_construct run, survive arena compaction untouched, and can be
// materialized back into *any* arena later (intern_entry / the inverse
// materialize_entry below).  Cost accounting is in provenance nodes, the
// same unit the arena and its guard budgets use.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/signature.h"
#include "curve/arena.h"
#include "curve/curve.h"

namespace merlin {

/// cache-entry: CacheEntry
/// One cached sub-problem: the child-form curves of a Gamma group for every
/// candidate location p, with provenance re-indexed into `nodes`.
struct CacheEntry {
  CacheKey key{};
  /// curves[p] = the group's stored curve at candidate p.  Solution::node
  /// indexes into `nodes` below (or kNullSol); point order is the exact
  /// order the interned curves held, so materializing reproduces them
  /// bit-identically.
  std::vector<std::vector<Solution>> curves;
  /// Entry-local provenance DAG: a/b links index into this vector (or
  /// kNullSol), children always before parents.  Sharing between points
  /// (the paper's Lemma 7) is preserved — a node reachable from several
  /// solutions appears once.
  std::vector<SolNode> nodes;
  /// Net-memo entries only (flow/batch.h, net_memo_key): the MERLIN
  /// iteration count of the memoized net, which its one-point curve cannot
  /// carry.  Always >= 1 there; 0 marks a Gamma group entry.
  std::uint32_t merlin_loops = 0;

  /// Eviction-budget cost of this entry, in provenance nodes.
  [[nodiscard]] std::size_t node_cost() const { return nodes.size(); }
  [[nodiscard]] std::size_t solution_count() const {
    std::size_t n = 0;
    for (const auto& c : curves) n += c.size();
    return n;
  }
};

/// cache-entry: intern_entry
/// Deep-copies `curves` — their points and every provenance node reachable
/// in `arena` — into a self-contained entry keyed by `key`.
CacheEntry intern_entry(const CacheKey& key,
                        std::span<const SolutionCurve> curves,
                        const SolutionArena& arena);

/// cache-entry: materialize_entry
/// Allocates `entry`'s provenance into `arena` (child before parent, via
/// SolutionArena::make_node) and rebuilds its curves with run-arena
/// handles.  The returned curves are bit-identical to the ones interned.
std::vector<SolutionCurve> materialize_entry(const CacheEntry& entry,
                                             SolutionArena& arena);

}  // namespace merlin
