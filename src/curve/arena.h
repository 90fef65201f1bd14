#pragma once
// SolutionArena — bump-allocated storage for provenance SolNodes.
//
// The DP engines allocate provenance on their innermost loops (one node per
// surviving curve point, Lemma 10 bounds the points at O(nmq) per state).
// With shared_ptr provenance that meant a heap allocation plus atomic
// refcount traffic per node, multiplied across every worker of the batch
// engine.  The arena replaces it with the flat-pool/index-handle idiom:
//
//   * nodes live in fixed-size slabs (never reallocated, so references
//     handed out by operator[] stay valid across further allocation);
//   * a handle is a dense 32-bit index (SolNodeId) — half the size of a
//     pointer, trivially relocatable and serializable; the top bit tags
//     lane handles (below), so an arena holds at most 2^31 nodes;
//   * freeing is wholesale: reset() between independent DP invocations, or
//     mark_compact() to squeeze dead sub-DAGs out while the best result's
//     curves stay alive across neighborhood-search iterations.
//
// Ownership rules (see docs/ARCHITECTURE.md):
//   * one arena per DP invocation — engines that take an optional arena use
//     a private local one when none is supplied;
//   * cached sub-problems do NOT pin the arena: the cache subsystem
//     (cache/store.h) copies survivor curves out into arena-independent
//     entries and clones them back in via make_node() on a hit, so arenas
//     and caches have fully independent lifetimes;
//   * arenas are single-writer; the batch engine gives each pool worker
//     its own arena next to its CacheSession.  The one exception is a fork
//     (open_fork): a per-candidate DP phase whose items may run on several
//     threads each allocates into its own staging *lane*, never into the
//     arena.  Lane handles carry kLaneTag; after the phase the owner splices
//     the lanes back in item order and rebases each item's tagged handles
//     (SolutionCurve::rebase_lane).  Before the splice each lane drops the
//     nodes its item's output curve does not reference (keep_referenced),
//     so the arena receives only provenance a kept point can reach.  A
//     lane node may only reference nodes already in the arena, so lane i's
//     kept nodes land exactly where a serial loop over items 0..n-1 would
//     have put them: the node sequence, every handle, the fault-injection
//     grant count and the handle limit do not depend on the thread count.
//     While a fork is open the arena itself is read-only — a direct
//     allocation or a mark_compact asserts in Debug and sanitizer builds.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "curve/solution.h"
#include "geom/point.h"

namespace merlin {

class SolutionArena {
 public:
  /// Nodes per slab.  Slabs are never reallocated or freed before the arena
  /// (reset() keeps them), so `&arena[id]` is stable across allocation.
  static constexpr std::size_t kSlabShift = 13;  // 8192 nodes, 512 KiB/slab
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;
  static constexpr std::size_t kSlabMask = kSlabSize - 1;

  /// Tag bit of a lane handle; arena handles stay below it.
  static constexpr SolNodeId kLaneTag = 0x80000000u;
  /// Most nodes an arena (or a lane) can hold: the tag halves the handle
  /// space.  Allocating past it throws std::length_error.
  static constexpr std::size_t kMaxNodes = kLaneTag;

  struct Stats {
    std::uint64_t nodes_allocated = 0;  ///< lifetime total (across resets)
    std::size_t live_nodes = 0;         ///< nodes since the last reset/compact
    std::size_t peak_nodes = 0;         ///< high-water mark of live_nodes
    std::size_t reserved_bytes = 0;     ///< slab memory currently held
    std::size_t peak_bytes = 0;         ///< peak_nodes * sizeof(SolNode)
    std::uint64_t resets = 0;
    std::uint64_t compactions = 0;
  };

  SolutionArena() = default;
  SolutionArena(SolutionArena&&) = default;
  SolutionArena& operator=(SolutionArena&&) = default;
  SolutionArena(const SolutionArena&) = delete;
  SolutionArena& operator=(const SolutionArena&) = delete;

  // -- allocation (mirrors the old make_*_node free functions) --------------

  SolNodeId make_sink(Point at, std::int32_t sink_idx, double wire_width = 1.0) {
    return emplace(SolNode{StepKind::kSink, sink_idx, at, wire_width,
                           kNullSol, kNullSol});
  }
  SolNodeId make_wire(Point at, SolNodeId child, double wire_width = 1.0) {
    return emplace(SolNode{StepKind::kWire, -1, at, wire_width, child, kNullSol});
  }
  SolNodeId make_merge(Point at, SolNodeId l, SolNodeId r) {
    return emplace(SolNode{StepKind::kMerge, -1, at, 1.0, l, r});
  }
  SolNodeId make_buffer(Point at, std::int32_t buf_idx, SolNodeId child) {
    return emplace(SolNode{StepKind::kBuffer, buf_idx, at, 1.0, child, kNullSol});
  }
  /// Clones `n` verbatim — kind, idx, location, wire width and child
  /// handles, which must already be valid ids of THIS arena (or kNullSol).
  /// The cache subsystem uses it to materialize an arena-independent entry
  /// back into a run arena, child before parent (cache/store.h).
  SolNodeId make_node(const SolNode& n) { return emplace(n); }

  // -- fork lanes (see the ownership rules above) ----------------------------

  /// Whether `id` is a lane handle (tagged, not yet spliced).
  [[nodiscard]] static bool is_lane_handle(SolNodeId id) {
    return id != kNullSol && (id & kLaneTag) != 0;
  }
  /// The arena handle a lane handle receives when its lane is spliced with
  /// first id `base`; arena handles and kNullSol pass through unchanged.
  [[nodiscard]] static SolNodeId rebase_lane_handle(SolNodeId id,
                                                    SolNodeId base) {
    return is_lane_handle(id) ? base + (id & ~kLaneTag) : id;
  }

  /// Opens a fork of `n` items and returns one empty staging lane per item
  /// (owned by this arena; capacity is kept from fork to fork).  Each lane
  /// is itself a SolutionArena, so the curve algebra allocates into it
  /// unchanged; its make_* return tagged handles, and it throws
  /// std::logic_error when a node's child is a lane handle.  Forks do not
  /// nest.
  std::span<SolutionArena> open_fork(std::size_t n);

  /// Lane only: drops every staged node that no solution of `sols`
  /// references, keeps the rest in staging order (a node referenced twice
  /// is kept once) and rewrites the lane handles in `sols` to the kept
  /// nodes' new positions; arena handles and kNullSol pass through.  A lane
  /// node never references another lane node (make_* throws), so no kept
  /// node needs rewriting.  Asserts, in Debug and sanitizer builds, that
  /// this is a lane and that every lane handle in `sols` is below staged().
  void keep_referenced(std::span<Solution> sols);

  /// Appends `lane` (one of the open fork's lanes) to this arena in staging
  /// order and returns the id its first node received.  Splice the lanes in
  /// item order.  Grants of an armed set_alloc_fault and the handle limit
  /// are charged node by node, exactly as direct allocation charges them.
  SolNodeId splice(SolutionArena& lane);

  /// Closes the fork and empties every lane (also after a failed splice).
  /// A lane keeps its staging capacity for the next fork up to
  /// kLaneRetainNodes nodes.
  void close_fork() noexcept;
  static constexpr std::size_t kLaneRetainNodes = 128;

  // -- access ----------------------------------------------------------------

  [[nodiscard]] const SolNode& operator[](SolNodeId id) const {
    return slabs_[id >> kSlabShift][id & kSlabMask];
  }
  /// Bounds-checked access; throws std::invalid_argument on kNullSol or an
  /// id this arena never handed out (the replay/extraction entry points use
  /// it so a stale handle fails loudly instead of reading freed memory).
  [[nodiscard]] const SolNode& at(SolNodeId id) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Nodes staged in this lane since its fork opened (0 for an arena).
  [[nodiscard]] std::size_t staged() const { return staged_.size(); }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool contains(SolNodeId id) const { return id < size_; }

  // -- wholesale reclamation -------------------------------------------------

  /// Drops every node but keeps slab capacity for reuse (the per-worker
  /// arenas of the batch engine call this between nets).
  void reset();

  /// Mark-compact garbage collection.  Marks everything reachable from
  /// `roots` (kNullSol entries are permitted and skipped), slides the
  /// survivors down in allocation order, and returns the old-id → new-id
  /// remap table (dead or never-allocated ids map to kNullSol).  Allocation
  /// order is preserved, and because children are always allocated before
  /// their parents, shared sub-DAGs (the paper's Lemma 7 sharing) stay
  /// shared: two parents of one child both see the same remapped id.
  /// Callers must remap every surviving handle they hold
  /// (SolutionCurve::remap_nodes).  Cache entries are arena-independent
  /// copies (cache/store.h) and never need remapping.
  std::vector<SolNodeId> mark_compact(std::span<const SolNodeId> roots);

  [[nodiscard]] Stats stats() const;

  // -- fault injection hook --------------------------------------------------

  /// Arms an injected allocation failure: the arena grants `grants` more
  /// allocations, then the next emplace throws std::length_error exactly as
  /// a genuine 32-bit handle overflow would (same type, so callers cannot
  /// special-case the drill).  The batch runner arms this per construction
  /// attempt — a per-net countdown, never a lifetime count, so the trip
  /// point is independent of which nets this worker's arena served before.
  void set_alloc_fault(std::uint64_t grants) {
    fault_armed_ = true;
    fault_grants_ = grants;
  }
  /// Disarms the injected failure (end of the guarded attempt) and reports
  /// whether it fired since set_alloc_fault, so the batch runner can count
  /// the drill without telling it apart from a genuine overflow by type.
  bool clear_alloc_fault() {
    fault_armed_ = false;
    return std::exchange(fault_fired_, false);
  }

 private:
  friend struct SolutionArenaTestPeer;  // lowers node_limit_ in tests

  SolNodeId emplace(const SolNode& n) {
    if (lane_) return stage(n);
    assert(!fork_open_ && "SolutionArena: direct allocation during a fork");
    return append(n);
  }
  SolNodeId stage(const SolNode& n);
  SolNodeId append(const SolNode& n);
  [[nodiscard]] SolNode& slot(SolNodeId id) {
    return slabs_[id >> kSlabShift][id & kSlabMask];
  }

  std::vector<std::unique_ptr<SolNode[]>> slabs_;
  std::size_t size_ = 0;       // nodes currently live (bump pointer)
  Stats stats_;                // live_nodes/reserved_bytes filled by stats()
  bool fault_armed_ = false;   // injected allocation failure (set_alloc_fault)
  bool fault_fired_ = false;   // ...which append has thrown
  std::uint64_t fault_grants_ = 0;
  std::size_t node_limit_ = kMaxNodes;
  bool lane_ = false;          // this arena is a fork lane of another
  bool fork_open_ = false;     // between open_fork and close_fork
  std::vector<SolNode> staged_;       // lane: nodes in staging order
  std::vector<SolutionArena> lanes_;  // arena: lanes of the (last) fork
};

}  // namespace merlin
