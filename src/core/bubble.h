#pragma once
// BUBBLE_CONSTRUCT (paper Figure 9): the inner optimization engine.
//
// For a given sink order Pi, BUBBLE_CONSTRUCT builds — bottom-up, smallest
// sub-groups first — the table of three-dimensional solution curves
//
//   Gamma(l, e, r, p) = non-inferior buffered routing structures rooted at
//                       candidate location p covering the sink sub-group of
//                       length l, grouping structure chi_e, right-most order
//                       position r,
//
// where each structure is one *P_Tree layer: a rectilinear routing tree over
// the group's direct members plus (at most) one already-built inner group,
// optionally driven by a library buffer at p.  Groups nest along a chain as
// a Ca_Tree (Definition 2; alpha bounds each layer's fanout), and the chi
// bubbles let the realized sink order deviate from Pi by non-overlapping
// adjacent swaps — by Lemmas 5/6 exactly the neighborhood N(Pi), an
// exponential space searched in polynomial time (Theorem 1).
//
// The solution space is the Cartesian product of the *P_Tree and Ca_Tree
// spaces over N(Pi) (Theorem 3); all non-inferior (required time, load,
// buffer area) solutions within it survive pruning (Theorem 4, Lemma 9).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "buflib/library.h"
#include "curve/curve.h"
#include "geom/hanan.h"
#include "net/net.h"
#include "order/order.h"
#include "tree/routing_tree.h"

namespace merlin {

class NetGuard;      // runtime/guard.h
class CacheSession;  // cache/shard.h
class SigHasher;     // cache/signature.h
class ThreadPool;    // runtime/pool.h

/// Which variant of the problem to solve (paper section III.1).
enum class ObjectiveMode {
  kMaxReqTime,  ///< variant I: maximize driver required time s.t. area limit
  kMinArea,     ///< variant II: minimize buffer area s.t. required-time target
};

/// Objective for the final extraction step.
struct Objective {
  ObjectiveMode mode = ObjectiveMode::kMaxReqTime;
  double area_limit = std::numeric_limits<double>::infinity();  ///< variant I
  double req_target = -std::numeric_limits<double>::infinity();  ///< variant II
};

/// Tuning knobs for BUBBLE_CONSTRUCT.
struct BubbleConfig {
  /// Maximum fanout of every internal node (the Ca_Tree alpha).  The paper
  /// uses 15 (Table 1) and 10 (Table 2); quality saturates well below that
  /// for our library (see bench_alpha), matching the paper's remark that the
  /// effective bound depends on the library, not the problem size.
  std::size_t alpha = 4;

  /// Candidate buffer/Steiner locations P.
  CandidateOptions candidates{};

  /// Pruning inside layer-DP states (transient).
  PruneConfig inner_prune{0.0, 0.0, 6};
  /// Pruning of stored Gamma group curves.
  PruneConfig group_prune{0.0, 0.0, 8};

  /// When true (default), a group's root may stay unbuffered: the group then
  /// electrically merges into its parent layer.  When false, every internal
  /// node is a buffer and the output is a strict Ca_Tree hierarchy.
  bool allow_unbuffered_groups = true;

  /// Try only every stride-th library buffer (plus the strongest) when
  /// inserting buffers.  1 = the paper-faithful "all buffers are tried".
  std::size_t buffer_stride = 1;

  /// Wire width multipliers to consider per wire ([LCLH96]'s simultaneous
  /// wire sizing, listed by the paper's lineage as a natural extension).
  /// Empty = default 1x width only.
  std::vector<double> wire_widths{};

  /// Within-layer wire extensions are considered only from each candidate's
  /// `extension_neighbors` nearest candidates (0 = from all).  Child groups
  /// always extend from every anchor, so this only limits how far a layer's
  /// internal Steiner substructure can relocate in a single hop.
  std::size_t extension_neighbors = 0;

  /// When false, only chi_0 structures are generated: the engine degrades to
  /// a fixed-order hierarchical constructor (no neighborhood search).  Used
  /// by tests/benches to isolate the value of bubbling.
  bool enable_bubbling = true;

  /// Relaxed Ca_Trees (paper section 3.2.1, closing remark): allow up to
  /// this many internal-node children per internal node.  1 is the paper's
  /// default Ca_Tree; 2 enables the relaxed structure whose "optimal
  /// construction algorithm grows significantly" in cost (enumerating child
  /// pairs multiplies the layer-call count).  Values > 2 are clamped to 2.
  std::size_t max_internal_children = 1;

  Objective objective{};

  /// Optional observability sink (one per engine run / worker; never shared
  /// across threads).  Propagated into `inner_prune.obs` / `group_prune.obs`
  /// when those are unset.
  ObsSink* obs = nullptr;

  /// Optional per-net execution guard (runtime/guard.h): charged per *P_Tree
  /// layer call (weighted by group width) in plan order, with the arena
  /// live-node count checked at group boundaries and, with the deadline, at
  /// every phase boundary.  Budget trips raise BudgetExceeded out of
  /// bubble_construct.  Null = unguarded.
  NetGuard* guard = nullptr;

  /// Optional executor for the construction's layer phases (each layer's
  /// new *PTREE runs, length by length, its buffered root options and its
  /// child-curve extensions): each runs as a fork (curve/fork.h) on the
  /// pool's idle workers.  Results, counters and arena contents are
  /// identical with and without it.  The batch engine passes its own pool,
  /// so a net's search borrows the workers other nets left idle.  The layer
  /// plan (run interning, cache lookups, guard steps, fault sites) and the
  /// cache and Gamma writes stay on the calling thread.  Null = every phase
  /// runs on the calling thread.
  ThreadPool* pool = nullptr;
};

/// Outcome of one BUBBLE_CONSTRUCT run.
struct BubbleResult {
  RoutingTree tree;          ///< extracted best structure
  Solution chosen;           ///< the curve point the tree was built from
  SolutionCurve root_curve;  ///< final non-inferior curve at the source
  Order out_order;           ///< realized sink order (in N(input order))
  double driver_req_time = 0.0;  ///< ps at the driver input for `chosen`

  // Work statistics (complexity benches report these).
  std::size_t layer_calls = 0;      ///< (Omega, omega) pairs processed
  std::size_t solutions_stored = 0; ///< curve points surviving in Gamma
};

/// Mixes into `h` the context a cached Gamma group curve depends on besides
/// the group itself: the library cells, the wire model, the realized
/// candidate-location set `pts` (contents, not policy: two configs yielding
/// the same points share entries) and every DP knob of `cfg` that shapes
/// what survives into Gamma.  The objective and the obs/guard/pool pointers
/// are left out: they affect extraction and accounting, never stored curves.
/// bubble_construct keys its groups from this digest; the batch engine's
/// per-net memo (flow/batch.h, net_memo_key) starts from it too.
void mix_bubble_context(SigHasher& h, const BufferLibrary& lib,
                        const WireModel& wire, std::span<const Point> pts,
                        const BubbleConfig& cfg);

/// Runs BUBBLE_CONSTRUCT for `net` with initial order `order`.  `cache`, if
/// given, is the run's CacheSession (cache/shard.h): sub-problem groups are
/// keyed by a canonical structural signature (cache/signature.h) covering
/// the library, wire model, candidate set, DP knobs and the exact ordered
/// member sinks, so entries from earlier iterations, other nets and — when
/// the session is attached to a SubproblemCache — other workers' published
/// runs are copied instead of recomputed (paper section III.4).  Cache hits
/// materialize arena-independent entries into the run arena, so the cache
/// never constrains arena lifetime: `cache` works with or without `arena`.
///
/// `arena` receives all provenance allocated by the run.  When nullptr a
/// private arena backs the run and the result's curve handles dangle after
/// return (tree/out_order/metrics stay valid).
/// Preconditions: net has >= 1 sink, order is a permutation, alpha >= 2.
BubbleResult bubble_construct(const Net& net, const BufferLibrary& lib,
                              const Order& order, const BubbleConfig& cfg = {},
                              CacheSession* cache = nullptr,
                              SolutionArena* arena = nullptr);

}  // namespace merlin
