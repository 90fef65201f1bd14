#pragma once
// PTREE: permutation-constrained rectilinear routing-tree DP [LCLH96].
//
// Given a fixed sink order, PTREE finds non-inferior embeddings of the net
// into a set of candidate points (classically the Hanan grid) by dynamic
// programming over contiguous order ranges:
//
//   S(p, i, j) = routing structures rooted at candidate p connecting sinks
//                order[i..j], built by either merging two sub-ranges at p or
//                extending a structure rooted at another candidate by a wire.
//
// This is the second phase of the paper's Flow I and the routing phase of
// Flow II; it contains no buffers (curve area stays 0; the non-inferior set
// is effectively the classic load/required-time frontier).
//
// The range DP itself (ptree/range_dp.h) is shared with BUBBLE_CONSTRUCT,
// whose *PTREE layers run it over sinks plus child-group terminals and add
// buffers at the layer roots (core/bubble.cpp).

#include <cstddef>

#include "curve/curve.h"
#include "geom/hanan.h"
#include "net/net.h"
#include "order/order.h"
#include "tree/routing_tree.h"

namespace merlin {

class NetGuard;  // runtime/guard.h

/// Tuning knobs for the PTREE DP.
struct PTreeConfig {
  CandidateOptions candidates{};       ///< how to build the candidate set P
  PruneConfig prune{0.0, 0.0, 16};     ///< per-state curve pruning (bounded)
  /// Wire width multipliers to consider per wire ([LCLH96]'s simultaneous
  /// wire sizing).  Empty = default 1x width only.
  std::vector<double> wire_widths{};
  /// Optional observability sink (one per engine run / worker; never shared
  /// across threads).  Propagated into `prune.obs` when that is unset.
  ObsSink* obs = nullptr;
  /// Optional per-net execution guard (runtime/guard.h): charged one DP step
  /// per (i, j) order range; budget trips raise BudgetExceeded out of
  /// ptree_route.  Null = unguarded.
  NetGuard* guard = nullptr;
};

/// Outcome of a PTREE run.
struct PTreeResult {
  RoutingTree tree;         ///< best-required-time embedding
  SolutionCurve root_curve; ///< full non-inferior curve at the source
  Solution chosen;          ///< the solution `tree` was built from
};

/// Runs the PTREE DP for `net` with the given sink order.  The chosen
/// solution maximizes the required time at the driver *input* (i.e. after
/// subtracting the driver's own delay into the root load).
/// Precondition: order is a permutation of the net's sinks; net has >= 1 sink.
///
/// Provenance is allocated in `*arena` when one is supplied (the result's
/// curve/solution handles then stay resolvable in it — Flow I grafts PTREE
/// sub-solutions into an LTTREE skeleton this way); with the default
/// nullptr a private arena is used and discarded, leaving `tree` and the
/// numeric fields valid but the handles dangling.
PTreeResult ptree_route(const Net& net, const Order& order,
                        const PTreeConfig& cfg = {},
                        SolutionArena* arena = nullptr);

}  // namespace merlin
