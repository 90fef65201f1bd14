#pragma once
// The three experimental setups of the paper's evaluation (section IV):
//
//   Flow I   : LTTREE fanout optimization (required-time order) followed by
//              PTREE routing of every fanout group (TSP order), buffers
//              placed at subtree centroids — the conventional
//              logic-then-layout sequence.
//   Flow II  : PTREE routing of the whole net (TSP order) followed by van
//              Ginneken buffer insertion on the fixed tree.
//   Flow III : MERLIN — unified hierarchical buffered routing generation
//              with local neighborhood search.
//
// All three produce a concrete RoutingTree over the same net and are scored
// by the same independent evaluator, which is exactly how Tables 1 and 2
// compare them.

#include <cstddef>

#include "buflib/library.h"
#include "core/merlin.h"
#include "net/net.h"
#include "ptree/ptree.h"
#include "tree/evaluate.h"
#include "tree/routing_tree.h"
#include "vangin/vangin.h"

namespace merlin {

/// Shared tuning for the flows.  The candidate budget is common so the
/// comparison stays fair; per-engine pruning knobs are separate.
struct FlowConfig {
  CandidateOptions candidates{};
  PruneConfig engine_prune{0.0, 0.0, 8};  ///< PTREE / LTTREE / van Ginneken
  MerlinConfig merlin{};                  ///< flow III (bubble.candidates is
                                          ///< overwritten with `candidates`)
  /// Optional externally owned provenance arena.  When set, every engine a
  /// flow runs allocates into it (the flow resets it first, keeping slab
  /// capacity), so a caller processing many nets on one thread reuses the
  /// memory — the batch engine keeps one per pool worker next to its
  /// CacheSession.  Single-thread ownership, like MerlinConfig::
  /// cache_session.
  /// For flow III it doubles as MerlinConfig::scratch_arena unless that is
  /// already set.
  SolutionArena* scratch_arena = nullptr;
  /// Optional observability sink, propagated into every engine the flow
  /// runs.  Same ownership rule as scratch_arena: one per worker thread,
  /// never shared across pool workers (the batch engine merges per-worker
  /// sinks serially afterwards).
  ObsSink* obs = nullptr;
  /// Optional per-net execution guard (runtime/guard.h), propagated into
  /// every engine the flow runs.  The batch engine creates one per
  /// construction attempt; budget trips raise BudgetExceeded out of the
  /// run_flow* call.  Null = unguarded.
  NetGuard* guard = nullptr;
  /// Optional executor for flow III's per-candidate loops, propagated into
  /// BubbleConfig::pool (see there).  The batch engine passes its own pool.
  /// Null = single-threaded.
  ThreadPool* pool = nullptr;
};

/// One flow's outcome on one net.
struct FlowResult {
  RoutingTree tree;
  EvalResult eval;
  double runtime_ms = 0.0;
  std::size_t merlin_loops = 0;  ///< flow III only: Table 1 "Loops" column
  std::size_t cache_hits = 0;    ///< flow III only: CacheSession statistics
  std::size_t cache_misses = 0;  ///< (batch runs report circuit-wide totals)
  /// Flow III only: the root-curve point the tree was extracted from.  Its
  /// provenance resolves in FlowConfig::scratch_arena until that arena is
  /// next reset (the batch engine's per-net memo interns it from there).
  Solution chosen{};
};

/// Flow I: LTTREE + per-group PTREE.
FlowResult run_flow1(const Net& net, const BufferLibrary& lib,
                     const FlowConfig& cfg = {});

/// Flow II: PTREE + van Ginneken buffer insertion.
FlowResult run_flow2(const Net& net, const BufferLibrary& lib,
                     const FlowConfig& cfg = {});

/// Flow III: MERLIN.
FlowResult run_flow3(const Net& net, const BufferLibrary& lib,
                     const FlowConfig& cfg = {});

/// A FlowConfig with budgets scaled to the net size so that the Table-1
/// style experiments finish in laptop time even for the 73-sink net.
FlowConfig scaled_flow_config(std::size_t n_sinks);

/// A strictly cheaper version of `cfg` for the batch engine's degradation
/// ladder: candidate budget, per-state curve caps, buffer stride, and
/// MERLIN iteration count are all tightened, so a net that blew its budget
/// under `cfg` gets a realistic second chance inside the same budget.
/// Deterministic (pure function of `cfg`), and pointer fields (arena, obs,
/// guard) are preserved.
FlowConfig tightened_flow_config(const FlowConfig& cfg);

/// Integer centroid of a point multiset (flow I places each group's buffer
/// at its subtree's centroid).  Accumulates and divides in 64-bit, then
/// clamps into the int32 coordinate domain, so far-flung coordinates cannot
/// silently wrap.  Empty input yields the origin.
Point centroid(const std::vector<Point>& pts);

}  // namespace merlin
