#pragma once
// Counter / gauge vocabulary of the observability layer.
//
// Every name here is a *contract*: it appears verbatim as a JSON key in the
// `--stats-json` export, it is documented (in paper terms) in
// docs/OBSERVABILITY.md, and tests/test_docs.cpp fails when the two drift
// apart.  Counters are monotonic and deterministic — for a fixed workload
// their aggregate totals are identical across thread counts and runs, which
// is what lets EXPERIMENTS.md cite them as measurements rather than
// anecdotes (tests/test_obs.cpp enforces this).  Gauges are high-water
// marks (also deterministic).  Wall-clock time is the span tracer's job
// (obs/trace.h), never a counter's.

#include <array>
#include <cstddef>
#include <cstdint>

namespace merlin {

/// Monotonic event counters.  Order is the JSON export order; names come
/// from counter_name() below.
enum class Counter : std::uint16_t {
  // Curve algebra (Def. 6 pruning; Lemmas 9/10 bound what survives).
  kCurvePointsPushed,    ///< candidate points entering a prune pass
  kCurvePointsPruned,    ///< points killed (dominated, quantized or capped)
  kCurvePointsKept,      ///< points surviving a prune pass
  kMergeCandidates,      ///< solution pairs formed by merge operations
  kExtendCandidates,     ///< wire-extension candidates generated
  kBufferCandidates,     ///< (solution, buffer) candidates generated
  kMergeKept,            ///< merge candidates surviving their batch prune
  kExtendKept,           ///< wire-extension candidates surviving theirs
  kBufferKept,           ///< buffer candidates surviving theirs

  // Sub-problem reuse (paper section III.4, Lemma 7 sharing) and the
  // shared cross-net cache built on it (cache/shard.h).  Shared hits are
  // the subset of gamma_cache_hits served by a SubproblemCache adoption;
  // staged/flushed/evicted count the deterministic publish at batch
  // reduction (flushed <= staged: duplicates and over-budget entries drop).
  kGammaCacheHits,
  kGammaCacheMisses,
  kCacheSharedHits,
  kCacheEntriesStaged,
  kCacheEntriesFlushed,
  kCacheEntriesEvicted,
  // The same store one grain up: whole Flow III nets served from the
  // batch engine's per-net memo (flow/batch.h, net_memo_key) without
  // running MERLIN at all.
  kNetMemoHits,
  // The same sharing one level down: *PTREE terminal ranges within one
  // BUBBLE_CONSTRUCT (core/bubble.cpp RangeMemo), counted per range.
  kRangeReuseHits,       ///< ranges copied from an earlier layer call
  kRangeReuseMisses,     ///< ranges computed (then stored for reuse)

  // Provenance arena (curve/arena.h).
  kArenaNodesAllocated,  ///< SolNodes allocated (per-run deltas, summed)
  kArenaNodesCompacted,  ///< nodes reclaimed by mark_compact
  kArenaCompactions,     ///< mark_compact calls

  // Fork grain (curve/fork.h): how many per-candidate phases the engines
  // ran and how many items they held.  Deterministic — a fork runs on lanes
  // with or without a pool.
  kForkPhases,           ///< CandidateFork::run calls
  kForkItems,            ///< items over all of them (the sum of their n)

  // Engine invocations and their work.
  kLayerCalls,           ///< *PTREE layer-DP calls (BubbleResult::layer_calls)
  kBubbleRuns,           ///< BUBBLE_CONSTRUCT invocations (Figure 9)
  kMerlinIterations,     ///< outer-loop iterations (Figure 14; Table 1 "Loops")
  kPtreeRuns,            ///< ptree_route invocations
  kLttreeRuns,           ///< lttree_optimize invocations
  kVanginRuns,           ///< vangin_insert invocations

  // Buffers in extracted structures, by producing engine.
  kBubbleBuffersInserted,
  kLttreeBuffersInserted,
  kVanginBuffersInserted,
  kBuffersInserted,      ///< total buffers in final per-net trees (flow level)

  // Batch / pool level.
  kNetsProcessed,
  kTrivialNets,
  kPoolTasks,            ///< tasks executed by the thread pool (deterministic)

  // Robustness layer (runtime/guard.h, flow/batch.h ladder; see
  // docs/ROBUSTNESS.md).  All deterministic under step budgets.
  kNetsOk,               ///< nets whose configured flow succeeded first try
  kNetsDegraded,         ///< nets rescued by a degradation-ladder fallback
  kNetsFailed,           ///< nets classified failed (skip policy)
  kNetsOverBudget,       ///< nets classified over_budget (skip policy)
  kNetsDeadline,         ///< nets classified deadline (skip policy)
  kNetRetries,           ///< ladder rungs attempted beyond the first
  kBudgetTrips,          ///< BudgetExceeded raised (step or arena cap)
  kDeadlineTrips,        ///< DeadlineExceeded raised (non-deterministic cap)
  kGuardSteps,           ///< DP steps charged to net guards
  kFaultsInjected,       ///< injected faults that fired (chaos harness)

  // Daemon survivability (serve/server.h; see docs/SERVING.md).  Stamped
  // into a job's own sink, so it is a per-request fact: whether THIS job's
  // deadline died in the admission queue.  Wall-clock-driven, hence (like
  // deadline_trips) excluded from differential comparisons.
  kServeDeadlineExpired, ///< request rejected at dispatch: deadline spent queued

  kCount,
};

/// High-water gauges (monotone maxima; deterministic for a fixed workload).
enum class Gauge : std::uint16_t {
  kCurvePeakWidth,       ///< most candidates offered to one prune
  kArenaPeakLiveNodes,   ///< SolutionArena peak live SolNodes
  kArenaPeakBytes,       ///< peak live-node bytes
  kGammaPeakSolutions,   ///< most solutions stored in one Gamma table
  kCachePeakEntries,     ///< largest per-run CacheSession entry count
  kCacheStoreEntries,    ///< shared SubproblemCache entries after a publish
  kCacheStoreNodes,      ///< shared-store provenance nodes after a publish
  kGuardPeakNetSteps,    ///< most DP steps one net's guard charged
  kCount,
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);

/// Canonical snake_case name (JSON key / docs anchor) of each counter.
[[nodiscard]] constexpr const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kCurvePointsPushed: return "curve_points_pushed";
    case Counter::kCurvePointsPruned: return "curve_points_pruned";
    case Counter::kCurvePointsKept: return "curve_points_kept";
    case Counter::kMergeCandidates: return "merge_candidates";
    case Counter::kExtendCandidates: return "extend_candidates";
    case Counter::kBufferCandidates: return "buffer_candidates";
    case Counter::kMergeKept: return "merge_kept";
    case Counter::kExtendKept: return "extend_kept";
    case Counter::kBufferKept: return "buffer_kept";
    case Counter::kGammaCacheHits: return "gamma_cache_hits";
    case Counter::kGammaCacheMisses: return "gamma_cache_misses";
    case Counter::kCacheSharedHits: return "cache_shared_hits";
    case Counter::kCacheEntriesStaged: return "cache_entries_staged";
    case Counter::kCacheEntriesFlushed: return "cache_entries_flushed";
    case Counter::kCacheEntriesEvicted: return "cache_entries_evicted";
    case Counter::kNetMemoHits: return "net_memo_hits";
    case Counter::kRangeReuseHits: return "range_reuse_hits";
    case Counter::kRangeReuseMisses: return "range_reuse_misses";
    case Counter::kArenaNodesAllocated: return "arena_nodes_allocated";
    case Counter::kArenaNodesCompacted: return "arena_nodes_compacted";
    case Counter::kArenaCompactions: return "arena_compactions";
    case Counter::kForkPhases: return "fork_phases";
    case Counter::kForkItems: return "fork_items";
    case Counter::kLayerCalls: return "layer_calls";
    case Counter::kBubbleRuns: return "bubble_runs";
    case Counter::kMerlinIterations: return "merlin_iterations";
    case Counter::kPtreeRuns: return "ptree_runs";
    case Counter::kLttreeRuns: return "lttree_runs";
    case Counter::kVanginRuns: return "vangin_runs";
    case Counter::kBubbleBuffersInserted: return "bubble_buffers_inserted";
    case Counter::kLttreeBuffersInserted: return "lttree_buffers_inserted";
    case Counter::kVanginBuffersInserted: return "vangin_buffers_inserted";
    case Counter::kBuffersInserted: return "buffers_inserted";
    case Counter::kNetsProcessed: return "nets_processed";
    case Counter::kTrivialNets: return "trivial_nets";
    case Counter::kPoolTasks: return "pool_tasks";
    case Counter::kNetsOk: return "nets_ok";
    case Counter::kNetsDegraded: return "nets_degraded";
    case Counter::kNetsFailed: return "nets_failed";
    case Counter::kNetsOverBudget: return "nets_over_budget";
    case Counter::kNetsDeadline: return "nets_deadline";
    case Counter::kNetRetries: return "net_retries";
    case Counter::kBudgetTrips: return "budget_trips";
    case Counter::kDeadlineTrips: return "deadline_trips";
    case Counter::kGuardSteps: return "guard_steps";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kServeDeadlineExpired: return "serve_deadline_expired";
    case Counter::kCount: break;
  }
  return "unknown_counter";
}

[[nodiscard]] constexpr const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kCurvePeakWidth: return "curve_peak_width";
    case Gauge::kArenaPeakLiveNodes: return "arena_peak_live_nodes";
    case Gauge::kArenaPeakBytes: return "arena_peak_bytes";
    case Gauge::kGammaPeakSolutions: return "gamma_peak_solutions";
    case Gauge::kCachePeakEntries: return "cache_peak_entries";
    case Gauge::kCacheStoreEntries: return "cache_store_entries";
    case Gauge::kCacheStoreNodes: return "cache_store_nodes";
    case Gauge::kGuardPeakNetSteps: return "guard_peak_net_steps";
    case Gauge::kCount: break;
  }
  return "unknown_gauge";
}

/// The monotonic counter bank.
struct Counters {
  std::array<std::uint64_t, kCounterCount> v{};

  void add(Counter c, std::uint64_t n = 1) { v[static_cast<std::size_t>(c)] += n; }
  [[nodiscard]] std::uint64_t get(Counter c) const {
    return v[static_cast<std::size_t>(c)];
  }
  void merge(const Counters& o) {
    for (std::size_t i = 0; i < kCounterCount; ++i) v[i] += o.v[i];
  }
  friend bool operator==(const Counters&, const Counters&) = default;
};

/// The high-water gauge bank.
struct Gauges {
  std::array<std::uint64_t, kGaugeCount> v{};

  void maximize(Gauge g, std::uint64_t x) {
    auto& slot = v[static_cast<std::size_t>(g)];
    if (x > slot) slot = x;
  }
  [[nodiscard]] std::uint64_t get(Gauge g) const {
    return v[static_cast<std::size_t>(g)];
  }
  void merge(const Gauges& o) {
    for (std::size_t i = 0; i < kGaugeCount; ++i)
      if (o.v[i] > v[i]) v[i] = o.v[i];
  }
  friend bool operator==(const Gauges&, const Gauges&) = default;
};

}  // namespace merlin
