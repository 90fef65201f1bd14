#pragma once
// CandidateFork — one per-candidate DP phase, run on arena fork lanes.
//
// The DP engines' innermost loops are "for every candidate location p, build
// p's curve from curves that are already final" (paper Fig. 9; the *PTREE
// merges and extensions, the buffered root options, the child-curve
// extensions).  BUBBLE_CONSTRUCT runs them layer-wide: one phase's items are
// (run, p) or (group, p) pairs over every run or group of a layer.  The
// items are independent, so a phase may run them on the batch pool's idle
// workers (ThreadPool::parallel_for) — provided nothing about the result
// depends on which thread ran what.  The fork guarantees that with three
// rules:
//
//   * provenance: item i allocates only into its own arena lane
//     (SolutionArena::open_fork); when its body returns, the lane drops
//     every node the item's output curve does not reference, and the lanes
//     are spliced in item order, so the arena ends up node-for-node as a
//     serial loop would leave it and holds only provenance of kept points;
//   * observability: item i records only into its own lane sink, and only
//     counters and gauges (no spans); the lane sinks are folded into the
//     phase's sink in item order;
//   * state: item i writes only its own output curve (and scratch indexed by
//     i, or thread-local) and reads only curves no item of the phase writes.
//
// The fork always runs on lanes, with or without a pool — one code path, and
// a fault injected into the arena trips at the splice whatever the thread
// count.  Without a pool (or with no idle worker) the items run as a plain
// loop on the calling thread.

#include <cstddef>
#include <span>
#include <vector>

#include "curve/curve.h"
#include "obs/sink.h"
#include "runtime/pool.h"

namespace merlin {

class CandidateFork {
 public:
  /// Forks phases of DPs allocating into `arena`.  `pool` may be null.
  CandidateFork(SolutionArena& arena, ThreadPool* pool)
      : arena_(arena), pool_(pool) {}

  /// Runs `body(p, lane, lane_obs)` for every item p in [0, n) and trims
  /// lane p to the nodes `out(p)` (the one curve item p wrote) references;
  /// then, in item order, folds lane p's counters and gauges into `obs` and
  /// splices lane p into the arena, rebasing the lane handles of `out(p)`.
  /// `lane_obs` is null when `obs` is.  An exception from an item, or from
  /// a splice (an injected arena fault, the handle limit), propagates after
  /// the fork is closed.  Each call with items counts one fork_phases and n
  /// fork_items into `obs`; n == 0 is no phase.
  template <typename Body, typename Out>
  void run(std::size_t n, ObsSink* obs, Body&& body, Out&& out) {
    if (n == 0) return;
    obs_add(obs, Counter::kForkPhases);
    obs_add(obs, Counter::kForkItems, n);
    if (obs != nullptr && lane_obs_.size() < n) lane_obs_.resize(n);
    const std::span<SolutionArena> lanes = arena_.open_fork(n);
    Closer closer{*this, n, obs != nullptr};
    const auto item = [&](std::size_t p) {
      body(p, lanes[p], obs != nullptr ? &lane_obs_[p] : nullptr);
      out(p).trim_lane(lanes[p]);
    };
    if (pool_ != nullptr) {
      pool_->parallel_for(n, item);
    } else {
      for (std::size_t p = 0; p < n; ++p) item(p);
    }
    for (std::size_t p = 0; p < n; ++p) {
      if (obs != nullptr) fold(lane_obs_[p], *obs);
      out(p).rebase_lane(arena_.splice(lanes[p]));
    }
    closer.done = true;
  }

 private:
  // Closes the fork on every exit; on an exceptional one also drops the
  // lane sinks' unfolded counts, so they cannot leak into the next phase.
  struct Closer {
    CandidateFork& fork;
    std::size_t n;
    bool obs;
    bool done = false;
    ~Closer() {
      fork.arena_.close_fork();
      if (obs && !done)
        for (std::size_t p = 0; p < n; ++p) discard(fork.lane_obs_[p]);
    }
  };

  /// Adds `lane`'s counters and gauges to `into` and zeroes them.
  static void fold(ObsSink& lane, ObsSink& into);
  static void discard(ObsSink& lane) noexcept;

  SolutionArena& arena_;
  ThreadPool* pool_;
  std::vector<ObsSink> lane_obs_;  ///< lane sinks, reused from phase to phase
};

}  // namespace merlin
