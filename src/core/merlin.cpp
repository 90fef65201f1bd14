#include "core/merlin.h"

#include <set>
#include <stdexcept>

#include "cache/shard.h"

namespace merlin {

namespace {

// Objective value of a result; larger is better for both modes (area is
// negated for the min-area variant).
double score(const BubbleResult& r, const Objective& obj) {
  if (obj.mode == ObjectiveMode::kMaxReqTime) return r.driver_req_time;
  return -r.chosen.area;
}

}  // namespace

MerlinResult merlin_optimize(const Net& net, const BufferLibrary& lib,
                             const Order& initial, const MerlinConfig& cfg) {
  if (initial.size() != net.fanout() || !Order(initial).valid())
    throw std::invalid_argument("merlin_optimize: bad initial order");

  MerlinResult res;
  Order pi = initial;
  // Orders already used as BUBBLE_CONSTRUCT inputs.  Theorem 7 guarantees
  // strict improvement, but engineering caps on curve sizes could in
  // principle make the walk revisit an order; the set turns that into a
  // clean convergence instead of a loop.
  std::set<std::vector<std::uint32_t>> seen;

  CacheSession local_session;
  CacheSession* cache_ptr = nullptr;
  if (cfg.reuse_subproblems) {
    // The session's local table is cleared per run (its keys are canonical,
    // but staged writes and counters are per-net facts); what a caller-
    // provided session buys is allocation reuse across many nets on one
    // worker thread plus, when attached, shared-store hits.
    cache_ptr = cfg.cache_session ? cfg.cache_session : &local_session;
    cache_ptr->clear();
  }
  // Provenance storage: the scratch arena is reset (capacity kept) and one
  // arena then backs every iteration.  Cache entries are arena-independent
  // copies, so the cache puts no constraint on the arena's lifetime.
  SolutionArena local_arena;
  SolutionArena& arena = cfg.scratch_arena ? *cfg.scratch_arena : local_arena;
  arena.reset();

  bool have_best = false;
  std::vector<SolNodeId> live_roots;
  while (res.iterations < cfg.max_iterations) {
    if (!seen.insert(pi.sequence()).second) {
      res.converged = true;
      break;
    }
    TraceSpan iter_span(cfg.bubble.obs, SpanName::kMerlinIteration,
                        res.iterations);
    BubbleResult r = bubble_construct(net, lib, pi, cfg.bubble, cache_ptr, &arena);
    ++res.iterations;
    obs_add(cfg.bubble.obs, Counter::kMerlinIterations);
    res.iteration_req_times.push_back(r.driver_req_time);

    const Order next = r.out_order;
    const bool improved =
        !have_best || score(r, cfg.bubble.objective) >
                          score(res.best, cfg.bubble.objective) + 1e-9;
    if (improved) {
      res.best = std::move(r);
      have_best = true;
    }
    if (next == pi) {  // line 8 of Figure 14: order fixpoint
      res.converged = true;
      break;
    }
    if (!improved) {  // capped curves only: no progress, stop searching
      res.converged = true;
      break;
    }
    pi = next;

    // Another neighborhood will be searched: squeeze the dead sub-DAGs of
    // this iteration out of the arena.  Live are only the best result's own
    // handles — cached sub-problems are arena-independent copies inside the
    // CacheSession, so (unlike the old arena-coupled GammaCache) they
    // neither pin arena nodes nor need remapping.  Everything else — the
    // losing candidates of the iteration — is reclaimed.  Remapping never
    // changes replayed structure, so results are unaffected (the arena
    // tests pin this down).
    // The compact span closes with the iteration scope, after the remaps
    // below — exactly the window the compaction counters cover.
    TraceSpan compact_span(cfg.bubble.obs, SpanName::kMerlinCompact);
    live_roots.clear();
    res.best.root_curve.collect_roots(live_roots);
    if (res.best.chosen.node != kNullSol)
      live_roots.push_back(res.best.chosen.node);
    const std::size_t live_before = arena.stats().live_nodes;
    const std::vector<SolNodeId> remap = arena.mark_compact(live_roots);
    obs_add(cfg.bubble.obs, Counter::kArenaCompactions);
    obs_add(cfg.bubble.obs, Counter::kArenaNodesCompacted,
            live_before - arena.stats().live_nodes);
    res.best.root_curve.remap_nodes(remap);
    if (res.best.chosen.node != kNullSol)
      res.best.chosen.node = remap[res.best.chosen.node];
  }
  if (!have_best)
    throw std::logic_error("merlin_optimize: no iterations performed");
  if (cache_ptr) {
    res.cache_hits = cache_ptr->hits();
    res.cache_misses = cache_ptr->misses();
  }
  return res;
}

}  // namespace merlin
