// Tests for the paper-described extensions: the section III.4 sub-problem
// cache (OVERLAP reuse, now a CacheSession over cache/shard.h) and the
// section 3.2.1 relaxed Ca_Trees (two internal children per layer).

#include <gtest/gtest.h>

#include <chrono>

#include "buflib/library.h"
#include "cache/shard.h"
#include "core/merlin.h"
#include "net/generator.h"
#include "order/tsp.h"
#include "tree/evaluate.h"
#include "tree/validate.h"

namespace merlin {
namespace {

BubbleConfig fast_cfg() {
  BubbleConfig cfg;
  cfg.alpha = 3;
  cfg.candidates.budget_factor = 1.5;
  cfg.candidates.max_candidates = 14;
  cfg.inner_prune.max_solutions = 4;
  cfg.group_prune.max_solutions = 5;
  cfg.buffer_stride = 4;
  return cfg;
}

Net small_net(std::size_t n, std::uint64_t seed, const BufferLibrary& lib) {
  NetSpec spec;
  spec.n_sinks = n;
  spec.seed = seed;
  return make_random_net(spec, lib);
}

// ---------------------------------------------------------------------------
// Sub-problem cache (section III.4).
// ---------------------------------------------------------------------------

TEST(CacheSession, IdenticalRunIsFullyCached) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(7, 1, lib);
  const Order order = tsp_order(net);
  const BubbleConfig cfg = fast_cfg();

  CacheSession cache(nullptr);  // local-only session, no shared store
  SolutionArena arena;
  const BubbleResult first =
      bubble_construct(net, lib, order, cfg, &cache, &arena);
  EXPECT_EQ(cache.hits(), 0u);
  const std::size_t misses_after_first = cache.misses();
  EXPECT_GT(misses_after_first, 0u);

  const BubbleResult second =
      bubble_construct(net, lib, order, cfg, &cache, &arena);
  // Every sub-group of the identical rerun must hit.
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_NEAR(second.driver_req_time, first.driver_req_time, 1e-9);
  EXPECT_NEAR(second.chosen.area, first.chosen.area, 1e-9);
}

TEST(CacheSession, CachedResultsAreBitIdentical) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(6, 2, lib);
  const Order order = tsp_order(net);
  const BubbleConfig cfg = fast_cfg();

  const BubbleResult plain = bubble_construct(net, lib, order, cfg, nullptr);
  CacheSession cache(nullptr);
  SolutionArena arena;
  bubble_construct(net, lib, order, cfg, &cache, &arena);  // warm
  const BubbleResult cached =
      bubble_construct(net, lib, order, cfg, &cache, &arena);
  EXPECT_DOUBLE_EQ(plain.driver_req_time, cached.driver_req_time);
  EXPECT_DOUBLE_EQ(plain.chosen.load, cached.chosen.load);
  EXPECT_DOUBLE_EQ(plain.chosen.area, cached.chosen.area);
}

TEST(CacheSession, NeighborOrderReusesMostSubproblems) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(8, 3, lib);
  const Order base = tsp_order(net);
  const Order neighbor = base.with_swap(2);
  const BubbleConfig cfg = fast_cfg();

  CacheSession cache(nullptr);
  SolutionArena arena;
  bubble_construct(net, lib, base, cfg, &cache, &arena);
  const std::size_t misses_cold = cache.misses();
  bubble_construct(net, lib, neighbor, cfg, &cache, &arena);
  const std::size_t new_misses = cache.misses() - misses_cold;
  // The single swap invalidates only sub-groups whose member sequence
  // changed ("often this overlap is relatively large"): the warm run must
  // recompute strictly less than a cold run and reuse a meaningful share.
  EXPECT_LT(new_misses, misses_cold);
  EXPECT_GT(cache.hits(), misses_cold / 10);
}

TEST(CacheSession, MerlinReportsCacheEffect) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(7, 4, lib);
  MerlinConfig cfg;
  cfg.bubble = fast_cfg();
  cfg.reuse_subproblems = true;
  const MerlinResult r = merlin_optimize(net, lib, tsp_order(net), cfg);
  if (r.iterations > 1) {
    EXPECT_GT(r.cache_hits, 0u);
  }

  MerlinConfig off = cfg;
  off.reuse_subproblems = false;
  const MerlinResult r2 = merlin_optimize(net, lib, tsp_order(net), off);
  EXPECT_EQ(r2.cache_hits, 0u);
  // Same search either way.
  EXPECT_NEAR(r.best.driver_req_time, r2.best.driver_req_time, 1e-9);
}

TEST(CacheSession, ReuseSpeedsUpIteration) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(9, 5, lib);
  const Order order = tsp_order(net);
  const BubbleConfig cfg = fast_cfg();
  CacheSession cache(nullptr);
  SolutionArena arena;
  const auto t0 = std::chrono::steady_clock::now();
  bubble_construct(net, lib, order, cfg, &cache, &arena);
  const auto t1 = std::chrono::steady_clock::now();
  bubble_construct(net, lib, order, cfg, &cache, &arena);
  const auto t2 = std::chrono::steady_clock::now();
  const double cold = std::chrono::duration<double>(t1 - t0).count();
  const double warm = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_LT(warm, cold * 0.5);  // warm rerun skips all construction
}

// ---------------------------------------------------------------------------
// Relaxed Ca_Trees (section 3.2.1).
// ---------------------------------------------------------------------------

TEST(RelaxedCaTree, PredictionStillMatchesEvaluator) {
  const BufferLibrary lib = make_standard_library();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Net net = small_net(6, seed, lib);
    BubbleConfig cfg = fast_cfg();
    cfg.max_internal_children = 2;
    const BubbleResult r = bubble_construct(net, lib, tsp_order(net), cfg);
    const EvalResult ev = evaluate_tree(net, r.tree, lib);
    EXPECT_NEAR(ev.root_req_time, r.chosen.req_time, 1e-6) << seed;
    EXPECT_NEAR(ev.buffer_area, r.chosen.area, 1e-6) << seed;
    EXPECT_TRUE(analyze_structure(net, r.tree).well_formed) << seed;
  }
}

TEST(RelaxedCaTree, OrdersStayInNeighborhood) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(7, 7, lib);
  BubbleConfig cfg = fast_cfg();
  cfg.max_internal_children = 2;
  const Order in = tsp_order(net);
  const BubbleResult r = bubble_construct(net, lib, in, cfg);
  EXPECT_TRUE(in_neighborhood(in, r.out_order));
}

TEST(RelaxedCaTree, NeverWorseWithExactCurves) {
  const BufferLibrary lib = make_tiny_library(3);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Net net = small_net(5, seed, lib);
    BubbleConfig exact;
    exact.alpha = 4;
    exact.candidates.policy = CandidatePolicy::kCentroids;
    exact.candidates.budget_factor = 1.0;
    exact.inner_prune.max_solutions = 0;
    exact.group_prune.max_solutions = 0;
    BubbleConfig relaxed = exact;
    relaxed.max_internal_children = 2;
    const double q1 =
        bubble_construct(net, lib, Order::identity(5), exact).driver_req_time;
    const double q2 =
        bubble_construct(net, lib, Order::identity(5), relaxed).driver_req_time;
    EXPECT_GE(q2, q1 - 1e-6) << seed;  // strictly larger space
  }
}

TEST(RelaxedCaTree, CanProduceTwoBufferChildren) {
  // With all group roots forced to be buffers, the relaxed engine may hang
  // two buffer children under one node — which the strict engine cannot.
  const BufferLibrary lib = make_standard_library();
  bool seen_two = false;
  for (std::uint64_t seed = 1; seed <= 6 && !seen_two; ++seed) {
    const Net net = small_net(6, seed, lib);
    BubbleConfig cfg = fast_cfg();
    cfg.max_internal_children = 2;
    cfg.allow_unbuffered_groups = false;
    const BubbleResult r = bubble_construct(net, lib, tsp_order(net), cfg);
    const TreeStructure st = analyze_structure(net, r.tree);
    EXPECT_TRUE(st.well_formed);
    EXPECT_LE(st.max_buffer_children, 2u);
    seen_two = seen_two || st.max_buffer_children == 2;
  }
  // Not guaranteed for every net, but across six seeds the relaxed shape
  // should appear at least once.
  EXPECT_TRUE(seen_two);
}

}  // namespace
}  // namespace merlin
