// Unit + property tests for BUBBLE_CONSTRUCT, the paper's inner engine:
// evaluator agreement, Lemma 5 (orders stay in N(Pi)), Lemma 6 (the whole
// neighborhood is covered), Theorem 4 (non-inferior set), Ca_Tree structure,
// and both objective variants.

#include <gtest/gtest.h>

#include "buflib/library.h"
#include "core/bubble.h"
#include "net/generator.h"
#include "order/tsp.h"
#include "tree/evaluate.h"
#include "tree/validate.h"

namespace merlin {
namespace {

// Small fast configuration used by most tests.
BubbleConfig fast_cfg() {
  BubbleConfig cfg;
  cfg.alpha = 3;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 1.5;
  cfg.candidates.max_candidates = 14;
  cfg.inner_prune.max_solutions = 4;
  cfg.group_prune.max_solutions = 5;
  cfg.buffer_stride = 4;
  return cfg;
}

// Exact configuration (no caps) for optimality-style assertions; keep the
// candidate set tiny.
BubbleConfig exact_cfg() {
  BubbleConfig cfg;
  cfg.alpha = 5;
  cfg.candidates.policy = CandidatePolicy::kCentroids;
  cfg.candidates.budget_factor = 1.0;
  cfg.inner_prune.max_solutions = 0;
  cfg.group_prune.max_solutions = 0;
  return cfg;
}

Net small_net(std::size_t n, std::uint64_t seed, const BufferLibrary& lib) {
  NetSpec spec;
  spec.n_sinks = n;
  spec.seed = seed;
  return make_random_net(spec, lib);
}

class BubbleSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BubbleSeedTest, PredictionMatchesEvaluatorExactly) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(6, GetParam(), lib);
  const BubbleResult r = bubble_construct(net, lib, tsp_order(net), fast_cfg());
  const EvalResult ev = evaluate_tree(net, r.tree, lib);
  EXPECT_NEAR(ev.root_req_time, r.chosen.req_time, 1e-6);
  EXPECT_NEAR(ev.root_load, r.chosen.load, 1e-6);
  EXPECT_NEAR(ev.buffer_area, r.chosen.area, 1e-6);
  EXPECT_NEAR(ev.wirelength, r.chosen.wirelen, 1e-6);
  EXPECT_NEAR(ev.driver_req_time, r.driver_req_time, 1e-6);
}

TEST_P(BubbleSeedTest, Lemma5OutputOrderInNeighborhood) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(7, GetParam(), lib);
  const Order in = tsp_order(net);
  const BubbleResult r = bubble_construct(net, lib, in, fast_cfg());
  EXPECT_TRUE(r.out_order.valid());
  EXPECT_TRUE(in_neighborhood(in, r.out_order));
}

TEST_P(BubbleSeedTest, TreeIsWellFormed) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(6, GetParam(), lib);
  const BubbleResult r = bubble_construct(net, lib, tsp_order(net), fast_cfg());
  EXPECT_TRUE(analyze_structure(net, r.tree).well_formed);
  EXPECT_EQ(r.tree.sink_order(), r.out_order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BubbleSeedTest, ::testing::Values(1, 2, 3, 4));

TEST(Bubble, Lemma6CoversWholeNeighborhood) {
  // The bubbling run from Pi must match the best fixed-order run over every
  // member of N(Pi) — with exact curves both search the same space (Thm. 4).
  const BufferLibrary lib = make_tiny_library(4);
  for (std::uint64_t seed : {4, 5}) {
    const Net net = small_net(5, seed, lib);
    const Order base = Order::identity(5);
    const BubbleResult full = bubble_construct(net, lib, base, exact_cfg());

    BubbleConfig fixed = exact_cfg();
    fixed.enable_bubbling = false;
    double best_fixed = -1e300;
    for (const Order& nb : enumerate_neighborhood(base)) {
      const BubbleResult r = bubble_construct(net, lib, nb, fixed);
      best_fixed = std::max(best_fixed, r.driver_req_time);
    }
    EXPECT_NEAR(full.driver_req_time, best_fixed, 1e-6) << seed;
  }
}

TEST(Bubble, BubblingNeverHurtsWithExactCurves) {
  const BufferLibrary lib = make_tiny_library(3);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Net net = small_net(5, seed, lib);
    BubbleConfig on = exact_cfg();
    BubbleConfig off = exact_cfg();
    off.enable_bubbling = false;
    const double q_on = bubble_construct(net, lib, Order::identity(5), on).driver_req_time;
    const double q_off = bubble_construct(net, lib, Order::identity(5), off).driver_req_time;
    EXPECT_GE(q_on, q_off - 1e-6) << seed;
  }
}

TEST(Bubble, RootCurveIsNonInferior) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(6, 9, lib);
  const BubbleResult r = bubble_construct(net, lib, tsp_order(net), fast_cfg());
  for (const Solution& a : r.root_curve)
    for (const Solution& b : r.root_curve)
      if (&a != &b) {
        EXPECT_FALSE(a.dominated_by(b));
      }
}

TEST(Bubble, StrictCaTreeWhenUnbufferedGroupsDisabled) {
  const BufferLibrary lib = make_standard_library();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Net net = small_net(6, seed, lib);
    BubbleConfig cfg = fast_cfg();
    cfg.allow_unbuffered_groups = false;
    const BubbleResult r = bubble_construct(net, lib, tsp_order(net), cfg);
    EXPECT_TRUE(is_ca_tree(net, r.tree, cfg.alpha))
        << seed << "\n" << r.tree.to_string(net, lib);
  }
}

TEST(Bubble, SingleSinkNet) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(1, 5, lib);
  const BubbleResult r = bubble_construct(net, lib, Order::identity(1), fast_cfg());
  const EvalResult ev = evaluate_tree(net, r.tree, lib);
  EXPECT_NEAR(ev.driver_req_time, r.driver_req_time, 1e-6);
  EXPECT_TRUE(analyze_structure(net, r.tree).well_formed);
}

TEST(Bubble, TwoSinkNet) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(2, 5, lib);
  const BubbleResult r = bubble_construct(net, lib, Order::identity(2), fast_cfg());
  EXPECT_TRUE(analyze_structure(net, r.tree).well_formed);
}

TEST(Bubble, AreaLimitIsRespected) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(6, 3, lib);
  BubbleConfig cfg = fast_cfg();
  cfg.objective.mode = ObjectiveMode::kMaxReqTime;
  cfg.objective.area_limit = 30.0;
  const BubbleResult r = bubble_construct(net, lib, tsp_order(net), cfg);
  EXPECT_LE(r.chosen.area, 30.0 + 1e-9);
}

TEST(Bubble, MinAreaVariantMeetsTargetWithLessArea) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(6, 3, lib);

  BubbleConfig max_rt = fast_cfg();
  const BubbleResult best = bubble_construct(net, lib, tsp_order(net), max_rt);

  BubbleConfig min_area = fast_cfg();
  min_area.objective.mode = ObjectiveMode::kMinArea;
  min_area.objective.req_target = best.driver_req_time - 200.0;  // relaxed
  const BubbleResult frugal = bubble_construct(net, lib, tsp_order(net), min_area);

  EXPECT_GE(frugal.driver_req_time, min_area.objective.req_target - 1e-6);
  EXPECT_LE(frugal.chosen.area, best.chosen.area + 1e-9);
}

TEST(Bubble, ZeroAreaLimitMeansNoBuffers) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(5, 7, lib);
  BubbleConfig cfg = fast_cfg();
  cfg.objective.area_limit = 0.0;
  const BubbleResult r = bubble_construct(net, lib, tsp_order(net), cfg);
  EXPECT_EQ(r.tree.buffer_count(), 0u);
}

TEST(Bubble, RejectsBadInput) {
  const BufferLibrary lib = make_standard_library();
  Net net;
  net.source = {0, 0};
  EXPECT_THROW(bubble_construct(net, lib, Order::identity(0), fast_cfg()),
               std::invalid_argument);
  net.sinks.push_back(Sink{{1, 1}, 1.0, 1.0});
  EXPECT_THROW(bubble_construct(net, lib, Order::identity(2), fast_cfg()),
               std::invalid_argument);
  EXPECT_THROW(bubble_construct(net, BufferLibrary{}, Order::identity(1), fast_cfg()),
               std::invalid_argument);
  BubbleConfig bad = fast_cfg();
  bad.alpha = 1;
  EXPECT_THROW(bubble_construct(net, lib, Order::identity(1), bad),
               std::invalid_argument);
}

TEST(Bubble, StatsArePopulated) {
  const BufferLibrary lib = make_standard_library();
  const Net net = small_net(6, 2, lib);
  const BubbleResult r = bubble_construct(net, lib, tsp_order(net), fast_cfg());
  EXPECT_GT(r.layer_calls, 0u);
  EXPECT_GT(r.solutions_stored, 0u);
}

TEST(Bubble, LargerAlphaNeverShrinksTheExactSpace) {
  const BufferLibrary lib = make_tiny_library(3);
  const Net net = small_net(5, 6, lib);
  BubbleConfig a3 = exact_cfg();
  a3.alpha = 3;
  BubbleConfig a5 = exact_cfg();
  a5.alpha = 5;
  const double q3 =
      bubble_construct(net, lib, Order::identity(5), a3).driver_req_time;
  const double q5 =
      bubble_construct(net, lib, Order::identity(5), a5).driver_req_time;
  EXPECT_GE(q5, q3 - 1e-6);
}

}  // namespace
}  // namespace merlin
