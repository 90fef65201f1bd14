// Unit + property tests for the PTREE baseline [LCLH96].

#include <gtest/gtest.h>

#include "buflib/library.h"
#include "net/generator.h"
#include "order/tsp.h"
#include "ptree/ptree.h"
#include "tree/evaluate.h"
#include "tree/validate.h"

namespace merlin {
namespace {

PTreeConfig small_cfg() {
  PTreeConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 2.0;
  cfg.prune.max_solutions = 8;
  return cfg;
}

TEST(PTree, SingleSinkIsDirectWire) {
  const BufferLibrary lib = make_tiny_library();
  Net net;
  net.source = {0, 0};
  net.wire = WireModel{0.1, 0.2};
  net.driver.delay = DelayParams{50, 1, 0, 0};
  net.sinks.push_back(Sink{{300, 400}, 10.0, 1000.0});
  const PTreeResult r = ptree_route(net, Order::identity(1), small_cfg());
  EXPECT_DOUBLE_EQ(r.tree.total_wirelength(), 700.0);
  const EvalResult ev = evaluate_tree(net, r.tree, lib);
  EXPECT_NEAR(ev.root_req_time, r.chosen.req_time, 1e-9);
}

TEST(PTree, TwoSinksShareTrunkWhenColinear) {
  // Sinks stacked on a line: optimal embedding shares the trunk wire, so
  // total wirelength equals the farthest sink's distance.
  const BufferLibrary lib = make_tiny_library();
  Net net;
  net.source = {0, 0};
  net.wire = WireModel{0.1, 0.2};
  net.driver.delay = DelayParams{50, 1, 0, 0};
  net.sinks.push_back(Sink{{100, 0}, 10.0, 1000.0});
  net.sinks.push_back(Sink{{200, 0}, 10.0, 1000.0});
  PTreeConfig cfg = small_cfg();
  cfg.candidates.policy = CandidatePolicy::kFullHanan;
  const PTreeResult r = ptree_route(net, Order::identity(2), cfg);
  EXPECT_DOUBLE_EQ(r.tree.total_wirelength(), 200.0);
}

TEST(PTree, PredictionMatchesEvaluator) {
  const BufferLibrary lib = make_tiny_library();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    NetSpec spec;
    spec.n_sinks = 7;
    spec.seed = seed;
    const Net net = make_random_net(spec, lib);
    const PTreeResult r = ptree_route(net, tsp_order(net), small_cfg());
    const EvalResult ev = evaluate_tree(net, r.tree, lib);
    EXPECT_NEAR(ev.root_req_time, r.chosen.req_time, 1e-6) << seed;
    EXPECT_NEAR(ev.root_load, r.chosen.load, 1e-6) << seed;
    EXPECT_NEAR(ev.wirelength, r.chosen.wirelen, 1e-6) << seed;
    EXPECT_EQ(ev.buffer_count, 0u);  // PTREE inserts no buffers
  }
}

TEST(PTree, OutputRespectsPermutation) {
  // The P-Tree property: the embedding's sink order equals the given order.
  const BufferLibrary lib = make_tiny_library();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    NetSpec spec;
    spec.n_sinks = 6;
    spec.seed = seed;
    const Net net = make_random_net(spec, lib);
    const Order order = tsp_order(net);
    const PTreeResult r = ptree_route(net, order, small_cfg());
    EXPECT_EQ(r.tree.sink_order(), order) << seed;
  }
}

TEST(PTree, TreeIsWellFormed) {
  const BufferLibrary lib = make_tiny_library();
  NetSpec spec;
  spec.n_sinks = 9;
  spec.seed = 11;
  const Net net = make_random_net(spec, lib);
  const PTreeResult r = ptree_route(net, tsp_order(net), small_cfg());
  EXPECT_TRUE(analyze_structure(net, r.tree).well_formed);
}

TEST(PTree, WirelengthAtLeastHalfPerimeterOfFarthest) {
  // Any tree that reaches every sink is at least as long as the distance to
  // the farthest sink.
  const BufferLibrary lib = make_tiny_library();
  NetSpec spec;
  spec.n_sinks = 8;
  spec.seed = 21;
  const Net net = make_random_net(spec, lib);
  const PTreeResult r = ptree_route(net, tsp_order(net), small_cfg());
  std::int64_t far = 0;
  for (const Sink& s : net.sinks) far = std::max(far, manhattan(net.source, s.pos));
  EXPECT_GE(r.tree.total_wirelength(), static_cast<double>(far));
}

TEST(PTree, RootCurveIsNonInferior) {
  const BufferLibrary lib = make_tiny_library();
  NetSpec spec;
  spec.n_sinks = 6;
  spec.seed = 31;
  const Net net = make_random_net(spec, lib);
  const PTreeResult r = ptree_route(net, tsp_order(net), small_cfg());
  for (const Solution& a : r.root_curve)
    for (const Solution& b : r.root_curve)
      if (&a != &b) {
        EXPECT_FALSE(a.dominated_by(b));
      }
}

TEST(PTree, BetterOrdersCanOnlyHelpTotalDelay) {
  // Not a strict theorem, but the TSP order should not be much worse than
  // identity; mainly exercises two different orders through the same DP.
  const BufferLibrary lib = make_tiny_library();
  NetSpec spec;
  spec.n_sinks = 8;
  spec.seed = 41;
  const Net net = make_random_net(spec, lib);
  const PTreeResult tsp = ptree_route(net, tsp_order(net), small_cfg());
  const PTreeResult ident = ptree_route(net, Order::identity(8), small_cfg());
  const double q_tsp = evaluate_tree(net, tsp.tree, lib).driver_req_time;
  const double q_id = evaluate_tree(net, ident.tree, lib).driver_req_time;
  EXPECT_GE(q_tsp, q_id - 1.0);
}

TEST(PTree, RejectsBadInput) {
  Net net;
  net.source = {0, 0};
  EXPECT_THROW(ptree_route(net, Order::identity(0), small_cfg()),
               std::invalid_argument);
  net.sinks.push_back(Sink{{1, 1}, 1.0, 1.0});
  EXPECT_THROW(ptree_route(net, Order({0, 1}), small_cfg()),
               std::invalid_argument);
}

}  // namespace
}  // namespace merlin
