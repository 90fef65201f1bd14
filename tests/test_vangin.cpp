// Unit + property tests for van Ginneken buffer insertion [Gi90].

#include <gtest/gtest.h>

#include "buflib/library.h"
#include "net/generator.h"
#include "order/tsp.h"
#include "ptree/ptree.h"
#include "tree/evaluate.h"
#include "tree/validate.h"
#include "vangin/vangin.h"

namespace merlin {
namespace {

// A single very long two-pin wire: the textbook case where buffer insertion
// must win (Elmore grows quadratically, buffers linearize it).
Net long_wire_net(const BufferLibrary& lib) {
  Net net;
  net.source = {0, 0};
  net.wire = WireModel{0.1, 0.2};
  net.driver.delay = lib[6].delay;
  net.sinks.push_back(Sink{{6000, 0}, 10.0, 10000.0});
  return net;
}

RoutingTree direct_tree(const Net& net) {
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  for (std::size_t i = 0; i < net.fanout(); ++i)
    t.add_node(NodeKind::kSink, net.sinks[i].pos, static_cast<std::int32_t>(i), root);
  return t;
}

TEST(VanGinneken, LongWireGetsBuffered) {
  const BufferLibrary lib = make_standard_library();
  const Net net = long_wire_net(lib);
  const RoutingTree bare = direct_tree(net);
  const double q_bare = evaluate_tree(net, bare, lib).driver_req_time;

  const VanGinnekenResult r = vangin_insert(net, bare, lib, {});
  const EvalResult ev = evaluate_tree(net, r.tree, lib);
  EXPECT_GT(ev.buffer_count, 0u);
  EXPECT_GT(ev.driver_req_time, q_bare);
}

TEST(VanGinneken, PredictionMatchesEvaluator) {
  const BufferLibrary lib = make_standard_library();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    NetSpec spec;
    spec.n_sinks = 7;
    spec.seed = seed;
    const Net net = make_random_net(spec, lib);
    PTreeConfig pcfg;
    pcfg.candidates.budget_factor = 2.0;
    pcfg.prune.max_solutions = 8;
    const PTreeResult pt = ptree_route(net, tsp_order(net), pcfg);
    const VanGinnekenResult r = vangin_insert(net, pt.tree, lib, {});
    const EvalResult ev = evaluate_tree(net, r.tree, lib);
    EXPECT_NEAR(ev.root_req_time, r.chosen.req_time, 1e-6) << seed;
    EXPECT_NEAR(ev.root_load, r.chosen.load, 1e-6) << seed;
    EXPECT_NEAR(ev.buffer_area, r.chosen.area, 1e-6) << seed;
  }
}

TEST(VanGinneken, NeverWorseThanUnbuffered) {
  // The unbuffered option is always in the candidate set, so the chosen
  // solution's driver required time can only improve on the bare tree.
  const BufferLibrary lib = make_standard_library();
  for (std::uint64_t seed = 10; seed <= 14; ++seed) {
    NetSpec spec;
    spec.n_sinks = 5;
    spec.seed = seed;
    const Net net = make_random_net(spec, lib);
    const RoutingTree bare = direct_tree(net);
    const double q_bare = evaluate_tree(net, bare, lib).driver_req_time;
    const VanGinnekenResult r = vangin_insert(net, bare, lib, {});
    EXPECT_GE(evaluate_tree(net, r.tree, lib).driver_req_time, q_bare - 1e-6)
        << seed;
  }
}

TEST(VanGinneken, PreservesSinkCoverage) {
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 9;
  spec.seed = 4;
  const Net net = make_random_net(spec, lib);
  const VanGinnekenResult r = vangin_insert(net, direct_tree(net), lib, {});
  EXPECT_TRUE(analyze_structure(net, r.tree).well_formed);
}

TEST(VanGinneken, RootCurveIsNonInferior) {
  const BufferLibrary lib = make_standard_library();
  const Net net = long_wire_net(lib);
  const VanGinnekenResult r = vangin_insert(net, direct_tree(net), lib, {});
  for (const Solution& a : r.root_curve)
    for (const Solution& b : r.root_curve)
      if (&a != &b) {
        EXPECT_FALSE(a.dominated_by(b));
      }
}

TEST(VanGinneken, FinerSegmentationHelps) {
  const BufferLibrary lib = make_standard_library();
  const Net net = long_wire_net(lib);
  VanGinnekenConfig coarse;
  coarse.max_segment_um = 6000.0;  // stations only at the ends
  VanGinnekenConfig fine;
  fine.max_segment_um = 200.0;
  const double q_coarse =
      evaluate_tree(net, vangin_insert(net, direct_tree(net), lib, coarse).tree, lib)
          .driver_req_time;
  const double q_fine =
      evaluate_tree(net, vangin_insert(net, direct_tree(net), lib, fine).tree, lib)
          .driver_req_time;
  EXPECT_GE(q_fine, q_coarse - 1e-6);
}

TEST(VanGinneken, RejectsBufferedInput) {
  const BufferLibrary lib = make_standard_library();
  const Net net = long_wire_net(lib);
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  const auto buf = t.add_node(NodeKind::kBuffer, {10, 0}, 0, root);
  t.add_node(NodeKind::kSink, net.sinks[0].pos, 0, buf);
  EXPECT_THROW(vangin_insert(net, t, lib, {}), std::invalid_argument);
  EXPECT_THROW(vangin_insert(net, RoutingTree{}, lib, {}), std::invalid_argument);
}

TEST(VanGinneken, AreaDelayTradeoffIsMonotone) {
  // Along the non-inferior root curve, more area must buy more required time
  // once sorted (that is what non-inferiority means in 2 of 3 dims when the
  // load dimension is fixed by the driver's perspective)... verify weakly:
  // the best-rt solution never has less area than the min-area solution.
  const BufferLibrary lib = make_standard_library();
  const Net net = long_wire_net(lib);
  const VanGinnekenResult r = vangin_insert(net, direct_tree(net), lib, {});
  const Solution* best = r.root_curve.best_req_time();
  const Solution* frugal = r.root_curve.min_area_meeting_req(-1e300);
  ASSERT_NE(best, nullptr);
  ASSERT_NE(frugal, nullptr);
  EXPECT_GE(best->area, frugal->area);
  EXPECT_GE(best->req_time, frugal->req_time);
}

}  // namespace
}  // namespace merlin
