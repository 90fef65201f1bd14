// Unit + property tests for the LT-Tree type-I fanout optimization [To90].

#include <gtest/gtest.h>

#include "buflib/library.h"
#include "lttree/lttree.h"
#include "net/generator.h"
#include "order/tsp.h"

namespace merlin {
namespace {

// A net designed so that buffering clearly pays off: weak driver, many
// heavy non-critical sinks, one critical sink.
Net shielding_net(const BufferLibrary& lib, std::size_t heavy = 8) {
  Net net;
  net.source = {0, 0};
  net.driver.delay = lib[4].delay;  // weak driver
  net.sinks.push_back(Sink{{0, 0}, 10.0, 500.0});  // critical
  for (std::size_t i = 0; i < heavy; ++i)
    net.sinks.push_back(Sink{{0, 0}, 25.0, 2000.0});
  return net;
}

// Independent re-evaluation of a fanout tree (geometry-free): walks the
// groups bottom-up and recomputes the driver required time.
double reevaluate(const Net& net, const FanoutTree& ft, const BufferLibrary& lib,
                  double wire_load_per_pin = 0.0) {
  struct View {
    double load, req;
  };
  std::vector<View> view(ft.groups.size());
  for (std::size_t gi = ft.groups.size(); gi-- > 0;) {
    const FanoutGroup& g = ft.groups[gi];
    double load = 0.0, req = 1e300;
    for (std::uint32_t s : g.sinks) {
      load += net.sinks[s].load + wire_load_per_pin;
      req = std::min(req, net.sinks[s].req_time);
    }
    if (g.child >= 0) {
      load += view[static_cast<std::size_t>(g.child)].load + wire_load_per_pin;
      req = std::min(req, view[static_cast<std::size_t>(g.child)].req);
    }
    if (g.buffer_idx >= 0) {
      const Buffer& b = lib[static_cast<std::size_t>(g.buffer_idx)];
      view[gi] = View{b.input_cap, req - b.delay_ps(load)};
    } else {
      view[gi] = View{load, req - net.driver.delay.at_nominal(load)};
    }
  }
  return view[0].req;
}

TEST(LTTree, ShieldingBeatsDirectDrive) {
  const BufferLibrary lib = make_standard_library();
  const Net net = shielding_net(lib);
  const LTTreeResult r =
      lttree_optimize(net, required_time_order(net), lib, {});
  const double direct_q =
      500.0 - net.driver.delay.at_nominal(net.total_sink_load());
  EXPECT_GT(r.driver_req_time, direct_q);
  EXPECT_GT(r.buffer_area, 0.0);
}

TEST(LTTree, PredictionMatchesReevaluation) {
  const BufferLibrary lib = make_standard_library();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    NetSpec spec;
    spec.n_sinks = 9;
    spec.seed = seed;
    const Net net = make_random_net(spec, lib);
    LTTreeConfig cfg;
    cfg.wire_load_per_pin = 40.0;
    const LTTreeResult r = lttree_optimize(net, required_time_order(net), lib, cfg);
    EXPECT_NEAR(reevaluate(net, r.tree, lib, 40.0), r.driver_req_time, 1e-6)
        << seed;
  }
}

TEST(LTTree, StructureIsTypeI) {
  // Every group has at most one internal child (enforced by construction;
  // collect_group would throw otherwise) and every sink appears exactly once.
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 12;
  spec.seed = 3;
  const Net net = make_random_net(spec, lib);
  LTTreeConfig cfg;
  cfg.wire_load_per_pin = 60.0;
  const LTTreeResult r = lttree_optimize(net, required_time_order(net), lib, cfg);
  std::vector<int> seen(net.fanout(), 0);
  for (const FanoutGroup& g : r.tree.groups)
    for (std::uint32_t s : g.sinks) ++seen[s];
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << i;
  EXPECT_EQ(r.tree.groups[0].buffer_idx, -1);  // driver tops the tree
}

TEST(LTTree, CriticalSinksStayNearTheDriver) {
  // With the descending-required-time input order, each chain level holds a
  // contiguous segment of the order, with the most critical sinks adjacent
  // to the driver.  Walking the chain away from the driver, the per-level
  // minimum required time must be non-decreasing.
  const BufferLibrary lib = make_standard_library();
  const Net net = shielding_net(lib);
  const LTTreeResult r = lttree_optimize(net, required_time_order(net), lib, {});
  const FanoutTree& ft = r.tree;
  double prev_min = -1e300;
  for (std::size_t gi = 0; gi != static_cast<std::size_t>(-1);) {
    double level_min = 1e300;
    for (std::uint32_t s : ft.groups[gi].sinks)
      level_min = std::min(level_min, net.sinks[s].req_time);
    if (level_min < 1e300) {
      EXPECT_GE(level_min, prev_min - 1e-9);
      prev_min = level_min;
    }
    gi = ft.groups[gi].child >= 0 ? static_cast<std::size_t>(ft.groups[gi].child)
                                  : static_cast<std::size_t>(-1);
  }
}

TEST(LTTree, WireLoadModelForcesBuffering) {
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 10;
  spec.seed = 8;
  const Net net = make_random_net(spec, lib);
  LTTreeConfig no_wl;
  LTTreeConfig heavy_wl;
  heavy_wl.wire_load_per_pin = 150.0;
  const LTTreeResult a = lttree_optimize(net, required_time_order(net), lib, no_wl);
  const LTTreeResult b = lttree_optimize(net, required_time_order(net), lib, heavy_wl);
  // With heavy estimated wire loads the optimizer must spend buffers.
  EXPECT_GT(b.tree.buffer_count(), 0u);
  EXPECT_GE(b.buffer_area, a.buffer_area);
}

TEST(LTTree, MaxFanoutBoundRespected) {
  const BufferLibrary lib = make_standard_library();
  const Net net = shielding_net(lib, 11);
  LTTreeConfig cfg;
  cfg.max_fanout = 4;
  cfg.wire_load_per_pin = 50.0;
  const LTTreeResult r = lttree_optimize(net, required_time_order(net), lib, cfg);
  for (const FanoutGroup& g : r.tree.groups) {
    const std::size_t fanout = g.sinks.size() + (g.child >= 0 ? 1 : 0);
    EXPECT_LE(fanout, 4u);
  }
}

TEST(LTTree, CurveIsNonInferior) {
  const BufferLibrary lib = make_standard_library();
  const Net net = shielding_net(lib);
  const LTTreeResult r = lttree_optimize(net, required_time_order(net), lib, {});
  for (const Solution& a : r.root_curve)
    for (const Solution& b : r.root_curve)
      if (&a != &b) {
        EXPECT_FALSE(a.dominated_by(b));
      }
}

TEST(LTTree, RejectsBadInput) {
  const BufferLibrary lib = make_standard_library();
  Net net;
  EXPECT_THROW(lttree_optimize(net, Order::identity(0), lib, {}),
               std::invalid_argument);
  net.sinks.push_back(Sink{{0, 0}, 1.0, 1.0});
  EXPECT_THROW(lttree_optimize(net, Order::identity(1), BufferLibrary{}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace merlin
