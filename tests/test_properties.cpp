// Cross-module property sweeps: randomized nets driven through every engine
// with the invariants that must hold regardless of configuration.  These are
// deliberately broad-brush (many seeds, loose per-case cost) — the sharp
// per-module assertions live in the per-module test files.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "buflib/library.h"
#include "core/merlin.h"
#include "curve/curve.h"
#include "net/rng.h"
#include "flow/flows.h"
#include "lttree/lttree.h"
#include "net/generator.h"
#include "order/tsp.h"
#include "ptree/ptree.h"
#include "tree/evaluate.h"
#include "tree/validate.h"
#include "vangin/vangin.h"

namespace merlin {
namespace {

// (sink count, seed) sweep.
using Case = std::tuple<std::size_t, std::uint64_t>;

class EngineSweep : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const auto [n, seed] = GetParam();
    NetSpec spec;
    spec.n_sinks = n;
    spec.seed = 7700 + seed;
    lib_ = make_standard_library();
    net_ = make_random_net(spec, lib_);
  }
  BufferLibrary lib_;
  Net net_;
};

TEST_P(EngineSweep, PTreeInvariants) {
  PTreeConfig cfg;
  cfg.candidates.budget_factor = 1.5;
  cfg.candidates.max_candidates = 16;
  const PTreeResult r = ptree_route(net_, tsp_order(net_), cfg);
  const EvalResult ev = evaluate_tree(net_, r.tree, lib_);
  EXPECT_NEAR(ev.root_req_time, r.chosen.req_time, 1e-6);
  EXPECT_NEAR(ev.root_load, r.chosen.load, 1e-6);
  EXPECT_TRUE(analyze_structure(net_, r.tree).well_formed);
  EXPECT_EQ(r.tree.buffer_count(), 0u);
  // Required time at any sink bounds the root required time from above.
  EXPECT_LE(ev.root_req_time, net_.max_req_time());
}

TEST_P(EngineSweep, VanGinnekenInvariants) {
  RoutingTree star;
  star.add_node(NodeKind::kSource, net_.source, -1, 0);
  for (std::size_t i = 0; i < net_.fanout(); ++i)
    star.add_node(NodeKind::kSink, net_.sinks[i].pos,
                  static_cast<std::int32_t>(i), 0);
  const double q_star = evaluate_tree(net_, star, lib_).driver_req_time;

  const VanGinnekenResult r = vangin_insert(net_, star, lib_, {});
  const EvalResult ev = evaluate_tree(net_, r.tree, lib_);
  EXPECT_NEAR(ev.root_req_time, r.chosen.req_time, 1e-6);
  EXPECT_NEAR(ev.buffer_area, r.chosen.area, 1e-6);
  EXPECT_GE(ev.driver_req_time, q_star - 1e-6);
  EXPECT_TRUE(analyze_structure(net_, r.tree).well_formed);
}

TEST_P(EngineSweep, LTTreeInvariants) {
  LTTreeConfig cfg;
  cfg.wire_load_per_pin = 80.0;
  const LTTreeResult r =
      lttree_optimize(net_, required_time_order(net_), lib_, cfg);
  // Every sink exactly once across groups.
  std::vector<int> seen(net_.fanout(), 0);
  for (const FanoutGroup& g : r.tree.groups)
    for (std::uint32_t s : g.sinks) ++seen[s];
  for (int c : seen) EXPECT_EQ(c, 1);
  // The chain property: at most one child anywhere, driver at the top.
  EXPECT_EQ(r.tree.groups[0].buffer_idx, -1);
  EXPECT_GE(r.driver_req_time, -1e7);  // finite
}

TEST_P(EngineSweep, BubbleInvariants) {
  BubbleConfig cfg;
  cfg.alpha = 3;
  cfg.candidates.budget_factor = 1.2;
  cfg.candidates.max_candidates = 12;
  cfg.inner_prune.max_solutions = 3;
  cfg.group_prune.max_solutions = 4;
  cfg.buffer_stride = 5;
  cfg.extension_neighbors = 6;
  const Order in = tsp_order(net_);
  const BubbleResult r = bubble_construct(net_, lib_, in, cfg);
  const EvalResult ev = evaluate_tree(net_, r.tree, lib_);
  EXPECT_NEAR(ev.root_req_time, r.chosen.req_time, 1e-6);
  EXPECT_NEAR(ev.root_load, r.chosen.load, 1e-6);
  EXPECT_NEAR(ev.buffer_area, r.chosen.area, 1e-6);
  EXPECT_NEAR(ev.wirelength, r.chosen.wirelen, 1e-6);
  EXPECT_TRUE(in_neighborhood(in, r.out_order));
  EXPECT_TRUE(analyze_structure(net_, r.tree).well_formed);
  EXPECT_EQ(r.tree.sink_order(), r.out_order);
  // The non-inferior invariant on the published curve.
  for (const Solution& a : r.root_curve)
    for (const Solution& b : r.root_curve)
      if (&a != &b) {
        EXPECT_FALSE(a.dominated_by(b));
      }
}

TEST_P(EngineSweep, SlewAwareStaysFinite) {
  BubbleConfig cfg;
  cfg.alpha = 3;
  cfg.candidates.budget_factor = 1.2;
  cfg.candidates.max_candidates = 12;
  cfg.inner_prune.max_solutions = 3;
  cfg.group_prune.max_solutions = 4;
  cfg.buffer_stride = 5;
  const BubbleResult r = bubble_construct(net_, lib_, tsp_order(net_), cfg);
  const SlewAwareResult s = evaluate_tree_slew_aware(net_, r.tree, lib_);
  EXPECT_GT(s.worst_arrival, 0.0);
  EXPECT_LT(s.worst_arrival, 1e6);
  EXPECT_GT(s.max_sink_slew, 0.0);
  EXPECT_LT(s.max_sink_slew, 1e5);
}

INSTANTIATE_TEST_SUITE_P(
    Nets, EngineSweep,
    ::testing::Combine(::testing::Values<std::size_t>(3, 5, 8, 11),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

// ---------------------------------------------------------------------------
// Pruning-kernel invariants (curve/kernel.h), config- and input-shape-swept.
// The sharp kernel-vs-oracle assertions live in test_prune_differential.cpp;
// these are the algebraic laws any correct prune must satisfy.
// ---------------------------------------------------------------------------

Solution psol(double rt, double load, double area, double wl) {
  Solution s;
  s.req_time = rt;
  s.load = load;
  s.area = area;
  s.wirelen = wl;
  return s;
}

// Mixed adversarial input: smooth tuples, exact duplicates, and
// eps-boundary neighbors in one curve.
std::vector<Solution> adversarial_batch(Rng& rng, std::size_t n) {
  std::vector<Solution> v;
  while (v.size() < n) {
    const Solution base = psol(rng.uniform(0, 100), rng.uniform(1, 50),
                               rng.uniform(0, 20), rng.uniform(0, 8));
    v.push_back(base);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        v.push_back(base);  // exact duplicate
        break;
      case 1: {
        Solution near = base;
        near.load += kCurveEps;
        v.push_back(near);
        break;
      }
      case 2: {
        Solution near = base;
        near.req_time -= kCurveEps / 2;
        v.push_back(near);
        break;
      }
      default:
        break;
    }
  }
  v.resize(n);
  return v;
}

// Integer-valued input: every pairwise gap is 0 or >= 1, far beyond eps.
std::vector<Solution> coarse_batch(Rng& rng, std::size_t n) {
  std::vector<Solution> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(psol(static_cast<double>(rng.uniform_int(0, 12)),
                     static_cast<double>(rng.uniform_int(1, 12)),
                     static_cast<double>(rng.uniform_int(0, 12)),
                     static_cast<double>(rng.uniform_int(0, 3))));
  return v;
}

std::vector<PruneConfig> swept_configs() {
  std::vector<PruneConfig> cfgs;
  cfgs.push_back({});                              // exact, uncapped
  cfgs.push_back({0.0, 0.0, 6});                   // exact + cap
  cfgs.push_back({0.5, 0.25, 0});                  // quantized
  cfgs.push_back({0.5, 0.25, 4, 2.0});             // quant + cap + ref_res
  return cfgs;
}

SolutionCurve curve_of(const std::vector<Solution>& v) {
  SolutionCurve c;
  for (const Solution& s : v) c.push(s);
  return c;
}

bool curves_bitwise_equal(const SolutionCurve& a, const SolutionCurve& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].req_time != b[i].req_time || a[i].load != b[i].load ||
        a[i].area != b[i].area || a[i].wirelen != b[i].wirelen)
      return false;
  return true;
}

class PruneLaw : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneLaw, Idempotent) {
  Rng rng(0x9A01 + GetParam());
  for (const PruneConfig& cfg : swept_configs()) {
    for (int shape = 0; shape < 2; ++shape) {
      SolutionCurve c = curve_of(shape == 0 ? adversarial_batch(rng, 80)
                                            : coarse_batch(rng, 80));
      c.prune(cfg);
      SolutionCurve once = c;
      c.prune(cfg);
      EXPECT_TRUE(curves_bitwise_equal(once, c))
          << "second prune changed the curve (shape " << shape << ")";
    }
  }
}

TEST_P(PruneLaw, SurvivorSetPermutationInvariant) {
  Rng rng(0x9A02 + GetParam());
  std::vector<Solution> input = adversarial_batch(rng, 90);
  SolutionCurve ref = curve_of(input);
  ref.prune();
  for (int round = 0; round < 4; ++round) {
    // Fisher-Yates with the portable Rng: deterministic shuffles.
    for (std::size_t i = input.size() - 1; i > 0; --i)
      std::swap(input[i],
                input[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
    SolutionCurve got = curve_of(input);
    got.prune();
    // The survivors arrive in canonical order and no two share all four
    // metrics, so equality as *sequences* is set equality.
    EXPECT_TRUE(curves_bitwise_equal(ref, got)) << "round " << round;
  }
}

TEST_P(PruneLaw, NoSurvivorDominatesAnother) {
  Rng rng(0x9A03 + GetParam());
  // Strict (eps = 0) mutual non-dominance holds on any input, including
  // eps-spaced adversarial ones...
  SolutionCurve adv = curve_of(adversarial_batch(rng, 120));
  adv.prune();
  for (const Solution& a : adv)
    for (const Solution& b : adv)
      if (&a != &b) {
        EXPECT_FALSE(dominates(a, b, 0.0));
      }
  // ...while the shared eps form additionally holds whenever distinct
  // metric values are separated by much more than eps (eps-dominance is
  // not transitive, so this is NOT guaranteed for eps-spaced inputs).
  SolutionCurve coarse = curve_of(coarse_batch(rng, 120));
  coarse.prune();
  for (const Solution& a : coarse)
    for (const Solution& b : coarse)
      if (&a != &b) {
        EXPECT_FALSE(dominates(a, b));
      }
}

// A dense frontier (required time and load rise, area falls) spaced finer
// than the swept quanta, so many exact survivors share a bin.
std::vector<Solution> dense_frontier(Rng& rng, std::size_t n) {
  std::vector<Solution> v;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    v.push_back(psol(10.0 * x + rng.uniform(0, 5), 1.0 + 0.1 * x,
                     20.0 - 0.05 * x + rng.uniform(0, 0.01),
                     rng.uniform(0, 8)));
  }
  return v;
}

// Reference quantization, written independently of curve.cpp: of `v`, keep
// per (load bin, area bin) the best required time, ties toward less wire,
// then toward the earlier point; winners stay in input order.
std::vector<Solution> bins_of(const SolutionCurve& v, const PruneConfig& cfg) {
  const auto bin = [](double x, double q) {
    return q > 0.0 ? std::floor(x / q) : x;
  };
  std::vector<Solution> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    bool beaten = false;
    for (std::size_t j = 0; j < v.size() && !beaten; ++j) {
      if (j == i ||
          bin(v[j].load, cfg.load_quantum) != bin(v[i].load, cfg.load_quantum) ||
          bin(v[j].area, cfg.area_quantum) != bin(v[i].area, cfg.area_quantum))
        continue;
      beaten = v[j].req_time > v[i].req_time ||
               (v[j].req_time == v[i].req_time &&
                (v[j].wirelen < v[i].wirelen ||
                 (v[j].wirelen == v[i].wirelen && j < i)));
    }
    if (!beaten) out.push_back(v[i]);
  }
  return out;
}

// Quantization is a filter over the exact prune: a quantized prune equals
// the bins of the exact survivors, then the same config's cap.
TEST_P(PruneLaw, QuantizedPruneBinsTheExactPrune) {
  Rng rng(0x9A04 + GetParam());
  for (const PruneConfig& cfg : swept_configs()) {
    if (cfg.load_quantum <= 0.0 && cfg.area_quantum <= 0.0) continue;
    PruneConfig cap_only = cfg;
    cap_only.load_quantum = 0.0;
    cap_only.area_quantum = 0.0;
    for (int shape = 0; shape < 3; ++shape) {
      const std::vector<Solution> input =
          shape == 0   ? adversarial_batch(rng, 80)
          : shape == 1 ? coarse_batch(rng, 80)
                       : dense_frontier(rng, 80);
      SolutionCurve exact = curve_of(input);
      exact.prune();
      SolutionCurve want = curve_of(bins_of(exact, cfg));
      if (shape == 2) {
        EXPECT_LT(want.size(), exact.size() / 2);
      }
      want.prune(cap_only);
      SolutionCurve got = curve_of(input);
      got.prune(cfg);
      EXPECT_TRUE(curves_bitwise_equal(want, got)) << "shape " << shape;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneLaw,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace merlin
