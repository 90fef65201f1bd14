// Unit + property tests: three-dimensional solution curves, dominance
// (Definition 6), pruning (Lemma 9: no non-inferior solution is lost),
// quantization, capping, and the curve algebra.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "buflib/library.h"
#include "curve/curve.h"
#include "net/rng.h"

namespace merlin {
namespace {

Solution sol(double rt, double load, double area, double wl = 0.0) {
  Solution s;
  s.req_time = rt;
  s.load = load;
  s.area = area;
  s.wirelen = wl;
  return s;
}

TEST(Dominance, Definition6) {
  const Solution a = sol(100, 10, 5);
  EXPECT_TRUE(sol(90, 12, 6).dominated_by(a));   // worse everywhere
  EXPECT_TRUE(sol(100, 10, 5).dominated_by(a));  // equal counts as inferior
  EXPECT_FALSE(sol(110, 12, 6).dominated_by(a)); // better required time
  EXPECT_FALSE(sol(90, 8, 6).dominated_by(a));   // better load
  EXPECT_FALSE(sol(90, 12, 4).dominated_by(a));  // better area
  EXPECT_FALSE(a.dominated_by(sol(90, 12, 6)));  // asymmetry
}

TEST(Prune, RemovesDominatedKeepsFrontier) {
  SolutionCurve c;
  c.push(sol(100, 10, 5));
  c.push(sol(90, 12, 6));    // dominated by the first
  c.push(sol(120, 20, 9));   // non-inferior (better rt, worse load/area)
  c.push(sol(100, 10, 5));   // duplicate
  c.prune();
  EXPECT_EQ(c.size(), 2u);
  for (const Solution& s : c)
    for (const Solution& t : c)
      if (&s != &t) {
        EXPECT_FALSE(s.dominated_by(t));
      }
}

TEST(Prune, EmptyAndSingleton) {
  SolutionCurve c;
  c.prune();
  EXPECT_TRUE(c.empty());
  c.push(sol(1, 1, 1));
  c.prune();
  EXPECT_EQ(c.size(), 1u);
}

// Lemma 9 property: pruning equals brute-force dominance filtering.
class PruneOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneOracleTest, MatchesBruteForce) {
  Rng rng(GetParam());
  std::vector<Solution> all;
  for (int i = 0; i < 60; ++i)
    all.push_back(sol(rng.uniform(0, 100), rng.uniform(1, 50), rng.uniform(0, 20)));

  // Brute force: keep s iff no other STRICTLY dominating solution exists and
  // s is the first among exact duplicates.
  std::vector<Solution> expect;
  for (std::size_t i = 0; i < all.size(); ++i) {
    bool drop = false;
    for (std::size_t j = 0; j < all.size() && !drop; ++j) {
      if (i == j) continue;
      if (all[i].dominated_by(all[j])) {
        // Among mutually-equal tuples exactly one survives; otherwise strict
        // dominance drops it.
        if (!all[j].dominated_by(all[i]) || j < i) drop = true;
      }
    }
    if (!drop) expect.push_back(all[i]);
  }

  SolutionCurve c;
  for (const Solution& s : all) c.push(s);
  c.prune();
  ASSERT_EQ(c.size(), expect.size());
  auto key = [](const Solution& s) { return std::tuple(s.load, s.area, -s.req_time); };
  std::vector<Solution> got(c.begin(), c.end());
  std::sort(got.begin(), got.end(),
            [&](const Solution& a, const Solution& b) { return key(a) < key(b); });
  std::sort(expect.begin(), expect.end(),
            [&](const Solution& a, const Solution& b) { return key(a) < key(b); });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].req_time, expect[i].req_time);
    EXPECT_DOUBLE_EQ(got[i].load, expect[i].load);
    EXPECT_DOUBLE_EQ(got[i].area, expect[i].area);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Prune, QuantizationBoundsBins) {
  SolutionCurve c;
  for (int i = 0; i < 100; ++i)
    c.push(sol(1000.0 - i, 10.0 + 0.001 * i, 5.0 + 0.0001 * i));
  PruneConfig cfg;
  cfg.load_quantum = 1.0;
  cfg.area_quantum = 1.0;
  c.prune(cfg);
  // All loads fall into one bin and all areas into one bin -> one survivor.
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0].req_time, 1000.0);  // best required time per bin
}

// Bins act on the exact survivors only.  e dominates p, and d wins e's
// (load 0, area 0) bin; binning *before* the sweep would let d evict e and
// leave p with no dominator, keeping {p, d}.
TEST(Prune, QuantizationBinsTheExactSurvivors) {
  const Solution e = sol(10, 0.1, 0.1);
  const Solution d = sol(11, 0.9, 0.9);
  const Solution p = sol(9, 0.5, 1.5);
  SolutionCurve c;
  c.push(e);
  c.push(d);
  c.push(p);
  PruneConfig cfg;
  cfg.load_quantum = 1.0;
  cfg.area_quantum = 1.0;
  c.prune(cfg);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].req_time, d.req_time);
  EXPECT_EQ(c[0].load, d.load);
  EXPECT_EQ(c[0].area, d.area);
}

TEST(Prune, CapKeepsExtremePoints) {
  SolutionCurve c;
  // A genuine 40-point frontier: rt rises with load, area falls with load.
  for (int i = 0; i < 40; ++i)
    c.push(sol(100.0 + i, 10.0 + i, 200.0 - i));
  PruneConfig cfg;
  cfg.max_solutions = 5;
  c.prune(cfg);
  EXPECT_LE(c.size(), 5u);
  double best_rt = -1e30, min_load = 1e30, min_area = 1e30;
  for (const Solution& s : c) {
    best_rt = std::max(best_rt, s.req_time);
    min_load = std::min(min_load, s.load);
    min_area = std::min(min_area, s.area);
  }
  EXPECT_DOUBLE_EQ(best_rt, 139.0);   // max rt point kept
  EXPECT_DOUBLE_EQ(min_load, 10.0);   // min load point kept
  EXPECT_DOUBLE_EQ(min_area, 161.0);  // min area == max rt point here
}

TEST(Selectors, BestReqTimeUnderArea) {
  SolutionCurve c;
  c.push(sol(100, 10, 5));
  c.push(sol(150, 12, 9));
  c.push(sol(200, 15, 20));
  EXPECT_DOUBLE_EQ(c.best_req_time()->req_time, 200);
  EXPECT_DOUBLE_EQ(c.best_req_time_under_area(10)->req_time, 150);
  EXPECT_DOUBLE_EQ(c.best_req_time_under_area(5)->req_time, 100);
  EXPECT_EQ(c.best_req_time_under_area(1), nullptr);
}

TEST(Selectors, MinAreaMeetingReq) {
  SolutionCurve c;
  c.push(sol(100, 10, 5));
  c.push(sol(150, 12, 9));
  c.push(sol(200, 15, 20));
  EXPECT_DOUBLE_EQ(c.min_area_meeting_req(120)->area, 9);
  EXPECT_DOUBLE_EQ(c.min_area_meeting_req(0)->area, 5);
  EXPECT_EQ(c.min_area_meeting_req(500), nullptr);
}

TEST(Selectors, EmptyCurve) {
  SolutionCurve c;
  EXPECT_EQ(c.best_req_time(), nullptr);
  EXPECT_EQ(c.best_req_time_under_area(100), nullptr);
  EXPECT_EQ(c.min_area_meeting_req(0), nullptr);
}

TEST(Algebra, MergeCurvesSumsLoadAreaMinsReqTime) {
  SolutionArena arena;
  SolutionCurve a, b;
  Solution s1 = sol(100, 10, 5, 7);
  s1.node = arena.make_sink({0, 0}, 0);
  Solution s2 = sol(80, 20, 3, 11);
  s2.node = arena.make_sink({0, 0}, 1);
  a.push(s1);
  b.push(s2);
  SolutionCurve m = merge_curves(arena, a, b, {0, 0}, {});
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0].req_time, 80);
  EXPECT_DOUBLE_EQ(m[0].load, 30);
  EXPECT_DOUBLE_EQ(m[0].area, 8);
  EXPECT_DOUBLE_EQ(m[0].wirelen, 18);
  ASSERT_NE(m[0].node, kNullSol);
  EXPECT_EQ(arena[m[0].node].kind, StepKind::kMerge);
}

TEST(Algebra, ExtendCurveAppliesElmore) {
  const WireModel w{0.1, 0.2};
  SolutionArena arena;
  SolutionCurve a;
  Solution s = sol(1000, 50, 0);
  s.node = arena.make_sink({0, 0}, 0);
  a.push(s);
  SolutionCurve e = extend_curve(arena, a, {0, 0}, {100, 0}, w, {});
  ASSERT_EQ(e.size(), 1u);
  // len 100: R = 10 ohm, Cw = 20 fF; delay = 10*(10+50) fF*ohm = 0.6 ps
  EXPECT_NEAR(e[0].req_time, 1000 - 0.6, 1e-9);
  EXPECT_NEAR(e[0].load, 70, 1e-9);
  EXPECT_EQ(arena[e[0].node].kind, StepKind::kWire);
}

TEST(Algebra, ZeroLengthExtensionReusesNode) {
  SolutionArena arena;
  SolutionCurve a;
  Solution s = sol(10, 1, 0);
  s.node = arena.make_sink({5, 5}, 0);
  a.push(s);
  SolutionCurve e = extend_curve(arena, a, {5, 5}, {5, 5}, WireModel{}, {});
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].node, a[0].node);  // same handle: no new node allocated
  EXPECT_EQ(arena.size(), 1u);
}

TEST(Algebra, BufferedOptionsDecoupleLoad) {
  const BufferLibrary lib = make_tiny_library(3);
  SolutionArena arena;
  SolutionCurve src, dst;
  Solution s = sol(1000, 500, 0);  // huge downstream load
  s.node = arena.make_sink({0, 0}, 0);
  src.push(s);
  push_buffered_options(arena, src, {0, 0}, lib, dst);
  EXPECT_GE(dst.size(), 1u);
  for (const Solution& b : dst) {
    EXPECT_LT(b.load, 500);        // input cap replaces the load
    EXPECT_GT(b.area, 0);          // buffer area accounted
    EXPECT_LT(b.req_time, 1000);   // buffer delay subtracted
    EXPECT_EQ(arena[b.node].kind, StepKind::kBuffer);
  }
}

TEST(Algebra, BufferStrideAlwaysTriesStrongest) {
  const BufferLibrary lib = make_standard_library();
  SolutionArena arena;
  SolutionCurve src, dst;
  Solution s = sol(1000, 3000, 0);  // enormous load: strongest buffer wins rt
  s.node = arena.make_sink({0, 0}, 0);
  src.push(s);
  push_buffered_options(arena, src, {0, 0}, lib, dst, /*stride=*/7);
  double best_rt = -1e30;
  std::int32_t best_idx = -1;
  for (const Solution& b : dst)
    if (b.req_time > best_rt) {
      best_rt = b.req_time;
      best_idx = arena[b.node].idx;
    }
  EXPECT_EQ(best_idx, static_cast<std::int32_t>(lib.size()) - 1);
}

TEST(Algebra, PushMergedOptionsAcrossJobs) {
  SolutionArena arena;
  SolutionCurve a, b, c;
  Solution s1 = sol(100, 10, 0);
  s1.node = arena.make_sink({0, 0}, 0);
  Solution s2 = sol(90, 5, 0);
  s2.node = arena.make_sink({0, 0}, 1);
  Solution s3 = sol(95, 50, 0);  // heavy alternative for the right side
  s3.node = arena.make_sink({0, 0}, 2);
  a.push(s1);
  b.push(s2);
  c.push(s3);
  std::vector<MergeJob> jobs{{&a, &b}, {&a, &c}};
  SolutionCurve dst;
  push_merged_options(arena, jobs, {0, 0}, {}, dst);
  // (a+b): rt 90 load 15; (a+c): rt 95 load 60 -> both non-inferior.
  EXPECT_EQ(dst.size(), 2u);
}

TEST(Algebra, PushExtendedOptionsPicksDominant) {
  const WireModel w{0.1, 0.2};
  SolutionArena arena;
  SolutionCurve near_c, far_c;
  Solution sn = sol(100, 10, 0);
  sn.node = arena.make_sink({10, 0}, 0);
  Solution sf = sol(100, 10, 0);
  sf.node = arena.make_sink({5000, 0}, 1);
  near_c.push(sn);
  far_c.push(sf);
  const std::vector<const SolutionCurve*> srcs{&near_c, &far_c};
  const std::vector<Point> pts{{10, 0}, {5000, 0}};
  SolutionCurve dst;
  push_extended_options(arena, srcs, pts, {0, 0}, w, {}, dst);
  // The near source strictly dominates after extension.
  ASSERT_EQ(dst.size(), 1u);
  EXPECT_NEAR(dst[0].wirelen, 10, 1e-9);
}

// ---------------------------------------------------------------------------
// Algebra edge cases: empty curves, single solutions, and candidate batches
// where everything collapses onto one survivor.  These walk the bucketed
// kernel's degenerate paths (zero buckets, one-candidate buckets, buckets
// fully killed by the prefilter).
// ---------------------------------------------------------------------------

TEST(AlgebraEdge, MergeWithEmptyCurveIsEmpty) {
  SolutionArena arena;
  SolutionCurve full, empty;
  Solution s = sol(100, 10, 5);
  s.node = arena.make_sink({0, 0}, 0);
  full.push(s);
  EXPECT_TRUE(merge_curves(arena, empty, full, {0, 0}, {}).empty());
  EXPECT_TRUE(merge_curves(arena, full, empty, {0, 0}, {}).empty());
  EXPECT_TRUE(merge_curves(arena, empty, empty, {0, 0}, {}).empty());
  EXPECT_EQ(arena.size(), 1u);  // no provenance allocated for empty merges
}

TEST(AlgebraEdge, ExtendEmptyCurveIsEmpty) {
  SolutionArena arena;
  SolutionCurve empty;
  const SolutionCurve out =
      extend_curve(arena, empty, {0, 0}, {50, 0}, WireModel{0.1, 0.2}, {});
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(arena.size(), 0u);
}

TEST(AlgebraEdge, BufferedOptionsFromEmptySourceOrLibrary) {
  SolutionArena arena;
  SolutionCurve empty_src, dst;
  push_buffered_options(arena, empty_src, {0, 0}, make_tiny_library(3), dst);
  EXPECT_TRUE(dst.empty());

  SolutionCurve src;
  Solution s = sol(100, 10, 5);
  s.node = arena.make_sink({0, 0}, 0);
  src.push(s);
  push_buffered_options(arena, src, {0, 0}, BufferLibrary{}, dst);
  EXPECT_TRUE(dst.empty());
  EXPECT_EQ(arena.size(), 1u);
}

TEST(AlgebraEdge, SingleSolutionThroughWholeAlgebra) {
  const WireModel w{0.1, 0.2};
  const BufferLibrary lib = make_tiny_library(2);
  SolutionArena arena;
  SolutionCurve a, b;
  Solution s1 = sol(100, 10, 5);
  s1.node = arena.make_sink({0, 0}, 0);
  Solution s2 = sol(120, 8, 3);
  s2.node = arena.make_sink({0, 0}, 1);
  a.push(s1);
  b.push(s2);
  const SolutionCurve m = merge_curves(arena, a, b, {0, 0}, {});
  ASSERT_EQ(m.size(), 1u);
  const SolutionCurve e = extend_curve(arena, m, {0, 0}, {20, 0}, w, {});
  ASSERT_EQ(e.size(), 1u);
  SolutionCurve buffered;
  push_buffered_options(arena, e, {20, 0}, lib, buffered);
  EXPECT_GE(buffered.size(), 1u);
  EXPECT_LE(buffered.size(), lib.size());
}

TEST(AlgebraEdge, AllDominatedMergeBatchKeepsOneSurvivor) {
  SolutionArena arena;
  SolutionCurve best_l, best_r, worse_l, worse_r;
  Solution s = sol(100, 10, 5);
  s.node = arena.make_sink({0, 0}, 0);
  best_l.push(s);
  s = sol(100, 10, 5);
  s.node = arena.make_sink({0, 0}, 1);
  best_r.push(s);
  // Every (worse_l, worse_r) pair is strictly worse than (best_l, best_r).
  for (int i = 0; i < 5; ++i) {
    Solution wl = sol(90 - i, 12 + i, 6 + i);
    wl.node = arena.make_sink({0, 0}, 2);
    worse_l.push(wl);
    Solution wr = sol(80 - i, 14 + i, 7 + i);
    wr.node = arena.make_sink({0, 0}, 3);
    worse_r.push(wr);
  }
  const std::size_t before = arena.size();
  const std::vector<MergeJob> jobs{{&best_l, &best_r}, {&worse_l, &worse_r}};
  SolutionCurve dst;
  push_merged_options(arena, jobs, {0, 0}, {}, dst);
  ASSERT_EQ(dst.size(), 1u);
  EXPECT_DOUBLE_EQ(dst[0].load, 20);
  // Provenance allocated for the single survivor only.
  EXPECT_EQ(arena.size(), before + 1);
}

TEST(AlgebraEdge, AllDominatedExtensionBatchKeepsOneSurvivor) {
  const WireModel w{0.1, 0.2};
  SolutionArena arena;
  // Same load and req_time, growing area: after any common extension the
  // first solution dominates every other candidate.
  SolutionCurve src;
  for (int i = 0; i < 6; ++i) {
    Solution s = sol(100, 10, 5 + i);
    s.node = arena.make_sink({0, 0}, i);
    src.push(s);
  }
  const std::size_t before = arena.size();
  const SolutionCurve out =
      extend_curve(arena, src, {0, 0}, {40, 0}, w, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].area, 5);
  EXPECT_EQ(arena.size(), before + 1);
}

}  // namespace
}  // namespace merlin
