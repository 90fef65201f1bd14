// Differential suite for the bucketed/SoA pruning kernel (curve/kernel.h):
// every prune the kernel performs is replayed against a naive O(n^2)
// reference oracle that implements the canonical semantics directly —
// sort into the canonical candidate order, keep a candidate iff no
// already-kept predecessor eps-dominates it (the shared `dominates` of
// solution.h).  Surviving sets must be IDENTICAL, bitwise and in order,
// on adversarial inputs: exact duplicates, metric ties that exercise the
// sequence tie-break, and pairs separated by exactly the dominance epsilon
// (and half / double it).  The CI matrix runs this file under both
// MERLIN_SIMD=ON and OFF; `FrontierSoA::dominated_scalar` is additionally
// checked against the dispatched path in-process.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "buflib/library.h"
#include "curve/curve.h"
#include "curve/kernel.h"
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

// The reference oracle: canonical order (original position as the sequence
// tie-break), then the quadratic scan-vs-kept.  Deliberately the simplest
// possible implementation of the semantics the kernel must reproduce.
std::vector<Solution> oracle_prune(const std::vector<Solution>& in) {
  std::vector<std::size_t> order(in.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Solution& x = in[a];
    const Solution& y = in[b];
    if (x.load != y.load) return x.load < y.load;
    if (x.area != y.area) return x.area < y.area;
    if (x.req_time != y.req_time) return x.req_time > y.req_time;
    if (x.wirelen != y.wirelen) return x.wirelen < y.wirelen;
    return a < b;
  });
  std::vector<Solution> kept;
  for (const std::size_t i : order) {
    bool drop = false;
    for (const Solution& k : kept)
      if (dominates(k, in[i])) {
        drop = true;
        break;
      }
    if (!drop) kept.push_back(in[i]);
  }
  return kept;
}

// Bitwise, order-sensitive equality between the kernel's surviving curve
// and the oracle's: the kernel never recomputes metrics, so even the
// sign of zero must agree.
void expect_identical(const SolutionCurve& got, const std::vector<Solution>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Solution& g = got[i];
    const Solution& w = want[i];
    EXPECT_EQ(g.req_time, w.req_time) << what << " [" << i << "]";
    EXPECT_EQ(g.load, w.load) << what << " [" << i << "]";
    EXPECT_EQ(g.area, w.area) << what << " [" << i << "]";
    EXPECT_EQ(g.wirelen, w.wirelen) << what << " [" << i << "]";
  }
}

void run_differential(const std::vector<Solution>& input, const char* what) {
  SolutionCurve c;
  for (const Solution& s : input) c.push(s);
  c.prune();
  expect_identical(c, oracle_prune(input), what);
}

// -- input generators -------------------------------------------------------

// Smooth random tuples: no ties, the bulk statistical case.
std::vector<Solution> smooth_curve(Rng& rng, std::size_t n) {
  std::vector<Solution> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(sol(rng.uniform(0, 1000), rng.uniform(1, 100),
                    rng.uniform(0, 50), rng.uniform(0, 500)));
  return v;
}

// Coarse grid: every metric drawn from a handful of integers, so the input
// is dense with exact duplicates and partial ties — the sequence tie-break
// and the "equal counts as inferior" rule carry all the weight here.
std::vector<Solution> grid_curve(Rng& rng, std::size_t n) {
  std::vector<Solution> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(sol(static_cast<double>(rng.uniform_int(0, 4)),
                    static_cast<double>(rng.uniform_int(0, 4)),
                    static_cast<double>(rng.uniform_int(0, 4)),
                    static_cast<double>(rng.uniform_int(0, 2))));
  return v;
}

// Pairs separated by exactly eps, eps/2, and 2*eps in one dimension:
// the boundary where eps-dominance flips.  Eps-dominance is not transitive
// on such chains, which is precisely what distinguishes the canonical
// scan semantics from "remove everything dominated by anything".
std::vector<Solution> eps_boundary_curve(Rng& rng, std::size_t n) {
  std::vector<Solution> v;
  static constexpr double kDeltas[] = {kCurveEps, kCurveEps / 2, 2 * kCurveEps};
  for (std::size_t i = 0; i < n; ++i) {
    const Solution base = sol(rng.uniform(0, 10), rng.uniform(1, 10),
                              rng.uniform(0, 10), rng.uniform(0, 4));
    v.push_back(base);
    const double d = kDeltas[rng.uniform_int(0, 2)];
    Solution near = base;
    switch (rng.uniform_int(0, 2)) {
      case 0: near.load += d; break;
      case 1: near.area += d; break;
      default: near.req_time -= d; break;
    }
    v.push_back(near);
  }
  return v;
}

class PruneDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneDifferential, SmoothCurvesMatchOracle) {
  Rng rng(0xD1FF0000 + GetParam());
  for (const std::size_t n : {1u, 2u, 7u, 40u, 200u})
    run_differential(smooth_curve(rng, n), "smooth");
}

TEST_P(PruneDifferential, TieAndDuplicateGridsMatchOracle) {
  Rng rng(0xD1FF1000 + GetParam());
  for (const std::size_t n : {3u, 10u, 60u, 250u})
    run_differential(grid_curve(rng, n), "grid");
}

TEST_P(PruneDifferential, EpsBoundaryPairsMatchOracle) {
  Rng rng(0xD1FF2000 + GetParam());
  for (const std::size_t n : {2u, 20u, 120u})
    run_differential(eps_boundary_curve(rng, n), "eps-boundary");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -- algebra-op differentials -----------------------------------------------
// The batch ops prune *candidates* (before provenance allocation) through
// the bucketed kernel; the reference materializes every candidate in the
// op's enumeration order and runs the oracle (exact configs) or
// SolutionCurve::prune (quantized configs).  This pins the bucketed
// generation + prefilter + k-way sweep against the flat reference.

// Quantized configs, uncapped and capped: the batch ops must prune them
// exactly like SolutionCurve::prune over the materialized candidates.
std::vector<PruneConfig> quantized_configs() {
  return {PruneConfig{5.0, 2.0, 0}, PruneConfig{5.0, 2.0, 4, 1.0}};
}

std::vector<Solution> pruned_flat(const std::vector<Solution>& flat,
                                  const PruneConfig& cfg) {
  SolutionCurve c;
  for (const Solution& s : flat) c.push(s);
  c.prune(cfg);
  return {c.begin(), c.end()};
}

std::vector<Solution> attach_sinks(SolutionArena& arena,
                                   std::vector<Solution> v) {
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i].node = arena.make_sink({0, 0}, static_cast<std::int32_t>(i));
  return v;
}

// A genuine n-point frontier (req/load rise together, area falls), the
// shape mature DP states have; random uniform points collapse to a
// ~15-point front.
SolutionCurve frontier_curve(SolutionArena& arena, std::size_t n,
                             std::uint64_t seed) {
  Rng rng(seed);
  SolutionCurve c;
  for (std::size_t i = 0; i < n; ++i) {
    Solution s;  // one draw per statement: argument order is unspecified
    s.req_time = 10.0 * static_cast<double>(i) + rng.uniform(0, 5);
    s.load = static_cast<double>(i) + rng.uniform(0, 0.5);
    s.area = 2.0 * static_cast<double>(n - i) + rng.uniform(0, 1);
    s.wirelen = rng.uniform(0, 100);
    s.node = arena.make_sink({0, 0}, 0);
    c.push(s);
  }
  c.prune();
  return c;
}

// Replays one push_merged_options call, exact and quantized, against the
// flat reference; returns the exact call's survivor count.
std::size_t expect_merge_matches_oracle(SolutionArena& arena,
                                        const std::vector<MergeJob>& jobs) {
  std::vector<Solution> flat;
  for (const MergeJob& job : jobs)
    for (const Solution& a : *job.left)
      for (const Solution& b : *job.right)
        flat.push_back(sol(std::min(a.req_time, b.req_time), a.load + b.load,
                           a.area + b.area, a.wirelen + b.wirelen));

  SolutionCurve dst;
  push_merged_options(arena, jobs, {0, 0}, {}, dst);
  expect_identical(dst, oracle_prune(flat), "merge");

  for (const PruneConfig& cfg : quantized_configs()) {
    SolutionCurve q;
    push_merged_options(arena, jobs, {0, 0}, cfg, q);
    expect_identical(q, pruned_flat(flat, cfg), "merge, quantized");
  }
  return dst.size();
}

TEST_P(PruneDifferential, MergedOptionsMatchFlatOracle) {
  Rng rng(0xD1FF3000 + GetParam());
  SolutionArena arena;
  SolutionCurve l1, r1, l2, r2;
  for (const Solution& s : attach_sinks(arena, grid_curve(rng, 12))) l1.push(s);
  for (const Solution& s : attach_sinks(arena, smooth_curve(rng, 9))) r1.push(s);
  for (const Solution& s : attach_sinks(arena, eps_boundary_curve(rng, 5))) l2.push(s);
  for (const Solution& s : attach_sinks(arena, grid_curve(rng, 7))) r2.push(s);
  l1.prune();
  r1.prune();
  l2.prune();
  r2.prune();
  (void)expect_merge_matches_oracle(arena, {{&l1, &r1}, {&l2, &r2}});

  if (GetParam() == 1) {  // seed-independent input: checked once
    // Two 128-point frontiers: 16,384 candidates, most of them killed by
    // the prefilter before they are generated.
    const SolutionCurve fl = frontier_curve(arena, 128, 21);
    const SolutionCurve fr = frontier_curve(arena, 128, 22);
    EXPECT_EQ(expect_merge_matches_oracle(arena, {{&fl, &fr}}), 2586u);
  }
}

TEST_P(PruneDifferential, ExtendedOptionsMatchFlatOracle) {
  Rng rng(0xD1FF4000 + GetParam());
  const WireModel wire{0.05, 0.12};
  SolutionArena arena;
  SolutionCurve a, b, zero;
  for (const Solution& s : attach_sinks(arena, smooth_curve(rng, 10))) a.push(s);
  for (const Solution& s : attach_sinks(arena, grid_curve(rng, 14))) b.push(s);
  for (const Solution& s : attach_sinks(arena, eps_boundary_curve(rng, 6)))
    zero.push(s);
  a.prune();
  b.prune();
  zero.prune();

  const SolutionCurve* srcs[] = {&a, &b, &zero};
  const Point pts[] = {{0, 0}, {30, 10}, {5, 5}};  // `zero` sits at `to`
  const Point to{5, 5};
  const double widths[] = {1.0, 2.0};

  std::vector<Solution> flat;
  for (std::size_t i = 0; i < 3; ++i) {
    const double len = static_cast<double>(manhattan(pts[i], to));
    if (len == 0.0) {
      for (const Solution& s : *srcs[i]) flat.push_back(s);
      continue;
    }
    for (const double width : widths) {
      const WireModel w = scaled_width(wire, width);
      for (const Solution& s : *srcs[i])
        flat.push_back(sol(s.req_time - w.elmore_delay(len, s.load),
                           s.load + w.wire_cap(len), s.area, s.wirelen + len));
    }
  }

  SolutionCurve dst;
  push_extended_options(arena, srcs, pts, to, wire, {}, dst, widths);
  expect_identical(dst, oracle_prune(flat), "extend");

  for (const PruneConfig& cfg : quantized_configs()) {
    SolutionCurve q;
    push_extended_options(arena, srcs, pts, to, wire, cfg, q, widths);
    expect_identical(q, pruned_flat(flat, cfg), "extend, quantized");
  }
}

// Replays one push_buffered_options call against the flat reference;
// returns its survivor count.
std::size_t expect_buffer_matches_oracle(SolutionArena& arena,
                                         const SolutionCurve& src,
                                         const BufferLibrary& lib,
                                         std::size_t stride) {
  std::vector<std::uint32_t> tried;
  for (std::uint32_t t = 0; t < lib.size(); t += stride) tried.push_back(t);
  if (tried.back() + 1 != lib.size())
    tried.push_back(static_cast<std::uint32_t>(lib.size()) - 1);

  std::vector<Solution> flat;
  for (const Solution& s : src)
    for (const std::uint32_t t : tried) {
      const Buffer& buf = lib[t];
      flat.push_back(sol(s.req_time - buf.delay_ps(s.load), buf.input_cap,
                         s.area + buf.area, s.wirelen));
    }

  SolutionCurve dst;
  push_buffered_options(arena, src, {0, 0}, lib, dst, stride);
  expect_identical(dst, oracle_prune(flat), "buffer");
  return dst.size();
}

TEST_P(PruneDifferential, BufferedOptionsMatchFlatOracle) {
  Rng rng(0xD1FF5000 + GetParam());
  const BufferLibrary lib = make_standard_library();
  SolutionArena arena;
  SolutionCurve src;
  for (const Solution& s : attach_sinks(arena, smooth_curve(rng, 20))) src.push(s);
  src.prune();
  for (const std::size_t stride : {std::size_t{1}, std::size_t{3}})
    (void)expect_buffer_matches_oracle(arena, src, lib, stride);

  if (GetParam() == 1) {  // seed-independent input: checked once
    // A 256-point frontier against the whole library collapses to a
    // handful of survivors.
    const SolutionCurve frontier = frontier_curve(arena, 256, 23);
    EXPECT_EQ(expect_buffer_matches_oracle(arena, frontier, lib, 1), 29u);
  }
}

// -- SIMD vs scalar agreement ----------------------------------------------
// The dispatched `dominated` (vector when built with MERLIN_SIMD on an
// SSE2/AVX2 target) must agree with the always-built scalar loop on every
// query, most importantly at exact eps boundaries where a widened compare
// that reassociated the bound arithmetic would flip.

TEST(KernelSimd, DominatedAgreesWithScalarOnAdversarialQueries) {
  Rng rng(0x51D50001);
  FrontierSoA f;
  std::vector<CurveCand> members;
  for (std::size_t i = 0; i < 37; ++i) {  // odd size: exercises vector tails
    const CurveCand c{rng.uniform(0, 10), rng.uniform(1, 10),
                      rng.uniform(0, 10), 0.0, i};
    members.push_back(c);
    f.accept(c);
  }
  ASSERT_FALSE(f.empty());

  std::size_t checked = 0;
  static constexpr double kDeltas[] = {-2 * kCurveEps, -kCurveEps,
                                       -kCurveEps / 2, 0.0, kCurveEps / 2,
                                       kCurveEps, 2 * kCurveEps};
  for (const CurveCand& m : members) {
    for (const double d : kDeltas) {
      const double queries[][3] = {
          {m.req_time + d, m.load, m.area},
          {m.req_time, m.load + d, m.area},
          {m.req_time, m.load, m.area + d},
          {m.req_time - d, m.load + d, m.area + d},
      };
      for (const auto& q : queries) {
        EXPECT_EQ(f.dominated(q[0], q[1], q[2]),
                  f.dominated_scalar(q[0], q[1], q[2]))
            << "req=" << q[0] << " load=" << q[1] << " area=" << q[2];
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
  // Not an assertion — just surface which path this binary exercises.
  RecordProperty("simd", kernel_simd_enabled() ? "on" : "off");
}

}  // namespace
}  // namespace merlin
