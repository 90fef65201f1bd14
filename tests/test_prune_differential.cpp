// Differential suite for the bucketed/SoA pruning kernel (curve/kernel.h):
// every prune the kernel performs is replayed against a naive O(n^2)
// reference oracle that implements the canonical semantics directly —
// sort into the canonical candidate order, keep a candidate iff no
// already-kept predecessor eps-dominates it (the shared `dominates` of
// solution.h).  Surviving sets must be IDENTICAL, bitwise and in order,
// on adversarial inputs: exact duplicates, metric ties that exercise the
// sequence tie-break, and pairs separated by exactly the dominance epsilon
// (and half / double it).  The CI matrix runs this file under both
// MERLIN_SIMD=ON and OFF; the sweep's own two-lane test
// (`FrontierSoA::dominated_in_order`) is additionally checked against the
// three-lane scalar reference `dominated_scalar` in-process.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
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
void expect_identical(std::span<const Solution> got,
                      const std::vector<Solution>& want, const char* what) {
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
  expect_identical(c.solutions(), oracle_prune(input), what);
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
// generation + prefilter + merged sweep against the flat reference.

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
  expect_identical(dst.solutions(), oracle_prune(flat), "merge");

  for (const PruneConfig& cfg : quantized_configs()) {
    SolutionCurve q;
    push_merged_options(arena, jobs, {0, 0}, cfg, q);
    expect_identical(q.solutions(), pruned_flat(flat, cfg), "merge, quantized");
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
  expect_identical(dst.solutions(), oracle_prune(flat), "extend");

  for (const PruneConfig& cfg : quantized_configs()) {
    SolutionCurve q;
    push_extended_options(arena, srcs, pts, to, wire, cfg, q, widths);
    expect_identical(q.solutions(), pruned_flat(flat, cfg), "extend, quantized");
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
  expect_identical(dst.solutions(), oracle_prune(flat), "buffer");
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

// -- sweep, run and cap shapes -----------------------------------------------
// sweep_buckets joins buckets that do not interleave into one run and merges
// the rest pairwise; SolutionCurve::prune cuts its input into runs where the
// order breaks; the cap picks from the canonical order without sorting.
// Each is checked here on the shapes that drive its separate paths.  The
// oracle inputs carry their sequence number (or input position) in
// `Solution::node`, so the comparison also pins which duplicate survived.

void expect_same_points(std::span<const Solution> got,
                        const std::vector<Solution>& want, const char* what) {
  expect_identical(got, want, what);
  if (got.size() != want.size()) return;
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i].node, want[i].node) << what << " [" << i << "]";
}

// Sweeps `buckets` (each sorted canonically, laid out back to back) and
// compares the frontier with the oracle.  Sequence numbers are a random
// permutation, so metric ties across buckets are decided by `seq`, not by
// bucket order.
void expect_sweep_matches_oracle(Rng& rng,
                                 const std::vector<std::vector<Solution>>& buckets,
                                 const char* what) {
  std::size_t n = 0;
  for (const auto& b : buckets) n += b.size();
  std::vector<std::uint64_t> seqs(n);
  std::iota(seqs.begin(), seqs.end(), std::uint64_t{0});
  for (std::size_t i = n; i > 1; --i)
    std::swap(seqs[i - 1], seqs[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);

  std::vector<Solution> by_seq(n);
  std::vector<CurveCand> cands;
  std::vector<std::uint32_t> ends;
  for (const auto& b : buckets) {
    const std::size_t start = cands.size();
    for (const Solution& s : b) {
      const std::uint64_t q = seqs[cands.size()];
      cands.push_back(CurveCand{s.req_time, s.load, s.area, s.wirelen, q});
      by_seq[q] = s;
      by_seq[q].node = static_cast<SolNodeId>(q);
    }
    std::sort(cands.begin() + static_cast<std::ptrdiff_t>(start), cands.end(),
              cand_order_less);
    ends.push_back(static_cast<std::uint32_t>(cands.size()));
  }

  FrontierSoA f;
  EXPECT_EQ(sweep_buckets(cands, ends, f), n) << what;
  std::vector<Solution> got;
  for (std::size_t k = 0; k < f.size(); ++k) {
    const CurveCand c = f[k];
    Solution s = sol(c.req_time, c.load, c.area, c.wirelen);
    s.node = static_cast<SolNodeId>(c.seq);
    got.push_back(s);
  }
  expect_same_points(got, oracle_prune(by_seq), what);
}

TEST_P(PruneDifferential, SweepBucketsMatchesOracleOnEveryRunShape) {
  Rng rng(0xD1FF6000 + GetParam());
  using Buckets = std::vector<std::vector<Solution>>;
  expect_sweep_matches_oracle(rng, {}, "no buckets");
  expect_sweep_matches_oracle(rng, {{}, {}, {}}, "empty buckets");
  expect_sweep_matches_oracle(rng, {{sol(5, 2, 1)}}, "one candidate");
  expect_sweep_matches_oracle(rng, {{}, {sol(5, 2, 1)}, {}},
                              "one candidate among empty buckets");

  for (const std::size_t nb : {2u, 3u, 4u, 5u, 7u, 9u}) {
    Buckets up, down, interleaved, overlapping, grid, eps;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 8));
      // The buffer shape: one constant load per bucket, rising (one run
      // after joining) or falling (runs that never interleave).
      std::vector<Solution> rising = smooth_curve(rng, m);
      std::vector<Solution> falling = smooth_curve(rng, m);
      for (Solution& s : rising) s.load = 1.0 + static_cast<double>(b);
      for (Solution& s : falling) s.load = 20.0 - static_cast<double>(b);
      up.push_back(rising);
      down.push_back(falling);
      interleaved.push_back(smooth_curve(rng, m));
      std::vector<Solution> shifted = smooth_curve(rng, m);
      for (Solution& s : shifted)
        s.load = static_cast<double>(b) + rng.uniform(0, 2);
      overlapping.push_back(shifted);
      grid.push_back(grid_curve(rng, m));
      if (b % 3 == 1) grid.push_back({});  // empty buckets between runs
    }
    // Eps-boundary pairs dealt round-robin, so a pair straddles buckets.
    const std::vector<Solution> pairs = eps_boundary_curve(rng, 4 * nb);
    eps.resize(nb);
    for (std::size_t i = 0; i < pairs.size(); ++i) eps[i % nb].push_back(pairs[i]);

    expect_sweep_matches_oracle(rng, up, "disjoint, rising");
    expect_sweep_matches_oracle(rng, down, "disjoint, falling");
    expect_sweep_matches_oracle(rng, interleaved, "interleaved");
    expect_sweep_matches_oracle(rng, overlapping, "partially overlapping");
    expect_sweep_matches_oracle(rng, grid, "grid ties");
    expect_sweep_matches_oracle(rng, eps, "eps boundary");
  }
}

// The cap reference (sort-then-pick): sort the survivors by
// (load, area), then keep the extremes and the load spread.
std::vector<Solution> sort_then_pick(std::vector<Solution> v,
                                     const PruneConfig& cfg) {
  if (cfg.max_solutions == 0 || v.size() <= cfg.max_solutions) return v;
  std::sort(v.begin(), v.end(), [](const Solution& a, const Solution& b) {
    if (a.load != b.load) return a.load < b.load;
    return a.area < b.area;
  });
  const std::size_t n = v.size();
  const std::size_t m = cfg.max_solutions;
  std::size_t best_rt = 0, min_area = 0, best_scalar = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i].req_time > v[best_rt].req_time) best_rt = i;
    if (v[i].area < v[min_area].area) min_area = i;
    if (cfg.ref_res > 0.0 &&
        v[i].req_time - cfg.ref_res * v[i].load >
            v[best_scalar].req_time - cfg.ref_res * v[best_scalar].load)
      best_scalar = i;
  }
  std::vector<std::size_t> must{0, best_rt, min_area};
  if (cfg.ref_res > 0.0) must.push_back(best_scalar);
  std::sort(must.begin(), must.end());
  must.erase(std::unique(must.begin(), must.end()), must.end());
  std::vector<std::size_t> pick = must;
  for (std::size_t j = 0; j < m && pick.size() < m + must.size(); ++j)
    pick.push_back(m == 1 ? best_rt : j * (n - 1) / (m - 1));
  std::sort(pick.begin(), pick.end());
  pick.erase(std::unique(pick.begin(), pick.end()), pick.end());
  for (std::size_t j = 1; pick.size() > std::max(m, must.size());) {
    if (j + 1 >= pick.size()) break;
    if (!std::binary_search(must.begin(), must.end(), pick[j]))
      pick.erase(pick.begin() + static_cast<std::ptrdiff_t>(j));
    else
      ++j;
  }
  std::vector<Solution> out;
  for (const std::size_t i : pick) out.push_back(v[i]);
  return out;
}

// Quantization reference: of the exact survivors (canonical order), keep
// per (load bin, area bin) the best required time, ties toward less wire,
// then toward the earlier point.
std::vector<Solution> reference_bins(const std::vector<Solution>& v,
                                     const PruneConfig& cfg) {
  if (cfg.load_quantum <= 0.0 && cfg.area_quantum <= 0.0) return v;
  const auto bin = [](double x, double q) {
    return q > 0.0 ? std::floor(x / q) : x;
  };
  std::vector<Solution> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    bool beaten = false;
    for (std::size_t j = 0; j < v.size() && !beaten; ++j) {
      if (j == i || bin(v[j].load, cfg.load_quantum) != bin(v[i].load, cfg.load_quantum) ||
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

std::vector<Solution> reference_prune(const std::vector<Solution>& in,
                                      const PruneConfig& cfg) {
  return sort_then_pick(reference_bins(oracle_prune(in), cfg), cfg);
}

std::vector<Solution> numbered(std::vector<Solution> v) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i].node = static_cast<SolNodeId>(i);
  return v;
}

// RangeDp's stage shape: a merged cell followed by extension curves, each
// already pruned, so the input is a few sorted runs back to back.
TEST_P(PruneDifferential, PruneOfConcatenatedCurvesMatchesOracle) {
  Rng rng(0xD1FF7000 + GetParam());
  const PruneConfig configs[] = {
      PruneConfig{}, PruneConfig{5.0, 2.0, 0}, PruneConfig{0.0, 0.0, 4, 1.0},
      PruneConfig{0.0, 0.0, 3}, PruneConfig{5.0, 2.0, 4, 1.0}};
  for (std::size_t parts = 2; parts <= 5; ++parts) {
    std::vector<Solution> flat;
    for (std::size_t k = 0; k < parts; ++k) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 30));
      std::vector<Solution> part = k % 3 == 0   ? smooth_curve(rng, n)
                                   : k % 3 == 1 ? grid_curve(rng, n)
                                                : eps_boundary_curve(rng, n);
      const std::vector<Solution> pruned = pruned_flat(part, {});
      flat.insert(flat.end(), pruned.begin(), pruned.end());
    }
    flat = numbered(flat);
    for (const PruneConfig& cfg : configs)
      expect_same_points(pruned_flat(flat, cfg), reference_prune(flat, cfg),
                         "concatenation");
  }
}

TEST_P(PruneDifferential, CapPicksLikeSortThenPick) {
  Rng rng(0xD1FF8000 + GetParam());
  SolutionArena arena;
  const SolutionCurve staircase = frontier_curve(arena, 24, 0xCA90 + GetParam());
  const std::vector<std::vector<Solution>> inputs = {
      numbered(smooth_curve(rng, 60)), numbered(grid_curve(rng, 80)),
      numbered(eps_boundary_curve(rng, 30)),
      numbered({staircase.begin(), staircase.end()})};
  for (const std::vector<Solution>& in : inputs)
    for (std::size_t cap = 1; cap <= 8; ++cap)
      for (const double ref_res : {0.0, 0.7}) {
        const PruneConfig cfg{0.0, 0.0, cap, ref_res};
        expect_same_points(pruned_flat(in, cfg), reference_prune(in, cfg), "cap");
      }
}

// -- SIMD vs scalar agreement ----------------------------------------------

// A query coordinate q whose eps bound lands exactly on x (q + step == x
// in floating point), so a `<=` / `>=` lane compare is decided by equality;
// nullopt when rounding leaves no such q next to x - step.
std::optional<double> bound_lands_on(double x, double step) {
  double q = x - step;
  for (int i = 0; i < 16; ++i) {
    const double b = q + step;
    if (b == x) return q;
    q = std::nextafter(q, b < x ? HUGE_VAL : -HUGE_VAL);
  }
  return std::nullopt;
}

// The sweep's own test (`dominated_in_order`) skips the load lane and
// scans newest first; for every query that follows the whole frontier in
// canonical order — the only queries a sweep makes — it must agree with the
// three-lane scalar reference.  The frontier grows one member at a time, so
// every size (and every vector tail) is exercised, and the queries sit on
// the eps boundary of both the next member and the newest survivor.
TEST(KernelSimd, SweepOrderTestAgreesWithScalarReference) {
  Rng rng(0x51D50002);
  std::vector<CurveCand> members;
  for (std::size_t i = 0; i < 64; ++i) {
    members.push_back(CurveCand{rng.uniform(0, 10), rng.uniform(1, 10),
                                rng.uniform(0, 10), 0.0, i});
  }
  std::sort(members.begin(), members.end(), cand_order_less);

  static constexpr double kDeltas[] = {-2 * kCurveEps, -kCurveEps,
                                       -kCurveEps / 2, 0.0, kCurveEps / 2,
                                       kCurveEps, 2 * kCurveEps};
  FrontierSoA f;
  std::size_t checked = 0, on_bound = 0;
  const auto check = [&](double req, double load, double area) {
    const CurveCand qc{req, load, area, 0.0, members.size()};
    if (!f.empty() && !cand_order_less(f[f.size() - 1], qc)) return;
    const bool want = f.dominated_scalar(req, load, area);
    EXPECT_EQ(f.dominated_in_order(req, area), want)
        << "size=" << f.size() << " req=" << req << " load=" << load
        << " area=" << area;
    ++checked;
    for (std::size_t k = 0; k < f.size(); ++k)
      on_bound += f[k].area == area + kCurveEps ||
                  f[k].req_time == req - kCurveEps;
  };
  for (const CurveCand& m : members) {
    std::vector<CurveCand> anchors{m};
    if (!f.empty()) anchors.push_back(f[f.size() - 1]);
    for (const CurveCand& a : anchors) {
      for (const double d : kDeltas) {
        const double queries[][3] = {
            {a.req_time + d, a.load, a.area},
            {a.req_time, a.load + d, a.area},
            {a.req_time, a.load, a.area + d},
            {a.req_time - d, a.load + d, a.area + d},
        };
        for (const auto& q : queries) check(q[0], q[1], q[2]);
      }
      // Exactly on the area and req_time bounds of the anchor, at a load
      // just past it so the query still follows the anchor.
      const double load = a.load + kCurveEps;
      const std::optional<double> area_on = bound_lands_on(a.area, kCurveEps);
      const std::optional<double> req_on = bound_lands_on(a.req_time, -kCurveEps);
      if (area_on) check(a.req_time, load, *area_on);
      if (req_on) check(*req_on, load, a.area);
      if (area_on && req_on) check(*req_on, load, *area_on);
    }
    f.accept(m);
  }
  EXPECT_GT(checked, 2000u);
  EXPECT_GT(on_bound, 100u);
}

}  // namespace
}  // namespace merlin
