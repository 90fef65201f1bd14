// Curve-mechanics exhibit (Definition 6, Lemmas 9/10): how large the
// non-inferior solution curves actually get, what the quantization and
// capping knobs (the engineering reading of the paper's pseudo-polynomial
// "q distinct load values" assumption) trade away, and what the bucketed
// kernel (curve/kernel.h) buys over naive generate-then-prune.
//
//   bench_pruning [--reps R] [--json FILE]
//
// --json writes the machine-readable baseline (see BENCH_PRUNE.json) gated
// in CI by tools/bench_compare: the candidate/survivor counts and the
// kernel-vs-naive equivalence bits are fully deterministic (portable Rng,
// no libm in the curve arithmetic) and get zero-tolerance gates; the
// kernel_faster bit compares min-of-reps wall times on a workload large
// enough that the structural win dwarfs runner noise.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "core/bubble.h"
#include "curve/curve.h"
#include "curve/kernel.h"
#include "flow/report.h"
#include "net/generator.h"
#include "net/rng.h"
#include "order/tsp.h"

namespace {

using namespace merlin;

// Plain metric tuple for the naive reference (no provenance).
struct Tuple {
  double req_time, load, area, wirelen;
};

// The naive reference: materialize every candidate, sort into the
// canonical order, quadratic scan against the kept set.  This is what the
// library's prune did before the bucketed kernel (and what the oracle in
// tests/test_prune_differential.cpp still does).
std::vector<Tuple> naive_prune(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end(), [](const Tuple& a, const Tuple& b) {
    if (a.load != b.load) return a.load < b.load;
    if (a.area != b.area) return a.area < b.area;
    if (a.req_time != b.req_time) return a.req_time > b.req_time;
    return a.wirelen < b.wirelen;
  });
  std::vector<Tuple> kept;
  for (const Tuple& t : v) {
    bool drop = false;
    for (const Tuple& k : kept)
      if (dominates(k, t)) {
        drop = true;
        break;
      }
    if (!drop) kept.push_back(t);
  }
  return kept;
}

// A genuine n-point frontier (req/load rise together, area falls), the
// shape mature DP states actually have: random uniform points collapse to a
// ~15-point front and would benchmark the empty case.
SolutionCurve frontier_curve(SolutionArena& arena, std::size_t n,
                             std::uint64_t seed) {
  Rng rng(seed);
  SolutionCurve c;
  for (std::size_t i = 0; i < n; ++i) {
    Solution s;
    s.req_time = 10.0 * static_cast<double>(i) + rng.uniform(0, 5);
    s.load = static_cast<double>(i) + rng.uniform(0, 0.5);
    s.area = 2.0 * static_cast<double>(n - i) + rng.uniform(0, 1);
    s.wirelen = rng.uniform(0, 100);
    s.node = arena.make_sink({0, 0}, 0);
    c.push(std::move(s));
  }
  c.prune();
  return c;
}

double min_wall_us(std::size_t reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (r == 0 || us < best) best = us;
  }
  return best;
}

// Survivor metrics of a curve, as tuples in curve order.
std::vector<Tuple> tuples_of(const SolutionCurve& c) {
  std::vector<Tuple> v;
  for (const Solution& s : c)
    v.push_back(Tuple{s.req_time, s.load, s.area, s.wirelen});
  return v;
}

bool same_tuples(const std::vector<Tuple>& a, std::vector<Tuple> b) {
  // The naive reference has no sequence tie-break, so compare as sorted
  // multisets of metrics (full ties are metric-identical either way).
  auto key = [](const Tuple& x, const Tuple& y) {
    if (x.load != y.load) return x.load < y.load;
    if (x.area != y.area) return x.area < y.area;
    if (x.req_time != y.req_time) return x.req_time > y.req_time;
    return x.wirelen < y.wirelen;
  };
  std::vector<Tuple> as = a;
  std::sort(as.begin(), as.end(), key);
  std::sort(b.begin(), b.end(), key);
  if (as.size() != b.size()) return false;
  for (std::size_t i = 0; i < as.size(); ++i)
    if (as[i].req_time != b[i].req_time || as[i].load != b[i].load ||
        as[i].area != b[i].area || as[i].wirelen != b[i].wirelen)
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace merlin;
  std::size_t reps = 9;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::strtoul(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  if (reps == 0) reps = 1;
  const BufferLibrary lib = make_standard_library();

  std::printf("Raw curve growth: merging random curves with/without pruning\n\n");
  {
    TextTable t({"merge depth", "pushed", "after prune", "prune time (us)"});
    Rng rng(1);
    SolutionArena arena;
    SolutionCurve acc;
    for (int i = 0; i < 32; ++i) {
      Solution s;
      s.req_time = rng.uniform(0, 1000);
      s.load = rng.uniform(1, 50);
      s.area = rng.uniform(0, 10);
      s.node = arena.make_sink({0, 0}, 0);
      acc.push(std::move(s));
    }
    acc.prune();
    std::size_t pushed = acc.size();
    for (int depth = 1; depth <= 5; ++depth) {
      SolutionCurve other;
      Rng r2(depth + 10);
      for (int i = 0; i < 32; ++i) {
        Solution s;
        s.req_time = r2.uniform(0, 1000);
        s.load = r2.uniform(1, 50);
        s.area = r2.uniform(0, 10);
        s.node = arena.make_sink({0, 0}, 1);
        other.push(std::move(s));
      }
      other.prune();
      const auto t0 = std::chrono::steady_clock::now();
      acc = merge_curves(arena, acc, other, {0, 0}, {});
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      pushed = pushed * other.size();
      t.begin_row();
      t.cell(static_cast<std::size_t>(depth));
      t.cell(pushed);
      t.cell(acc.size());
      t.cell(us, 1);
      pushed = acc.size();
    }
    std::printf("%s\n", t.render().c_str());
  }

  std::printf("End-to-end effect of curve budgets on BUBBLE_CONSTRUCT (n=8):\n\n");
  {
    NetSpec spec;
    spec.n_sinks = 8;
    spec.seed = 88;
    const Net net = make_random_net(spec, lib);
    TextTable t({"group cap", "inner cap", "driver req time (ps)",
                 "stored sols", "time (ms)"});
    struct Budget {
      std::size_t group, inner;
    };
    for (const Budget b :
         {Budget{2, 2}, Budget{4, 3}, Budget{6, 4}, Budget{8, 6}, Budget{12, 8}}) {
      BubbleConfig cfg;
      cfg.alpha = 3;
      cfg.candidates.budget_factor = 1.5;
      cfg.candidates.max_candidates = 16;
      cfg.group_prune.max_solutions = b.group;
      cfg.inner_prune.max_solutions = b.inner;
      cfg.buffer_stride = 3;
      const auto t0 = std::chrono::steady_clock::now();
      const BubbleResult r = bubble_construct(net, lib, tsp_order(net), cfg);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      t.begin_row();
      t.cell(b.group);
      t.cell(b.inner);
      t.cell(r.driver_req_time, 1);
      t.cell(r.solutions_stored);
      t.cell(ms, 0);
      std::fflush(stdout);
    }
    std::printf("%s\n", t.render().c_str());
  }

  std::printf("Quantization (the paper's q): load/area bins vs quality (n=8):\n\n");
  {
    NetSpec spec;
    spec.n_sinks = 8;
    spec.seed = 88;
    const Net net = make_random_net(spec, lib);
    TextTable t({"load quantum (fF)", "area quantum", "driver req time (ps)",
                 "stored sols"});
    for (const double q : {0.0, 1.0, 5.0, 20.0, 80.0}) {
      BubbleConfig cfg;
      cfg.alpha = 3;
      cfg.candidates.budget_factor = 1.5;
      cfg.candidates.max_candidates = 16;
      cfg.group_prune = PruneConfig{q, q / 4.0, 0};
      cfg.inner_prune = PruneConfig{q, q / 4.0, 0};
      cfg.buffer_stride = 3;
      const BubbleResult r = bubble_construct(net, lib, tsp_order(net), cfg);
      t.begin_row();
      t.cell(q, 1);
      t.cell(q / 4.0, 1);
      t.cell(r.driver_req_time, 1);
      t.cell(r.solutions_stored);
      std::fflush(stdout);
    }
    std::printf("%s\n", t.render().c_str());
  }
  std::printf("Lemma 10 bounds curves by O(nmq); in practice exact Pareto\n"
              "pruning keeps them tiny, and coarse quanta trade little delay.\n\n");

  // -- bucketed kernel vs naive generate-then-prune -------------------------
  // Merge workload: two 128-point pruned curves -> one batch merge.  The
  // kernel never materializes prefilter-killed candidates; the naive path
  // materializes all |l|*|r|, sorts, and scans quadratically.
  std::printf("Bucketed kernel vs naive generate-then-prune (min of %zu reps):\n\n",
              reps);
  SolutionArena arena;
  const SolutionCurve ml = frontier_curve(arena, 128, 21);
  const SolutionCurve mr = frontier_curve(arena, 128, 22);
  const std::size_t merge_candidates = ml.size() * mr.size();

  std::vector<Tuple> merge_flat;
  merge_flat.reserve(merge_candidates);
  for (const Solution& a : ml)
    for (const Solution& b : mr)
      merge_flat.push_back(Tuple{std::min(a.req_time, b.req_time),
                                 a.load + b.load, a.area + b.area,
                                 a.wirelen + b.wirelen});
  std::vector<Tuple> merge_naive;
  const double merge_naive_us =
      min_wall_us(reps, [&] { merge_naive = naive_prune(merge_flat); });

  SolutionCurve merge_dst;
  const MergeJob job{&ml, &mr};
  const double merge_kernel_us = min_wall_us(reps, [&] {
    merge_dst.clear();
    push_merged_options(arena, std::span<const MergeJob>(&job, 1), {0, 0}, {},
                        merge_dst);
  });
  const bool merge_identical = same_tuples(tuples_of(merge_dst), merge_naive);

  // Buffer workload: 256-point frontier x the full standard library.
  const SolutionCurve bsrc = frontier_curve(arena, 256, 23);
  const std::size_t buffer_candidates = bsrc.size() * lib.size();
  std::vector<Tuple> buffer_flat;
  for (const Solution& s : bsrc)
    for (std::size_t t = 0; t < lib.size(); ++t)
      buffer_flat.push_back(Tuple{s.req_time - lib[t].delay_ps(s.load),
                                  lib[t].input_cap, s.area + lib[t].area,
                                  s.wirelen});
  std::vector<Tuple> buffer_naive;
  const double buffer_naive_us =
      min_wall_us(reps, [&] { buffer_naive = naive_prune(buffer_flat); });

  SolutionCurve buffer_dst;
  const double buffer_kernel_us = min_wall_us(reps, [&] {
    buffer_dst.clear();
    push_buffered_options(arena, bsrc, {0, 0}, lib, buffer_dst);
  });
  const bool buffer_identical = same_tuples(tuples_of(buffer_dst), buffer_naive);

  const bool kernel_faster =
      merge_kernel_us < merge_naive_us && buffer_kernel_us < buffer_naive_us;
  {
    TextTable t({"op", "candidates", "survivors", "kernel (us)", "naive (us)",
                 "speedup", "identical"});
    t.begin_row();
    t.cell(std::string("merge 128x128"));
    t.cell(merge_candidates);
    t.cell(merge_dst.size());
    t.cell(merge_kernel_us, 1);
    t.cell(merge_naive_us, 1);
    t.cell(merge_naive_us / merge_kernel_us, 2);
    t.cell(std::string(merge_identical ? "yes" : "NO"));
    t.begin_row();
    t.cell(std::string("buffer 256xlib"));
    t.cell(buffer_candidates);
    t.cell(buffer_dst.size());
    t.cell(buffer_kernel_us, 1);
    t.cell(buffer_naive_us, 1);
    t.cell(buffer_naive_us / buffer_kernel_us, 2);
    t.cell(std::string(buffer_identical ? "yes" : "NO"));
    std::printf("%s\n", t.render().c_str());
    std::printf("SIMD dominance sweep: %s\n",
                kernel_simd_enabled() ? "on" : "off (scalar)");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"schema\": \"merlin.bench_prune\",\n"
                  "  \"version\": 1,\n"
                  "  \"reps\": %zu,\n"
                  "  \"merge_candidates\": %zu,\n"
                  "  \"merge_survivors\": %zu,\n"
                  "  \"merge_kernel_us\": %.1f,\n"
                  "  \"merge_naive_us\": %.1f,\n"
                  "  \"merge_identical\": %s,\n"
                  "  \"buffer_candidates\": %zu,\n"
                  "  \"buffer_survivors\": %zu,\n"
                  "  \"buffer_kernel_us\": %.1f,\n"
                  "  \"buffer_naive_us\": %.1f,\n"
                  "  \"buffer_identical\": %s,\n"
                  "  \"kernel_faster\": %s,\n"
                  "  \"simd\": %s\n"
                  "}\n",
                  reps, merge_candidates, merge_dst.size(), merge_kernel_us,
                  merge_naive_us, merge_identical ? "true" : "false",
                  buffer_candidates, buffer_dst.size(), buffer_kernel_us,
                  buffer_naive_us, buffer_identical ? "true" : "false",
                  kernel_faster ? "true" : "false",
                  kernel_simd_enabled() ? "true" : "false");
    out << buf;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return merge_identical && buffer_identical ? 0 : 1;
}
