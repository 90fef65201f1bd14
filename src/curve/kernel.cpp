#include "curve/kernel.h"

#include <algorithm>
#include <cassert>

#if defined(MERLIN_SIMD) && MERLIN_SIMD
#if defined(__SSE2__)
#include <emmintrin.h>
#define MERLIN_SIMD_ACTIVE 1
#endif
#endif

namespace merlin {

bool kernel_simd_enabled() {
#ifdef MERLIN_SIMD_ACTIVE
  return true;
#else
  return false;
#endif
}

// The reference predicate
//   load_[k] <= load + eps && area_[k] <= area + eps && req_[k] >= req - eps
// with the three bounds computed once before the loop.
bool FrontierSoA::dominated_scalar(double req_time, double load,
                                   double area) const {
  const double load_lim = load + kCurveEps;
  const double area_lim = area + kCurveEps;
  const double req_lim = req_time - kCurveEps;
  const std::size_t n = load_.size();
  for (std::size_t k = 0; k < n; ++k) {
    if (load_[k] <= load_lim && area_[k] <= area_lim && req_[k] >= req_lim)
      return true;
  }
  return false;
}

// The sweep's test: the same bounds as above minus the load lane, which a
// query in sweep order always passes, scanned from the newest survivor back.
// The vector path only widens the *comparisons*, never the bound
// arithmetic, which keeps MERLIN_SIMD=ON and OFF bit-identical.
bool FrontierSoA::dominated_in_order(double req_time, double area) const {
  const double area_lim = area + kCurveEps;
  const double req_lim = req_time - kCurveEps;
  std::size_t k = area_.size();
#ifdef MERLIN_SIMD_ACTIVE
  const __m128d al2 = _mm_set1_pd(area_lim);
  const __m128d rl2 = _mm_set1_pd(req_lim);
  for (; k >= 2; k -= 2) {
    const __m128d dom =
        _mm_and_pd(_mm_cmple_pd(_mm_loadu_pd(&area_[k - 2]), al2),
                   _mm_cmpge_pd(_mm_loadu_pd(&req_[k - 2]), rl2));
    if (_mm_movemask_pd(dom) != 0) return true;
  }
#endif
  while (k > 0) {
    --k;
    if (area_[k] <= area_lim && req_[k] >= req_lim) return true;
  }
  return false;
}

namespace {

// One canonical-order run of candidates, [begin, end), never empty.
struct Run {
  const CurveCand* begin;
  const CurveCand* end;
};

// Visits the merged canonical order of adjacent runs `a` and `b` through a
// branch-light two-way merge.  Adjacent runs never have the left run wholly
// first: the join step leaves every run's last candidate at or after its
// right neighbour's first, and merging neighbours pairwise keeps that true
// one level up.  So the only pair that does not interleave has the right
// run wholly first, and is visited without comparisons.  `seq` makes the
// order total, so the merge needs no stability rule.
template <typename Visit>
void merge_runs(Run a, Run b, Visit&& visit) {
  assert(!cand_order_less(*(a.end - 1), *b.begin));
  if (cand_order_less(*(b.end - 1), *a.begin)) std::swap(a, b);
  const CurveCand* x = a.begin;
  const CurveCand* y = b.begin;
  while (x != a.end && y != b.end) {
    const bool take_y = cand_order_less(*y, *x);
    visit(*(take_y ? y : x));
    y += take_y;
    x += !take_y;
  }
  for (; x != a.end; ++x) visit(*x);
  for (; y != b.end; ++y) visit(*y);
}

}  // namespace

std::size_t sweep_buckets(const std::vector<CurveCand>& cands,
                          const std::vector<std::uint32_t>& bucket_ends,
                          FrontierSoA& out) {
  // One thread_local block (one TLS lookup per sweep): the DP engines call
  // this once per state, and allocating here would be a top allocation
  // site (same rationale as curve.cpp's candidate scratch).
  struct Scratch {
    std::vector<Run> runs;
    std::vector<CurveCand> ping, pong;
  };
  thread_local Scratch scratch;
  std::vector<Run>& runs = scratch.runs;
  runs.clear();
  const CurveCand* const base = cands.data();
  std::uint32_t start = 0;
  for (const std::uint32_t end : bucket_ends) {
    if (end > start) {
      // Buckets sit back to back, so a bucket that starts after the open
      // run's last candidate in canonical order simply extends it.
      if (!runs.empty() && cand_order_less(*(base + start - 1), base[start]))
        runs.back().end = base + end;
      else
        runs.push_back(Run{base + start, base + end});
    }
    start = end;
  }
  const auto sweep = [&out](const CurveCand& c) { out.accept(c); };
  if (runs.empty()) return cands.size();
  if (runs.size() == 1) {
    std::for_each(runs[0].begin, runs[0].end, sweep);
    return cands.size();
  }

  // Bottom-up pairwise merging until two runs are left.  Each level writes
  // into the buffer the previous level did not, so no run is overwritten
  // while it is read; an odd run out is copied along.
  if (runs.size() > 2) {
    scratch.ping.resize(cands.size());
    scratch.pong.resize(cands.size());
    CurveCand* dst = scratch.ping.data();
    CurveCand* other = scratch.pong.data();
    while (runs.size() > 2) {
      CurveCand* o = dst;
      std::size_t w = 0;
      for (std::size_t r = 0; r + 1 < runs.size(); r += 2) {
        CurveCand* const begin = o;
        merge_runs(runs[r], runs[r + 1], [&o](const CurveCand& c) { *o++ = c; });
        runs[w++] = Run{begin, o};
      }
      if (runs.size() % 2 == 1) {
        CurveCand* const begin = o;
        o = std::copy(runs.back().begin, runs.back().end, o);
        runs[w++] = Run{begin, o};
      }
      runs.resize(w);
      std::swap(dst, other);
    }
  }
  // The last merge feeds the sweep instead of a buffer.
  merge_runs(runs[0], runs[1], sweep);
  return cands.size();
}

}  // namespace merlin
