#include "curve/curve.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "curve/kernel.h"

namespace merlin {

namespace {

// ---------------------------------------------------------------------------
// The one pruner.  Every prune — SolutionCurve::prune and the batch ops
// below — feeds candidates into a BucketScratch and ends in sweep_and_cap:
// the bucketed/SoA dominance sweep of curve/kernel.h, then the optional
// quantization filter, then the engineering cap.  Dominance everywhere goes
// through the shared `dominates` rule (kernel.h's FrontierSoA evaluates it
// lane-wise) so the epsilon cannot drift between push-time tests
// (Solution::dominated_by) and prune-time sweeps.
// ---------------------------------------------------------------------------

// Quantization (PruneConfig::load_quantum / area_quantum — the paper's
// pseudo-polynomial assumption, which bounds Lemma 10's q).  Of the exact
// survivors, keeps per (load bin, area bin) the point with the best
// required time, ties toward less wire, then toward the canonical order.
// It runs on the sweep's output, so the kernel's equivalence argument never
// sees a bin, the winners stay a non-inferior set in canonical order, and
// every stored metric is the realized structure's exact value.
void apply_bins(std::vector<CurveCand>& v, const PruneConfig& cfg) {
  if (cfg.load_quantum <= 0.0 && cfg.area_quantum <= 0.0) return;
  const auto bin = [](double x, double q) {
    return q > 0.0 ? std::floor(x / q) : x;
  };
  struct Binned {
    double load_bin, area_bin;
    std::uint32_t i;
  };
  thread_local std::vector<Binned> keyed;
  keyed.clear();
  for (std::uint32_t i = 0; i < v.size(); ++i)
    keyed.push_back(Binned{bin(v[i].load, cfg.load_quantum),
                           bin(v[i].area, cfg.area_quantum), i});
  std::sort(keyed.begin(), keyed.end(), [&](const Binned& a, const Binned& b) {
    if (a.load_bin != b.load_bin) return a.load_bin < b.load_bin;
    if (a.area_bin != b.area_bin) return a.area_bin < b.area_bin;
    const CurveCand& x = v[a.i];
    const CurveCand& y = v[b.i];
    if (x.req_time != y.req_time) return x.req_time > y.req_time;
    if (x.wirelen != y.wirelen) return x.wirelen < y.wirelen;
    return a.i < b.i;
  });
  thread_local std::vector<char> keep;
  keep.assign(v.size(), 0);
  for (std::size_t k = 0; k < keyed.size(); ++k)
    if (k == 0 || keyed[k].load_bin != keyed[k - 1].load_bin ||
        keyed[k].area_bin != keyed[k - 1].area_bin)
      keep[keyed[k].i] = 1;
  std::size_t w = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (keep[i]) v[w++] = v[i];
  v.resize(w);
}

// Engineering cap.  All survivors are non-inferior, so the cap is purely
// about which part of the frontier to keep.  We always keep the three
// extreme points (max required time, min load, min area) and fill the rest
// with an even spread along the load axis — load is what decides whether a
// solution stays useful after more upstream wire, so spreading over it
// preserves downstream feasibility far better than spreading over area
// (which is frequently constant across a young curve).  The survivors
// arrive in canonical order and are strictly increasing in (load, area):
// of two points with equal load and area, the earlier has the larger
// required time and so eps-dominates the later.  That is the order the
// spread indexes into, so no sort is needed.
void apply_curve_cap(std::vector<CurveCand>& v, const PruneConfig& cfg) {
  if (cfg.max_solutions == 0 || v.size() <= cfg.max_solutions) return;
  assert(std::adjacent_find(v.begin(), v.end(),
                            [](const CurveCand& a, const CurveCand& b) {
                              return !(a.load < b.load ||
                                       (a.load == b.load && a.area < b.area));
                            }) == v.end());
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
  thread_local std::vector<std::size_t> must;
  must.assign({0, best_rt, min_area});
  if (cfg.ref_res > 0.0) must.push_back(best_scalar);
  std::sort(must.begin(), must.end());
  must.erase(std::unique(must.begin(), must.end()), must.end());
  const std::size_t n_must = must.size();

  thread_local std::vector<std::size_t> pick;
  pick.assign(must.begin(), must.end());
  for (std::size_t j = 0; j < m && pick.size() < m + n_must; ++j)
    pick.push_back(m == 1 ? best_rt : j * (n - 1) / (m - 1));
  std::sort(pick.begin(), pick.end());
  pick.erase(std::unique(pick.begin(), pick.end()), pick.end());
  // Trim middle samples (never the must-keeps) down to the cap.
  for (std::size_t j = 1; pick.size() > std::max(m, n_must);) {
    if (j + 1 >= pick.size()) break;
    if (!std::binary_search(must.begin(), must.end(), pick[j]))
      pick.erase(pick.begin() + static_cast<std::ptrdiff_t>(j));
    else
      ++j;
  }
  // `pick` is strictly increasing, so pick[t] >= t: gathering forward in
  // place never reads a slot already written.
  for (std::size_t t = 0; t < pick.size(); ++t)
    if (pick[t] != t) v[t] = std::move(v[pick[t]]);
  v.resize(pick.size());
}

// Bucketed candidate generation.  Candidates are pushed bucket by bucket;
// each push carries its generation sequence number — in the batch ops the
// index the candidate has in a materialize-every-candidate enumeration, so
// they prune exactly like SolutionCurve::prune over that enumeration.  The
// per-bucket prefilter kills most dominated candidates in O(1) before they
// are stored; a bucket whose keys come out of order (a buffer bucket, whose
// constant load leaves area to order it, or floating-point collapse of
// distinct source loads) is sorted before the sweep.
class BucketScratch {
 public:
  void clear() {
    cands_.clear();
    ends_.clear();
    bucket_start_ = 0;
    sorted_ = true;
    has_last_ = false;
  }

  /// Pushes one candidate of the current bucket; returns false when the
  /// prefilter rejected it (nothing stored).
  bool push(const CurveCand& c) {
    if (has_last_) {
      if (prefilter_dominates(last_, c)) return false;
      if (sorted_ && !cand_order_less(last_, c)) sorted_ = false;
    }
    cands_.push_back(c);
    last_ = c;
    has_last_ = true;
    return true;
  }

  /// Pushes one candidate of an input that is mostly in canonical order: a
  /// candidate that does not follow the previous one starts a new bucket,
  /// so the input reaches the sweep as sorted runs and is never sorted.
  /// The bucket break loses no prefilter rejection: a candidate that
  /// precedes the previous one in canonical order cannot be dominated
  /// slack-free by it (that would put the previous one first).
  void push_in_runs(const CurveCand& c) {
    if (has_last_ && !cand_order_less(last_, c)) end_bucket();
    push(c);
  }

  void end_bucket() {
    if (!sorted_) {
      std::sort(cands_.begin() + bucket_start_, cands_.end(),
                [](const CurveCand& a, const CurveCand& b) {
                  return cand_order_less(a, b);
                });
    }
    ends_.push_back(static_cast<std::uint32_t>(cands_.size()));
    bucket_start_ = static_cast<std::uint32_t>(cands_.size());
    sorted_ = true;
    has_last_ = false;
  }

  [[nodiscard]] const std::vector<CurveCand>& cands() const { return cands_; }
  [[nodiscard]] const std::vector<std::uint32_t>& ends() const { return ends_; }

 private:
  std::vector<CurveCand> cands_;
  std::vector<std::uint32_t> ends_;
  std::uint32_t bucket_start_ = 0;
  bool sorted_ = true;
  bool has_last_ = false;
  CurveCand last_;
};

// The end of every prune: sweeps the buckets, applies quantization and the
// cap, records the curve_points_* counters, and returns the final survivor
// tuples in output order.  `generated` is the pre-prefilter candidate count
// (every candidate the prune was offered), so the counters do not depend on
// how many candidates the prefilter rejected before they were stored.
const std::vector<CurveCand>& sweep_and_cap(const BucketScratch& scratch,
                                            std::size_t generated,
                                            const PruneConfig& cfg) {
  thread_local FrontierSoA frontier;
  frontier.clear();
  sweep_buckets(scratch.cands(), scratch.ends(), frontier);

  thread_local std::vector<CurveCand> survivors;
  survivors.clear();
  for (std::size_t k = 0; k < frontier.size(); ++k)
    survivors.push_back(frontier[k]);
  apply_bins(survivors, cfg);
  apply_curve_cap(survivors, cfg);

  obs_gauge(cfg.obs, Gauge::kCurvePeakWidth, generated);
  obs_add(cfg.obs, Counter::kCurvePointsPushed, generated);
  obs_add(cfg.obs, Counter::kCurvePointsPruned, generated - survivors.size());
  obs_add(cfg.obs, Counter::kCurvePointsKept, survivors.size());
  return survivors;
}

}  // namespace

// The input in order (sequence number = position, so which duplicate
// survives is pinned), cut into a new bucket wherever the input order
// breaks: a curve pruned before arrives as one run, and a concatenation of
// pruned curves (RangeDp's merged cell plus its extensions) as one run per
// curve.  The prefilter drops a point dominated slack-free by the one pushed
// before it (kernel.h).
void SolutionCurve::prune(const PruneConfig& cfg) {
  if (sols_.empty()) return;
  thread_local BucketScratch scratch;
  scratch.clear();
  for (std::size_t i = 0; i < sols_.size(); ++i) {
    const Solution& s = sols_[i];
    scratch.push_in_runs(CurveCand{s.req_time, s.load, s.area, s.wirelen, i});
  }
  scratch.end_bucket();
  const std::vector<CurveCand>& survivors =
      sweep_and_cap(scratch, sols_.size(), cfg);
  thread_local std::vector<Solution> kept;
  kept.clear();
  for (const CurveCand& c : survivors)
    kept.push_back(sols_[static_cast<std::size_t>(c.seq)]);
  sols_.swap(kept);
}

void SolutionCurve::collect_roots(std::vector<SolNodeId>& out) const {
  for (const Solution& s : sols_)
    if (s.node != kNullSol) out.push_back(s.node);
}

void SolutionCurve::remap_nodes(std::span<const SolNodeId> remap) {
  for (Solution& s : sols_)
    if (s.node != kNullSol) s.node = remap[s.node];
}

void SolutionCurve::rebase_lane(SolNodeId base) {
  for (Solution& s : sols_)
    s.node = SolutionArena::rebase_lane_handle(s.node, base);
}

const Solution* SolutionCurve::best_req_time() const {
  const Solution* best = nullptr;
  for (const Solution& s : sols_)
    if (best == nullptr || s.req_time > best->req_time ||
        (s.req_time == best->req_time && s.area < best->area))
      best = &s;
  return best;
}

const Solution* SolutionCurve::best_req_time_under_area(double max_area) const {
  const Solution* best = nullptr;
  for (const Solution& s : sols_) {
    if (s.area > max_area + kCurveEps) continue;
    if (best == nullptr || s.req_time > best->req_time ||
        (s.req_time == best->req_time && s.area < best->area))
      best = &s;
  }
  return best;
}

const Solution* SolutionCurve::min_area_meeting_req(double min_req) const {
  const Solution* best = nullptr;
  for (const Solution& s : sols_) {
    if (s.req_time < min_req - kCurveEps) continue;
    if (best == nullptr || s.area < best->area ||
        (s.area == best->area && s.req_time > best->req_time))
      best = &s;
  }
  return best;
}

SolutionCurve merge_curves(SolutionArena& arena, const SolutionCurve& left,
                           const SolutionCurve& right, Point at,
                           const PruneConfig& cfg) {
  SolutionCurve out;
  const MergeJob job{&left, &right};
  push_merged_options(arena, std::span<const MergeJob>(&job, 1), at, cfg, out);
  return out;
}

SolutionCurve extend_curve(SolutionArena& arena, const SolutionCurve& src,
                           Point from, Point to, const WireModel& wire,
                           const PruneConfig& cfg, double wire_width) {
  SolutionCurve out;
  const SolutionCurve* src_ptr = &src;
  const double widths[] = {wire_width};
  push_extended_options(arena, std::span<const SolutionCurve* const>(&src_ptr, 1),
                        std::span<const Point>(&from, 1), to, wire, cfg, out,
                        widths);
  return out;
}

void push_buffered_options(SolutionArena& arena, const SolutionCurve& src,
                           Point at, const BufferLibrary& lib,
                           SolutionCurve& dst, std::size_t stride,
                           ObsSink* obs) {
  if (stride == 0) stride = 1;
  thread_local std::vector<std::uint32_t> tried;
  tried.clear();
  for (std::uint32_t b = 0; b < lib.size(); b += stride) tried.push_back(b);
  if (!lib.empty() && (tried.empty() || tried.back() + 1 != lib.size()))
    tried.push_back(static_cast<std::uint32_t>(lib.size()) - 1);  // strongest

  // Li–Shi bucketing: one bucket per tried buffer type.  Within a bucket
  // the load lane is the buffer's input capacitance — constant — so
  // same-bucket dominance degenerates to the 2-D (area, req_time) staircase
  // the prefilter prunes as candidates stream by.  The sequence number is
  // i * |tried| + t, the index the (source-major) reference enumeration
  // would assign, so survivor payloads are recovered by plain division.
  const std::size_t n_src = src.size();
  const std::size_t n_tried = tried.size();
  thread_local BucketScratch scratch;
  scratch.clear();
  for (std::size_t t = 0; t < n_tried; ++t) {
    const Buffer& buf = lib[tried[t]];
    for (std::size_t i = 0; i < n_src; ++i) {
      const Solution& s = src[i];
      scratch.push(CurveCand{s.req_time - buf.delay_ps(s.load), buf.input_cap,
                             s.area + buf.area, s.wirelen,
                             static_cast<std::uint64_t>(i) * n_tried + t});
    }
    scratch.end_bucket();
  }
  const std::size_t generated = n_src * n_tried;
  obs_add(obs, Counter::kBufferCandidates, generated);
  PruneConfig pc;
  pc.obs = obs;
  const std::vector<CurveCand>& survivors = sweep_and_cap(scratch, generated, pc);
  obs_add(obs, Counter::kBufferKept, survivors.size());
  for (const CurveCand& c : survivors) {
    const std::size_t i = static_cast<std::size_t>(c.seq / n_tried);
    const std::uint32_t b = tried[static_cast<std::size_t>(c.seq % n_tried)];
    Solution s;
    s.req_time = c.req_time;
    s.load = c.load;
    s.area = c.area;
    s.wirelen = c.wirelen;
    s.node = arena.make_buffer(at, static_cast<std::int32_t>(b), src[i].node);
    dst.push(std::move(s));
  }
}

void push_merged_options(SolutionArena& arena, std::span<const MergeJob> jobs,
                         Point at, const PruneConfig& cfg, SolutionCurve& dst) {
  // One bucket per (job, left solution).  A pruned
  // right curve arrives in canonical order, so the bucket's computed keys
  // are already sorted except when rounding collapses distinct loads — the
  // scratch detects and repairs that case.
  struct Bucket {
    const Solution* left;
    const SolutionCurve* right;
    std::uint64_t seq_base;
  };
  thread_local std::vector<Bucket> buckets;
  thread_local BucketScratch scratch;
  buckets.clear();
  scratch.clear();
  std::uint64_t seq = 0;
  for (const MergeJob& job : jobs) {
    for (const Solution& a : *job.left) {
      buckets.push_back(Bucket{&a, job.right, seq});
      for (const Solution& b : *job.right) {
        scratch.push(CurveCand{std::min(a.req_time, b.req_time),
                               a.load + b.load, a.area + b.area,
                               a.wirelen + b.wirelen, seq});
        ++seq;
      }
      scratch.end_bucket();
    }
  }
  obs_add(cfg.obs, Counter::kMergeCandidates, seq);
  const std::vector<CurveCand>& survivors =
      sweep_and_cap(scratch, static_cast<std::size_t>(seq), cfg);
  obs_add(cfg.obs, Counter::kMergeKept, survivors.size());
  for (const CurveCand& c : survivors) {
    // Largest seq_base <= c.seq locates the bucket.
    const auto it = std::upper_bound(
        buckets.begin(), buckets.end(), c.seq,
        [](std::uint64_t s, const Bucket& b) { return s < b.seq_base; });
    const Bucket& bk = *(it - 1);
    const Solution& b = (*bk.right)[static_cast<std::size_t>(c.seq - bk.seq_base)];
    Solution s;
    s.req_time = c.req_time;
    s.load = c.load;
    s.area = c.area;
    s.wirelen = c.wirelen;
    s.node = arena.make_merge(at, bk.left->node, b.node);
    dst.push(std::move(s));
  }
}

void push_extended_options(SolutionArena& arena,
                           std::span<const SolutionCurve* const> srcs,
                           std::span<const Point> src_pts, Point to,
                           const WireModel& wire, const PruneConfig& cfg,
                           SolutionCurve& dst, std::span<const double> widths) {
  static constexpr double kDefaultWidth[] = {1.0};
  if (widths.empty()) widths = kDefaultWidth;

  // One bucket per (source curve, wire width) — a
  // zero-length source contributes a single identity bucket, whose
  // survivors reuse the child provenance node unchanged.
  struct Bucket {
    const SolutionCurve* src;
    double width;
    bool zero_len;
    std::uint64_t seq_base;
  };
  thread_local std::vector<Bucket> buckets;
  thread_local BucketScratch scratch;
  buckets.clear();
  scratch.clear();
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    if (srcs[i] == nullptr) continue;
    const double len = static_cast<double>(manhattan(src_pts[i], to));
    if (len == 0.0) {
      buckets.push_back(Bucket{srcs[i], 1.0, true, seq});
      for (const Solution& s : *srcs[i]) {
        scratch.push(CurveCand{s.req_time, s.load, s.area, s.wirelen, seq});
        ++seq;
      }
      scratch.end_bucket();
      continue;
    }
    for (const double width : widths) {
      const WireModel w = scaled_width(wire, width);
      buckets.push_back(Bucket{srcs[i], width, false, seq});
      for (const Solution& s : *srcs[i]) {
        scratch.push(CurveCand{s.req_time - w.elmore_delay(len, s.load),
                               s.load + w.wire_cap(len), s.area,
                               s.wirelen + len, seq});
        ++seq;
      }
      scratch.end_bucket();
    }
  }
  obs_add(cfg.obs, Counter::kExtendCandidates, seq);
  const std::vector<CurveCand>& survivors =
      sweep_and_cap(scratch, static_cast<std::size_t>(seq), cfg);
  obs_add(cfg.obs, Counter::kExtendKept, survivors.size());
  for (const CurveCand& c : survivors) {
    const auto it = std::upper_bound(
        buckets.begin(), buckets.end(), c.seq,
        [](std::uint64_t s, const Bucket& b) { return s < b.seq_base; });
    const Bucket& bk = *(it - 1);
    const Solution& from = (*bk.src)[static_cast<std::size_t>(c.seq - bk.seq_base)];
    Solution s;
    s.req_time = c.req_time;
    s.load = c.load;
    s.area = c.area;
    s.wirelen = c.wirelen;
    s.node = bk.zero_len ? from.node : arena.make_wire(to, from.node, bk.width);
    dst.push(std::move(s));
  }
}

}  // namespace merlin
