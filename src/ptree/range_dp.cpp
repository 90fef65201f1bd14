#include "ptree/range_dp.h"

#include <algorithm>
#include <stdexcept>

namespace merlin {

CandidateSet route_candidates(const Net& net, const CandidateOptions& opts) {
  CandidateSet c;
  c.pts = candidate_locations(net.terminals(), opts);
  const auto it = std::find(c.pts.begin(), c.pts.end(), net.source);
  if (it == c.pts.end())
    throw std::logic_error("candidate_locations must include the source");
  c.source_p = static_cast<std::size_t>(it - c.pts.begin());
  return c;
}

std::vector<std::vector<std::uint32_t>> extension_sources(
    std::span<const Point> pts, std::size_t limit) {
  const std::size_t k = pts.size();
  const std::size_t keep = limit == 0 ? k : std::min(k, limit + 1);
  std::vector<std::vector<std::uint32_t>> sources(k);
  std::vector<std::uint32_t> by_dist(k);
  for (std::uint32_t p = 0; p < k; ++p) {
    for (std::uint32_t q = 0; q < k; ++q) by_dist[q] = q;
    std::sort(by_dist.begin(), by_dist.end(), [&](std::uint32_t a, std::uint32_t b) {
      const auto da = manhattan(pts[a], pts[p]), db = manhattan(pts[b], pts[p]);
      return da != db ? da < db : a < b;
    });
    for (std::size_t t = 0; t < keep; ++t)
      if (by_dist[t] != p) sources[p].push_back(by_dist[t]);
  }
  return sources;
}

void push_sink_options(SolutionArena& arena, const Sink& s,
                       std::int32_t sink_id, Point at, const WireModel& wire,
                       std::span<const double> widths, SolutionCurve& into) {
  static constexpr double kDefaultWidth[] = {1.0};
  if (widths.empty()) widths = kDefaultWidth;
  const double len = static_cast<double>(manhattan(at, s.pos));
  for (const double width : widths) {
    const WireModel w = scaled_width(wire, width);
    Solution sol;
    sol.req_time = s.req_time - w.elmore_delay(len, s.load);
    sol.load = s.load + w.wire_cap(len);
    sol.wirelen = len;
    sol.node = arena.make_sink(at, sink_id, width);
    into.push(std::move(sol));
    if (len == 0.0) break;
  }
}

RangeDp::RangeDp(SolutionArena& arena, std::span<const Point> pts,
                 std::vector<std::vector<std::uint32_t>> sources,
                 const WireModel& wire, std::span<const double> widths,
                 const PruneConfig& prune, ThreadPool* pool)
    : arena_(arena), pts_(pts), sources_(std::move(sources)), wire_(wire),
      widths_(widths), prune_(prune), k_(pts.size()), scratch_(pts.size()),
      fork_(arena, pool) {
  for (std::size_t p = 0; p < k_; ++p)
    for (const std::uint32_t q : sources_[p])
      scratch_[p].src_pts.push_back(pts_[q]);
}

void RangeDp::prepare(std::size_t w) {
  w_ = w;
  const std::size_t need = w * (w + 1) / 2 * k_;
  if (cells_.size() < need) cells_.resize(need);
  for (std::size_t c = 0; c < need; ++c) cells_[c].clear();
}

void RangeDp::set_sink(std::size_t t, const Sink& s, std::int32_t sink_id) {
  for (std::size_t p = 0; p < k_; ++p) {
    SolutionCurve& cell = at(t, t, p);
    push_sink_options(arena_, s, sink_id, pts_[p], wire_, widths_, cell);
    cell.prune(prune_);
  }
}

void RangeDp::solve(std::size_t i, std::size_t j) {
  fork_.run(
      k_, prune_.obs,
      [&](std::size_t p, SolutionArena& lane, ObsSink* lane_obs) {
        PruneConfig pc = prune_;
        pc.obs = lane_obs;
        std::vector<MergeJob>& jobs = scratch_[p].jobs;
        jobs.clear();
        for (std::size_t u = i; u < j; ++u)
          jobs.push_back(MergeJob{&at(i, u, p), &at(u + 1, j, p)});
        // Fresh cell: the batch merge already pruned with prune_.
        push_merged_options(lane, jobs, pts_[p], pc, at(i, j, p));
      },
      [&](std::size_t p) -> SolutionCurve& { return at(i, j, p); });
  fork_.run(
      k_, prune_.obs,
      [&](std::size_t p, SolutionArena& lane, ObsSink* lane_obs) {
        PruneConfig pc = prune_;
        pc.obs = lane_obs;
        ItemScratch& sc = scratch_[p];
        sc.srcs.clear();
        for (const std::uint32_t q : sources_[p]) sc.srcs.push_back(&at(i, j, q));
        sc.ext.clear();
        push_extended_options(lane, sc.srcs, sc.src_pts, pts_[p], wire_, pc,
                              sc.ext, widths_);
        sc.stage.clear();
        for (const Solution& s : at(i, j, p)) sc.stage.push(s);
        for (const Solution& s : sc.ext) sc.stage.push(s);
        sc.stage.prune(pc);
      },
      [&](std::size_t p) -> SolutionCurve& { return scratch_[p].stage; });
  for (std::size_t p = 0; p < k_; ++p) std::swap(at(i, j, p), scratch_[p].stage);
}

}  // namespace merlin
