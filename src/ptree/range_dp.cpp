#include "ptree/range_dp.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

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

namespace {

// Curve buffers recycled from table to table on one thread: a table takes
// its cells and staging curves from here and hands them back, emptied, when
// it dies, so the constructions a worker runs one after another reuse one
// set of buffers instead of allocating every cell anew.  Both hold pruned
// curves (a staging curve receives only a cell's survivors), so one list
// serves both, and solve_chunk's swaps keep every buffer near a cell's size.
std::vector<SolutionCurve>& spare_curves() {
  thread_local std::vector<SolutionCurve> spare;
  return spare;
}

// Grows `curves` to `n` curves, taking spare buffers first.
void take_spare(std::vector<SolutionCurve>& curves, std::size_t n) {
  std::vector<SolutionCurve>& spare = spare_curves();
  while (curves.size() < n) {
    if (spare.empty()) {
      curves.emplace_back();
    } else {
      curves.push_back(std::move(spare.back()));
      spare.pop_back();
    }
  }
}

void give_spare(std::vector<SolutionCurve>& curves) {
  std::vector<SolutionCurve>& spare = spare_curves();
  for (SolutionCurve& c : curves) {
    c.clear();
    spare.push_back(std::move(c));
  }
}

}  // namespace

RangeDp::RangeDp(SolutionArena& arena, std::span<const Point> pts,
                 std::vector<std::vector<std::uint32_t>> sources,
                 const WireModel& wire, std::span<const double> widths,
                 const PruneConfig& prune, ThreadPool* pool)
    : arena_(arena), pts_(pts), sources_(std::move(sources)),
      src_pts_(pts.size()), wire_(wire), widths_(widths), prune_(prune),
      k_(pts.size()), fork_(arena, pool) {
  for (std::size_t p = 0; p < k_; ++p)
    for (const std::uint32_t q : sources_[p]) src_pts_[p].push_back(pts_[q]);
}

RangeDp::~RangeDp() {
  give_spare(cells_);
  give_spare(stage_);
}

std::uint64_t RangeDp::hash(std::span<const std::uint32_t> ids) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ ids.size();
  for (const std::uint32_t id : ids) {
    h ^= id;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
  }
  return h;
}

RangeDp::Entry RangeDp::find(std::span<const std::uint32_t> ids) const {
  if (slots_.empty()) return kMissing;
  const std::uint64_t h = hash(ids);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = h & mask;; s = (s + 1) & mask) {
    if (slots_[s] == 0) return kMissing;
    const Rec& r = recs_[slots_[s] - 1];
    if (r.hash == h && r.key_len == ids.size() &&
        std::equal(ids.begin(), ids.end(), key_pool_.begin() + r.key_off))
      return slots_[s] - 1;
  }
}

void RangeDp::place(Entry e) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = recs_[e].hash & mask;
  while (slots_[s] != 0) s = (s + 1) & mask;
  slots_[s] = e + 1;
}

RangeDp::Entry RangeDp::add(std::span<const std::uint32_t> ids, bool owned) {
  assert(find(ids) == kMissing && "RangeDp: run added twice");
  const auto e = static_cast<Entry>(recs_.size());
  Rec r;
  r.hash = hash(ids);
  r.key_off = static_cast<std::uint32_t>(key_pool_.size());
  r.key_len = static_cast<std::uint32_t>(ids.size());
  r.split_off = static_cast<std::uint32_t>(splits_.size());
  r.cell_off = static_cast<std::uint32_t>(cells_.size());
  recs_.push_back(r);
  key_pool_.insert(key_pool_.end(), ids.begin(), ids.end());
  if (owned) take_spare(cells_, cells_.size() + k_);
  if (2 * recs_.size() > slots_.size()) {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
    for (Entry i = 0; i < recs_.size(); ++i) place(i);
  } else {
    place(e);
  }
  return e;
}

RangeDp::Entry RangeDp::add_terminal(std::uint32_t id,
                                     std::span<const SolutionCurve> base) {
  const Entry e = add(std::span<const std::uint32_t>(&id, 1), true);
  for (std::size_t p = 0; p < k_; ++p) {
    SolutionCurve& c = cell(e, p);
    for (const Solution& s : base[p]) c.push(s);
    c.prune(prune_);
  }
  recs_[e].finished = true;
  return e;
}

RangeDp::Entry RangeDp::add_view(std::uint32_t id,
                                 std::span<const SolutionCurve> row) {
  const Entry e = add(std::span<const std::uint32_t>(&id, 1), false);
  recs_[e].view = row.data();
  recs_[e].finished = true;
  return e;
}

RangeDp::Entry RangeDp::add_run(std::span<const std::uint32_t> ids) {
  const Entry e = add(ids, true);
  for (std::size_t u = 1; u < ids.size(); ++u) {
    splits_.push_back(find(ids.first(u)));
    splits_.push_back(find(ids.subspan(u)));
    assert(splits_.back() != kMissing && splits_[splits_.size() - 2] != kMissing &&
           "RangeDp: run added before its sub-runs");
  }
  return e;
}

std::span<const SolutionCurve> RangeDp::curves(Entry e) const {
  const Rec& r = recs_[e];
  assert(r.finished && "RangeDp: read of an unfinished run");
  return {r.view != nullptr ? r.view : &cells_[r.cell_off], k_};
}

void RangeDp::solve(std::span<const Entry> runs) {
  // Chunks of whole runs, so a fork's lanes, lane sinks and staging curves
  // stay bounded however wide the level is.  Runs of one length read only
  // shorter ones, so chunking changes nothing but the node order.
  const std::size_t per_chunk = std::max<std::size_t>(1, kMaxItems / k_);
  for (std::size_t c = 0; c < runs.size(); c += per_chunk)
    solve_chunk(runs.subspan(c, std::min(per_chunk, runs.size() - c)));
}

void RangeDp::solve_chunk(std::span<const Entry> runs) {
  const std::size_t n = runs.size() * k_;
  // Item (run, p) = runs[item / k], candidate item % k.
  fork_.run(
      n, prune_.obs,
      [&](std::size_t item, SolutionArena& lane, ObsSink* lane_obs) {
        const Entry e = runs[item / k_];
        const std::size_t p = item % k_;
        PruneConfig pc = prune_;
        pc.obs = lane_obs;
        thread_local std::vector<MergeJob> jobs;
        jobs.clear();
        const Entry* split = &splits_[recs_[e].split_off];
        for (std::size_t u = 1; u < recs_[e].key_len; ++u, split += 2)
          jobs.push_back(MergeJob{&curves(split[0])[p], &curves(split[1])[p]});
        // Fresh cell: the batch merge already pruned with prune_.
        push_merged_options(lane, jobs, pts_[p], pc, cell(e, p));
      },
      [&](std::size_t item) -> SolutionCurve& {
        return cell(runs[item / k_], item % k_);
      });
  take_spare(stage_, n);
  fork_.run(
      n, prune_.obs,
      [&](std::size_t item, SolutionArena& lane, ObsSink* lane_obs) {
        const Entry e = runs[item / k_];
        const std::size_t p = item % k_;
        PruneConfig pc = prune_;
        pc.obs = lane_obs;
        thread_local std::vector<const SolutionCurve*> srcs;
        // The merged cell and its extensions, pruned in thread scratch, so
        // the staging curve's buffer holds only the survivors.
        thread_local SolutionCurve cands;
        const SolutionCurve* row = &cells_[recs_[e].cell_off];
        srcs.clear();
        for (const std::uint32_t q : sources_[p]) srcs.push_back(row + q);
        cands.clear();
        for (const Solution& s : row[p]) cands.push(s);
        push_extended_options(lane, srcs, src_pts_[p], pts_[p], wire_, pc,
                              cands, widths_);
        cands.prune(pc);
        SolutionCurve& stage = stage_[item];
        stage.clear();
        for (const Solution& s : cands) stage.push(s);
      },
      [&](std::size_t item) -> SolutionCurve& { return stage_[item]; });
  // Swap, not copy: the cell's merge result is dead, and stage_[item] is
  // cleared before its next use.
  for (std::size_t item = 0; item < n; ++item)
    std::swap(cell(runs[item / k_], item % k_), stage_[item]);
  for (const Entry e : runs) recs_[e].finished = true;
}

}  // namespace merlin
