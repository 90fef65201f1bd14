#include "ptree/ptree.h"

#include <stdexcept>
#include <vector>

#include "runtime/guard.h"

namespace merlin {

namespace {

// Dense (i, j, p) state storage over i <= j ranges.
class StateTable {
 public:
  StateTable(std::size_t n, std::size_t k) : n_(n), k_(k), cells_(n * (n + 1) / 2 * k) {}

  SolutionCurve& at(std::size_t i, std::size_t j, std::size_t p) {
    return cells_[range_index(i, j) * k_ + p];
  }

 private:
  // Index of (i, j), 0 <= i <= j < n, in a triangular layout.
  [[nodiscard]] std::size_t range_index(std::size_t i, std::size_t j) const {
    // Offset of row i = sum_{t<i} (n - t) = i*n - i(i-1)/2.
    return i * n_ - i * (i - 1) / 2 + (j - i);
  }

  std::size_t n_, k_;
  std::vector<SolutionCurve> cells_;
};

}  // namespace

PTreeResult ptree_route(const Net& net, const Order& order,
                        const PTreeConfig& cfg_in, SolutionArena* arena_opt) {
  SolutionArena local_arena;
  SolutionArena& arena = arena_opt ? *arena_opt : local_arena;
  PTreeConfig cfg = cfg_in;
  if (cfg.prune.ref_res == 0.0)
    cfg.prune.ref_res = net.driver.delay.drive_res();
  if (cfg.prune.obs == nullptr) cfg.prune.obs = cfg.obs;
  obs_add(cfg.obs, Counter::kPtreeRuns);
  TraceSpan trace_span(cfg.obs, SpanName::kPtreeDp, net.fanout());
  guard_point(cfg.guard, FaultSite::kPtreeRange);
  const std::size_t n = net.fanout();
  if (n == 0) throw std::invalid_argument("ptree_route: net has no sinks");
  if (order.size() != n || !Order(order).valid())
    throw std::invalid_argument("ptree_route: order is not a permutation of the sinks");

  const std::vector<Point> terms = net.terminals();
  std::vector<Point> pts = candidate_locations(terms, cfg.candidates);
  const std::size_t k = pts.size();
  std::size_t source_p = k;
  for (std::size_t p = 0; p < k; ++p)
    if (pts[p] == net.source) source_p = p;
  if (source_p == k)
    throw std::logic_error("candidate_locations must include the source");

  StateTable table(n, k);

  // Base cases: single sinks reached by a direct wire from each candidate,
  // one option per wire width.
  static constexpr double kDefaultWidth[] = {1.0};
  std::span<const double> widths = cfg.wire_widths.empty()
                                       ? std::span<const double>(kDefaultWidth)
                                       : std::span<const double>(cfg.wire_widths);
  for (std::size_t i = 0; i < n; ++i) {
    const Sink& s = net.sinks[order[i]];
    for (std::size_t p = 0; p < k; ++p) {
      SolutionCurve& cell = table.at(i, i, p);
      const double len = static_cast<double>(manhattan(pts[p], s.pos));
      for (const double width : widths) {
        const WireModel w = scaled_width(net.wire, width);
        Solution sol;
        sol.req_time = s.req_time - w.elmore_delay(len, s.load);
        sol.load = s.load + w.wire_cap(len);
        sol.area = 0.0;
        sol.wirelen = len;
        sol.node =
            arena.make_sink(pts[p], static_cast<std::int32_t>(order[i]), width);
        cell.push(std::move(sol));
        if (len == 0.0) break;  // widths indistinguishable at zero length
      }
      cell.prune(cfg.prune);
    }
  }

  // Ranges by increasing length: merge splits at each candidate, then one
  // wire-extension relaxation across candidates (a single pass suffices:
  // under Elmore, a direct minimum-length wire dominates any same-endpoints
  // multi-hop chain).
  std::vector<MergeJob> jobs;
  std::vector<const SolutionCurve*> srcs(k);
  for (std::size_t len = 2; len <= n; ++len) {
    for (std::size_t i = 0; i + len <= n; ++i) {
      const std::size_t j = i + len - 1;
      // One DP step per (i, j) range, weighted by the candidate count the
      // range sweeps — the unit the step budget is calibrated against.
      guard_step(cfg.guard, k);
      for (std::size_t p = 0; p < k; ++p) {
        SolutionCurve& cell = table.at(i, j, p);
        jobs.clear();
        for (std::size_t u = i; u < j; ++u)
          jobs.push_back(MergeJob{&table.at(i, u, p), &table.at(u + 1, j, p)});
        // Fresh cell: push_merged_options output is already pruned with
        // cfg.prune, so no re-prune is needed.
        push_merged_options(arena, jobs, pts[p], cfg.prune, cell);
      }
      std::vector<SolutionCurve> extended(k);
      for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t p2 = 0; p2 < k; ++p2)
          srcs[p2] = p2 == p ? nullptr : &table.at(i, j, p2);
        push_extended_options(arena, srcs, pts, pts[p], net.wire, cfg.prune,
                              extended[p], widths);
      }
      for (std::size_t p = 0; p < k; ++p) {
        SolutionCurve& cell = table.at(i, j, p);
        for (const Solution& s : extended[p]) cell.push(s);
        cell.prune(cfg.prune);
      }
    }
  }

  PTreeResult result;
  result.root_curve = table.at(0, n - 1, source_p);
  // Pick the solution with the best required time at the driver input.
  const Solution* best = nullptr;
  double best_q = 0.0;
  for (const Solution& s : result.root_curve) {
    const double q = s.req_time - net.driver.delay.at_nominal(s.load);
    if (best == nullptr || q > best_q) {
      best = &s;
      best_q = q;
    }
  }
  if (best == nullptr) throw std::logic_error("ptree_route: empty final curve");
  result.chosen = *best;
  result.tree = build_routing_tree(net, arena, best->node);
  return result;
}

}  // namespace merlin
