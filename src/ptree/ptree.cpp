#include "ptree/ptree.h"

#include <stdexcept>
#include <vector>

#include "ptree/range_dp.h"
#include "runtime/guard.h"

namespace merlin {

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

  const CandidateSet cands = route_candidates(net, cfg.candidates);
  const std::size_t k = cands.pts.size();
  RangeDp dp(arena, cands.pts, extension_sources(cands.pts, 0), net.wire,
             cfg.wire_widths, cfg.prune);
  // Terminal t of the one sequence is sink order[t]; its id is the sink index.
  const std::vector<std::uint32_t> ids(order.begin(), order.end());
  std::vector<SolutionCurve> base(k);
  for (const std::uint32_t sid : ids) {
    for (std::size_t p = 0; p < k; ++p) {
      base[p].clear();
      push_sink_options(arena, net.sinks[sid], static_cast<std::int32_t>(sid),
                        cands.pts[p], net.wire, cfg.wire_widths, base[p]);
    }
    dp.add_terminal(sid, base);
  }
  std::vector<RangeDp::Entry> level;
  for (std::size_t len = 2; len <= n; ++len) {
    level.clear();
    for (std::size_t i = 0; i + len <= n; ++i) {
      // One DP step per (i, j) range, weighted by the candidate count the
      // range sweeps — the unit the step budget is calibrated against.
      guard_step(cfg.guard, k);
      level.push_back(dp.add_run(std::span(ids).subspan(i, len)));
    }
    dp.solve(level);
  }

  PTreeResult result;
  result.root_curve = dp.curves(dp.find(ids))[cands.source_p];
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
