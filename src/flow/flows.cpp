#include "flow/flows.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "flow/stitch.h"
#include "lttree/lttree.h"
#include "order/tsp.h"

namespace merlin {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Flow-level observations shared by flows I/II (flow III's engine records
// its own arena figures): the buffer count of the final (evaluator-verified)
// tree, the provenance allocated by the flow, and the arena's high-water
// marks.
void record_flow_obs(ObsSink* obs, const FlowResult& res,
                     const SolutionArena& arena, std::uint64_t alloc_before) {
  obs_add(obs, Counter::kBuffersInserted, res.eval.buffer_count);
  obs_add(obs, Counter::kArenaNodesAllocated,
          arena.stats().nodes_allocated - alloc_before);
  obs_gauge(obs, Gauge::kArenaPeakLiveNodes, arena.stats().peak_nodes);
  obs_gauge(obs, Gauge::kArenaPeakBytes, arena.stats().peak_bytes);
}

// The PTREE routing configuration of flows I and II.
PTreeConfig ptree_config(const FlowConfig& cfg) {
  PTreeConfig pcfg;
  pcfg.candidates = cfg.candidates;
  pcfg.prune = cfg.engine_prune;
  pcfg.obs = cfg.obs;
  pcfg.guard = cfg.guard;
  return pcfg;
}

}  // namespace

Point centroid(const std::vector<Point>& pts) {
  if (pts.empty()) return Point{0, 0};
  std::int64_t sx = 0, sy = 0;
  for (Point p : pts) {
    sx += p.x;
    sy += p.y;
  }
  // 64-bit mean, clamped before narrowing: the mean of in-range coordinates
  // is mathematically in range, but the clamp keeps any future caller with
  // a widened Point type from silently truncating.
  const auto n = static_cast<std::int64_t>(pts.size());
  constexpr std::int64_t lo = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int32_t>::max();
  return Point{static_cast<std::int32_t>(std::clamp(sx / n, lo, hi)),
               static_cast<std::int32_t>(std::clamp(sy / n, lo, hi))};
}

FlowResult run_flow1(const Net& net, const BufferLibrary& lib,
                     const FlowConfig& cfg) {
  const auto t0 = Clock::now();
  // One arena spans the whole flow: LTTREE, every per-group PTREE, and the
  // grafting below must produce inter-linkable handles.
  SolutionArena local_arena;
  SolutionArena& arena = cfg.scratch_arena ? *cfg.scratch_arena : local_arena;
  arena.reset();
  const std::uint64_t alloc0 = arena.stats().nodes_allocated;

  // Phase 1: fanout optimization in the logic domain (required-time order,
  // exactly the paper's Setup I).  As in SIS-era flows, a statistical wire
  // load per pin stands in for the wires the logic domain cannot see: the
  // average per-pin share of a Steiner-tree-length estimate for the net,
  // with the pessimism factor such wireload tables traditionally carried
  // (which is also why sequential flows over-buffer, Table 1's flow-I area).
  LTTreeConfig ltcfg;
  ltcfg.prune = cfg.engine_prune;
  ltcfg.obs = cfg.obs;
  ltcfg.guard = cfg.guard;
  constexpr double kWireloadPessimism = 2.5;
  const double steiner_len_est =
      0.7 * static_cast<double>(net.bbox().half_perimeter()) *
      std::sqrt(static_cast<double>(net.fanout()));
  ltcfg.wire_load_per_pin = kWireloadPessimism * net.wire.cap_per_um *
                            steiner_len_est / static_cast<double>(net.fanout());
  LTTreeResult lt = [&] {
    TraceSpan span(cfg.obs, SpanName::kFlowGrouping);
    return lttree_optimize(net, required_time_order(net), lib, ltcfg, &arena);
  }();
  const auto& groups = lt.tree.groups;

  // Everything from here on is the geometry embedding: buffer placement,
  // per-group PTREE routing, grafting — one routing span to the flow's end.
  TraceSpan routing_span(cfg.obs, SpanName::kFlowRouting, groups.size());

  // Buffer placement: each group's buffer goes to the centroid of all sink
  // positions in its subtree (children were appended after their parents, so
  // a reverse sweep accumulates subtrees bottom-up).
  std::vector<std::vector<Point>> subtree_pts(groups.size());
  std::vector<Point> place(groups.size(), net.source);
  for (std::size_t gi = groups.size(); gi-- > 0;) {
    for (std::uint32_t s : groups[gi].sinks)
      subtree_pts[gi].push_back(net.sinks[s].pos);
    if (groups[gi].child >= 0) {
      const auto c = static_cast<std::size_t>(groups[gi].child);
      subtree_pts[gi].insert(subtree_pts[gi].end(), subtree_pts[c].begin(),
                             subtree_pts[c].end());
    }
    place[gi] = gi == 0 ? net.source : centroid(subtree_pts[gi]);
  }

  // Phase 2: route every group's local net with PTREE (TSP order), deepest
  // group first so each parent knows its child's routed required time.
  struct RoutedGroup {
    SolNodeId node = kNullSol;  // provenance rooted at the group buffer,
                                // original indices, in `arena`
    double req = 0.0;           // required time at the buffer input
    double load = 0.0;          // input cap of the buffer
  };
  std::vector<RoutedGroup> routed(groups.size());
  const PTreeConfig pcfg = ptree_config(cfg);

  for (std::size_t gi = groups.size(); gi-- > 0;) {
    const FanoutGroup& g = groups[gi];
    // Local net: the group's buffer (or the real driver for group 0) drives
    // its direct sinks plus (optionally) the child group's buffer pin.
    Net local;
    local.name = net.name + ".g" + std::to_string(gi);
    local.wire = net.wire;
    local.source = place[gi];
    if (g.buffer_idx >= 0) {
      const Buffer& b = lib[static_cast<std::size_t>(g.buffer_idx)];
      local.driver.name = b.name;
      local.driver.delay = b.delay;
      local.driver.out_slew = b.out_slew;
    } else {
      local.driver = net.driver;
    }
    std::vector<SinkSubstitution> subs;
    for (std::uint32_t s : g.sinks) {
      local.sinks.push_back(net.sinks[s]);
      subs.push_back(SinkSubstitution{static_cast<std::int32_t>(s), kNullSol, {}});
    }
    if (g.child >= 0) {
      const auto c = static_cast<std::size_t>(g.child);
      Sink pseudo;
      pseudo.pos = place[c];
      pseudo.load = routed[c].load;
      pseudo.req_time = routed[c].req;
      local.sinks.push_back(pseudo);
      subs.push_back(SinkSubstitution{-1, routed[c].node, place[c]});
    }
    if (local.sinks.empty())
      throw std::logic_error("flow1: empty fanout group");

    PTreeResult pr = ptree_route(local, tsp_order(local), pcfg, &arena);

    RoutedGroup rg;
    rg.node = rewrite_provenance(arena, pr.chosen.node, subs);
    if (g.buffer_idx >= 0) {
      const Buffer& b = lib[static_cast<std::size_t>(g.buffer_idx)];
      rg.node = arena.make_buffer(place[gi], g.buffer_idx, rg.node);
      rg.req = pr.chosen.req_time - b.delay_ps(pr.chosen.load);
      rg.load = b.input_cap;
    } else {
      rg.req = pr.chosen.req_time;  // the real driver tops group 0
      rg.load = pr.chosen.load;
    }
    routed[gi] = std::move(rg);
  }

  FlowResult res;
  res.tree = build_routing_tree(net, arena, routed[0].node);
  res.eval = evaluate_tree(net, res.tree, lib);
  res.runtime_ms = ms_since(t0);
  record_flow_obs(cfg.obs, res, arena, alloc0);
  return res;
}

FlowResult run_flow2(const Net& net, const BufferLibrary& lib,
                     const FlowConfig& cfg) {
  const auto t0 = Clock::now();
  SolutionArena local_arena;
  SolutionArena& arena = cfg.scratch_arena ? *cfg.scratch_arena : local_arena;
  arena.reset();
  const std::uint64_t alloc0 = arena.stats().nodes_allocated;
  PTreeResult pr = [&] {
    TraceSpan span(cfg.obs, SpanName::kFlowRouting);
    return ptree_route(net, tsp_order(net), ptree_config(cfg), &arena);
  }();

  VanGinnekenConfig vcfg;
  vcfg.prune = cfg.engine_prune;
  vcfg.obs = cfg.obs;
  vcfg.guard = cfg.guard;
  VanGinnekenResult vg = [&] {
    TraceSpan span(cfg.obs, SpanName::kFlowBuffering);
    return vangin_insert(net, pr.tree, lib, vcfg, &arena);
  }();

  FlowResult res;
  res.tree = std::move(vg.tree);
  res.eval = evaluate_tree(net, res.tree, lib);
  res.runtime_ms = ms_since(t0);
  record_flow_obs(cfg.obs, res, arena, alloc0);
  return res;
}

FlowResult run_flow3(const Net& net, const BufferLibrary& lib,
                     const FlowConfig& cfg) {
  const auto t0 = Clock::now();
  MerlinConfig mcfg = cfg.merlin;
  mcfg.bubble.candidates = cfg.candidates;
  if (mcfg.scratch_arena == nullptr) mcfg.scratch_arena = cfg.scratch_arena;
  if (mcfg.bubble.obs == nullptr) mcfg.bubble.obs = cfg.obs;
  if (mcfg.bubble.guard == nullptr) mcfg.bubble.guard = cfg.guard;
  if (mcfg.bubble.pool == nullptr) mcfg.bubble.pool = cfg.pool;
  MerlinResult mr = [&] {
    TraceSpan span(cfg.obs, SpanName::kFlowSearch);
    return merlin_optimize(net, lib, tsp_order(net), mcfg);
  }();

  FlowResult res;
  res.tree = std::move(mr.best.tree);
  res.eval = evaluate_tree(net, res.tree, lib);
  res.runtime_ms = ms_since(t0);
  res.merlin_loops = mr.iterations;
  res.cache_hits = mr.cache_hits;
  res.cache_misses = mr.cache_misses;
  res.chosen = mr.best.chosen;
  // Arena gauges are recorded by bubble_construct itself (it sees the arena
  // whether scratch or private); the flow only adds the final buffer count.
  obs_add(cfg.obs, Counter::kBuffersInserted, res.eval.buffer_count);
  return res;
}

FlowConfig scaled_flow_config(std::size_t n) {
  FlowConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  if (n <= 12) {
    cfg.candidates.budget_factor = 2.5;
    cfg.candidates.max_candidates = 28;
    cfg.merlin.bubble.alpha = 4;
    cfg.merlin.bubble.inner_prune.max_solutions = 5;
    cfg.merlin.bubble.group_prune.max_solutions = 7;
    cfg.merlin.bubble.buffer_stride = 2;
    cfg.merlin.max_iterations = 6;
  } else if (n <= 24) {
    cfg.candidates.budget_factor = 2.0;
    cfg.candidates.max_candidates = 34;
    cfg.merlin.bubble.alpha = 4;
    cfg.merlin.bubble.inner_prune.max_solutions = 4;
    cfg.merlin.bubble.group_prune.max_solutions = 6;
    cfg.merlin.bubble.buffer_stride = 3;
    cfg.merlin.bubble.extension_neighbors = 10;
    cfg.merlin.max_iterations = 4;
  } else if (n <= 40) {
    cfg.candidates.budget_factor = 1.2;
    cfg.candidates.max_candidates = 40;
    cfg.merlin.bubble.alpha = 3;
    cfg.merlin.bubble.inner_prune.max_solutions = 3;
    cfg.merlin.bubble.group_prune.max_solutions = 5;
    cfg.merlin.bubble.buffer_stride = 3;
    cfg.merlin.bubble.extension_neighbors = 8;
    cfg.merlin.max_iterations = 3;
  } else if (n <= 56) {
    cfg.candidates.budget_factor = 1.0;
    cfg.candidates.max_candidates = 24;
    cfg.merlin.bubble.alpha = 3;
    cfg.merlin.bubble.inner_prune.max_solutions = 3;
    cfg.merlin.bubble.group_prune.max_solutions = 3;
    cfg.merlin.bubble.buffer_stride = 5;
    cfg.merlin.bubble.extension_neighbors = 5;
    cfg.merlin.max_iterations = 2;
  } else {
    cfg.candidates.budget_factor = 1.0;
    cfg.candidates.max_candidates = 20;
    cfg.merlin.bubble.alpha = 3;
    cfg.merlin.bubble.inner_prune.max_solutions = 2;
    cfg.merlin.bubble.group_prune.max_solutions = 3;
    cfg.merlin.bubble.buffer_stride = 6;
    cfg.merlin.bubble.extension_neighbors = 4;
    cfg.merlin.max_iterations = 2;
  }
  cfg.engine_prune.max_solutions = 8;
  return cfg;
}

FlowConfig tightened_flow_config(const FlowConfig& in) {
  FlowConfig cfg = in;  // pointer fields (arena/obs/guard) carried over
  const auto halve = [](std::size_t v) { return std::max<std::size_t>(1, v / 2); };
  if (cfg.candidates.max_candidates != 0)
    cfg.candidates.max_candidates =
        std::max<std::size_t>(8, cfg.candidates.max_candidates / 2);
  else
    cfg.candidates.max_candidates = 16;
  cfg.candidates.budget_factor = std::min(cfg.candidates.budget_factor, 1.0);
  cfg.engine_prune.max_solutions = halve(cfg.engine_prune.max_solutions);
  cfg.merlin.bubble.inner_prune.max_solutions =
      halve(cfg.merlin.bubble.inner_prune.max_solutions);
  cfg.merlin.bubble.group_prune.max_solutions =
      halve(cfg.merlin.bubble.group_prune.max_solutions);
  cfg.merlin.bubble.buffer_stride =
      std::max<std::size_t>(cfg.merlin.bubble.buffer_stride * 2, 4);
  cfg.merlin.bubble.alpha = std::max<std::size_t>(2, cfg.merlin.bubble.alpha - 1);
  cfg.merlin.bubble.extension_neighbors =
      cfg.merlin.bubble.extension_neighbors == 0
          ? 4
          : std::max<std::size_t>(2, cfg.merlin.bubble.extension_neighbors / 2);
  cfg.merlin.max_iterations = 1;
  return cfg;
}

}  // namespace merlin
