#include "lttree/lttree.h"

#include <limits>
#include <stdexcept>

#include "runtime/guard.h"

namespace merlin {

double FanoutTree::buffer_area(const BufferLibrary& lib) const {
  double a = 0.0;
  for (const FanoutGroup& g : groups)
    if (g.buffer_idx >= 0) a += lib[static_cast<std::size_t>(g.buffer_idx)].area;
  return a;
}

namespace {

// Walks an LTTREE provenance DAG into the explicit group representation.
// Every kBuffer node opens a new group; kSink/kMerge accumulate into the
// current one.  LT-Tree type-I structure guarantees at most one buffer child
// per group.
void collect_group(const SolutionArena& arena, SolNodeId id, FanoutTree& ft,
                   std::size_t group) {
  if (id == kNullSol) return;
  const SolNode& nd = arena.at(id);
  switch (nd.kind) {
    case StepKind::kSink:
      ft.groups[group].sinks.push_back(static_cast<std::uint32_t>(nd.idx));
      return;
    case StepKind::kMerge:
      collect_group(arena, nd.a, ft, group);
      collect_group(arena, nd.b, ft, group);
      return;
    case StepKind::kBuffer: {
      if (ft.groups[group].child != -1)
        throw std::logic_error("LTTREE produced two internal children");
      const auto gid = static_cast<std::int32_t>(ft.groups.size());
      ft.groups[group].child = gid;
      ft.groups.push_back(FanoutGroup{nd.idx, {}, -1});
      collect_group(arena, nd.a, ft, static_cast<std::size_t>(gid));
      return;
    }
    case StepKind::kWire:
      // LTTREE is geometry-free; wires never appear in its provenance.
      throw std::logic_error("unexpected wire step in LTTREE provenance");
  }
}

}  // namespace

LTTreeResult lttree_optimize(const Net& net, const Order& order,
                             const BufferLibrary& lib,
                             const LTTreeConfig& cfg_in,
                             SolutionArena* arena_opt) {
  SolutionArena local_arena;
  SolutionArena& arena = arena_opt ? *arena_opt : local_arena;
  LTTreeConfig cfg = cfg_in;
  if (cfg.prune.obs == nullptr) cfg.prune.obs = cfg.obs;
  obs_add(cfg.obs, Counter::kLttreeRuns);
  TraceSpan trace_span(cfg.obs, SpanName::kLttreeDp, net.fanout());
  guard_point(cfg.guard, FaultSite::kLttreeLevel);
  const std::size_t n = net.fanout();
  if (n == 0) throw std::invalid_argument("lttree_optimize: net has no sinks");
  if (order.size() != n || !Order(order).valid())
    throw std::invalid_argument("lttree_optimize: bad order");
  if (lib.empty()) throw std::invalid_argument("lttree_optimize: empty library");

  const Point origin{0, 0};  // fanout optimization carries no geometry

  // C[j]: non-inferior buffered trees over the j first (most relaxed)
  // sinks of the order, rooted at a buffer.
  std::vector<SolutionCurve> C(n + 1);

  for (std::size_t j = 1; j <= n; ++j) {
    // One DP step per C[j] level, weighted by the j inner positions it scans.
    guard_step(cfg.guard, j);
    // Unbuffered bases: internal child C[j2] plus direct sinks order[j2..j-1].
    SolutionCurve bases;
    double block_load = 0.0;
    double block_rt = std::numeric_limits<double>::infinity();
    SolNodeId block_node = kNullSol;
    for (std::size_t j2 = j; j2-- > 0;) {
      const Sink& s = net.sinks[order[j2]];
      block_load += s.load + cfg.wire_load_per_pin;
      block_rt = std::min(block_rt, s.req_time);
      const SolNodeId leaf =
          arena.make_sink(origin, static_cast<std::int32_t>(order[j2]));
      block_node = block_node != kNullSol
                       ? arena.make_merge(origin, leaf, block_node)
                       : leaf;

      const std::size_t direct = j - j2;  // sinks driven directly
      if (j2 == 0) {
        if (cfg.max_fanout == 0 || direct <= cfg.max_fanout) {
          Solution sol;
          sol.req_time = block_rt;
          sol.load = block_load;
          sol.node = block_node;
          bases.push(std::move(sol));
        }
      } else {
        if (cfg.max_fanout != 0 && direct + 1 > cfg.max_fanout) continue;
        for (const Solution& c : C[j2]) {
          Solution sol;
          sol.req_time = std::min(c.req_time, block_rt);
          sol.load = c.load + cfg.wire_load_per_pin + block_load;
          sol.area = c.area;
          sol.node = arena.make_merge(origin, c.node, block_node);
          bases.push(std::move(sol));
        }
      }
    }
    bases.prune(cfg.prune);
    push_buffered_options(arena, bases, origin, lib, C[j], 1, cfg.obs);
    C[j].prune(cfg.prune);
  }

  // Driver level: the source drives C[j2] plus sinks order[j2..n-1] directly.
  SolutionCurve final_curve;
  {
    double block_load = 0.0;
    double block_rt = std::numeric_limits<double>::infinity();
    SolNodeId block_node = kNullSol;
    for (std::size_t j2 = n + 1; j2-- > 0;) {
      if (j2 <= n - 1) {
        const Sink& s = net.sinks[order[j2]];
        block_load += s.load + cfg.wire_load_per_pin;
        block_rt = std::min(block_rt, s.req_time);
        const SolNodeId leaf =
            arena.make_sink(origin, static_cast<std::int32_t>(order[j2]));
        block_node = block_node != kNullSol
                         ? arena.make_merge(origin, leaf, block_node)
                         : leaf;
      }
      const std::size_t direct = n - std::min(j2, n);
      if (j2 == 0) {
        if (cfg.max_fanout == 0 || direct <= cfg.max_fanout) {
          Solution sol;
          sol.req_time = block_rt;
          sol.load = block_load;
          sol.node = block_node;
          final_curve.push(std::move(sol));
        }
      } else if (j2 <= n && !C[j2].empty()) {
        if (cfg.max_fanout != 0 && direct + 1 > cfg.max_fanout) continue;
        for (const Solution& c : C[j2]) {
          Solution sol;
          sol.req_time =
              block_node != kNullSol ? std::min(c.req_time, block_rt) : c.req_time;
          sol.load = c.load + cfg.wire_load_per_pin + block_load;
          sol.area = c.area;
          sol.node = block_node != kNullSol
                         ? arena.make_merge(origin, c.node, block_node)
                         : c.node;
          final_curve.push(std::move(sol));
        }
      }
    }
  }
  final_curve.prune(cfg.prune);
  if (final_curve.empty())
    throw std::logic_error("lttree_optimize: empty final curve");

  // Choose the structure with the best required time at the driver input.
  const Solution* best = nullptr;
  double best_q = 0.0;
  for (const Solution& s : final_curve) {
    const double q = s.req_time - net.driver.delay.at_nominal(s.load);
    if (best == nullptr || q > best_q) {
      best = &s;
      best_q = q;
    }
  }

  LTTreeResult res;
  res.root_curve = final_curve;
  res.driver_req_time = best_q;
  res.root_load = best->load;
  res.buffer_area = best->area;
  res.tree.groups.push_back(FanoutGroup{-1, {}, -1});
  collect_group(arena, best->node, res.tree, 0);
  obs_add(cfg.obs, Counter::kLttreeBuffersInserted, res.tree.buffer_count());
  return res;
}

}  // namespace merlin
