#include "vangin/vangin.h"

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "runtime/guard.h"

namespace merlin {

namespace {

// A point at walk-distance `d` from `from` along the L-shaped path
// from -> corner -> to, with corner = (to.x, from.y).
Point point_along(Point from, Point to, std::int64_t d) {
  const std::int64_t horiz = std::abs(std::int64_t{to.x} - from.x);
  if (d <= horiz) {
    const std::int32_t dir = to.x >= from.x ? 1 : -1;
    return Point{static_cast<std::int32_t>(from.x + dir * d), from.y};
  }
  const std::int64_t rest = d - horiz;
  const std::int32_t dir = to.y >= from.y ? 1 : -1;
  return Point{to.x, static_cast<std::int32_t>(from.y + dir * rest)};
}

// Pushes both the unbuffered originals and all buffered variants of `cur`
// at `at`, returning the pruned union.
SolutionCurve with_buffer_options(SolutionArena& arena, const SolutionCurve& cur,
                                  Point at, const BufferLibrary& lib,
                                  const PruneConfig& prune) {
  SolutionCurve out;
  for (const Solution& s : cur) out.push(s);
  push_buffered_options(arena, cur, at, lib, out, 1, prune.obs);
  out.prune(prune);
  return out;
}

}  // namespace

VanGinnekenResult vangin_insert(const Net& net, const RoutingTree& unbuffered,
                                const BufferLibrary& lib,
                                const VanGinnekenConfig& cfg_in,
                                SolutionArena* arena_opt) {
  SolutionArena local_arena;
  SolutionArena& arena = arena_opt ? *arena_opt : local_arena;
  VanGinnekenConfig cfg = cfg_in;
  if (cfg.prune.ref_res == 0.0)
    cfg.prune.ref_res = net.driver.delay.drive_res();
  if (cfg.prune.obs == nullptr) cfg.prune.obs = cfg.obs;
  obs_add(cfg.obs, Counter::kVanginRuns);
  TraceSpan trace_span(cfg.obs, SpanName::kVanginDp, unbuffered.size());
  guard_point(cfg.guard, FaultSite::kVanginNode);
  if (unbuffered.empty()) throw std::invalid_argument("vangin_insert: empty tree");
  const auto& nodes = unbuffered.nodes();

  std::vector<SolutionCurve> curve(nodes.size());

  // Children precede parents in reverse index order.
  for (std::size_t ri = nodes.size(); ri-- > 0;) {
    guard_step(cfg.guard);  // one DP step per visited tree node
    const TreeNode& n = nodes[ri];
    switch (n.kind) {
      case NodeKind::kBuffer:
        throw std::invalid_argument("vangin_insert: input tree already has buffers");
      case NodeKind::kSink: {
        const Sink& s = net.sinks[static_cast<std::size_t>(n.idx)];
        Solution sol;
        sol.req_time = s.req_time;
        sol.load = s.load;
        sol.node = arena.make_sink(s.pos, n.idx);
        curve[ri].push(std::move(sol));
        break;
      }
      case NodeKind::kSteiner:
      case NodeKind::kSource: {
        // Process each child edge bottom-up with buffer stations, then merge.
        SolutionCurve acc;
        bool first = true;
        for (std::uint32_t c : n.children) {
          // Buffer option at the child end (covers "buffer at internal node").
          SolutionCurve cur =
              with_buffer_options(arena, curve[c], nodes[c].at, lib, cfg.prune);
          const std::int64_t len = manhattan(nodes[c].at, n.at);
          if (len > 0) {
            const auto nseg = static_cast<std::int64_t>(std::max<double>(
                1.0, std::ceil(static_cast<double>(len) / cfg.max_segment_um)));
            Point prev = nodes[c].at;
            static constexpr double kDefaultWidth[] = {1.0};
            const std::span<const double> widths =
                cfg.wire_widths.empty() ? std::span<const double>(kDefaultWidth)
                                        : std::span<const double>(cfg.wire_widths);
            for (std::int64_t i = 1; i <= nseg; ++i) {
              const Point st = i == nseg
                                   ? n.at
                                   : point_along(nodes[c].at, n.at, len * i / nseg);
              SolutionCurve stepped;
              const SolutionCurve* cur_ptr = &cur;
              const Point prev_pt = prev;
              push_extended_options(arena,
                                    std::span<const SolutionCurve* const>(&cur_ptr, 1),
                                    std::span<const Point>(&prev_pt, 1), st,
                                    net.wire, cfg.prune, stepped, widths);
              // `stepped` was empty: the batch extension already pruned it.
              cur = with_buffer_options(arena, stepped, st, lib, cfg.prune);
              prev = st;
            }
          }
          if (first) {
            acc = std::move(cur);
            first = false;
          } else {
            acc = merge_curves(arena, acc, cur, n.at, cfg.prune);
          }
        }
        curve[ri] = std::move(acc);
        break;
      }
    }
  }

  VanGinnekenResult res;
  res.root_curve = curve[0];
  const Solution* best = nullptr;
  double best_q = 0.0;
  for (const Solution& s : res.root_curve) {
    const double q = s.req_time - net.driver.delay.at_nominal(s.load);
    if (best == nullptr || q > best_q) {
      best = &s;
      best_q = q;
    }
  }
  if (best == nullptr) throw std::logic_error("vangin_insert: empty final curve");
  res.chosen = *best;
  res.tree = build_routing_tree(net, arena, best->node);
  obs_add(cfg.obs, Counter::kVanginBuffersInserted, res.tree.buffer_count());
  return res;
}

}  // namespace merlin
