#include "core/bubble.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/shard.h"
#include "core/gamma.h"
#include "core/grouping.h"
#include "curve/fork.h"
#include "ptree/range_dp.h"
#include "runtime/guard.h"

namespace merlin {

namespace {

// One element of a layer's terminal sequence: either a direct sink or one of
// the layer's inner sub-groups (one in the classic Ca_Tree, up to two in the
// relaxed structure).
struct Terminal {
  bool is_child = false;
  std::uint8_t child_slot = 0;  ///< which inner group, when is_child
  /// Identity of the terminal's base curves within one construction: the
  /// original sink index for a direct sink, n + the Gamma state index of
  /// (l, e, r) for a child (see child_terminal_id).  The run table keys on it.
  std::uint32_t id = 0;
  std::size_t pos = 0;      ///< order position (kNoPos for the child/displaced)
};

std::uint32_t child_terminal_id(const GroupSpan& g, std::size_t n) {
  return static_cast<std::uint32_t>(
      n + ((g.len - 1) * 4 + static_cast<std::size_t>(g.e)) * n + g.right);
}

inline constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

// One (L, E, R) group that layer L computes (a cache hit is not planned):
// its cache key and its layer calls, in call order, as calls[begin, end).
struct GroupPlan {
  GroupSpan span;
  CacheKey key{};
  std::size_t begin = 0, end = 0;
};

// What the serial plan pass of one layer leaves for its fork phases.
// Reused from layer to layer, so curve capacity warms up once.
struct LayerPlan {
  std::vector<GroupPlan> groups;
  std::vector<RangeDp::Entry> calls;  ///< each call's whole-sequence run
  std::vector<std::vector<RangeDp::Entry>> levels;  ///< new runs, by length
  std::vector<SolutionCurve> acc;     ///< anchors A(L,E,R,p), group-major
  std::vector<SolutionCurve> x;       ///< child curves X(L,E,R,p), ditto
  std::vector<std::uint64_t> entering;  ///< points entering acc's last prune
  std::vector<const SolutionCurve*> srcs;  ///< &acc[i]: the child phase input
};

struct Workspace {
  const Net& net;
  const BufferLibrary& lib;
  const BubbleConfig& cfg;
  const Order& order;
  SolutionArena& arena;
  std::vector<Point> pts;
  std::size_t k = 0;
  std::size_t source_p = 0;
  std::size_t n = 0;
  GammaTable gamma;
  std::size_t layer_calls = 0;
  /// Every sink wired from every candidate (sink-major, unpruned): built
  /// once per construction, read by the length-1 groups and, pruned, as
  /// the run table's sink terminals.
  std::vector<SolutionCurve> sink_base;
  // The construction's run table: within-layer wire extensions start only
  // from each candidate's extension_neighbors nearest.
  RangeDp dp;
  LayerPlan plan;
  std::vector<std::uint32_t> ids;  // one layer call's terminal ids
  CandidateFork fork;  // root options and child curves, per (group, p)

  Workspace(const Net& net_, const BufferLibrary& lib_, const BubbleConfig& cfg_,
            const Order& order_, SolutionArena& arena_, CandidateSet cands)
      : net(net_), lib(lib_), cfg(cfg_), order(order_), arena(arena_),
        pts(std::move(cands.pts)), k(pts.size()), source_p(cands.source_p),
        n(net_.fanout()), gamma(net_.fanout(), pts.size()),
        dp(arena_, pts, extension_sources(pts, cfg_.extension_neighbors),
           net_.wire, cfg_.wire_widths, cfg_.inner_prune, cfg_.pool),
        fork(arena_, cfg_.pool) {}

  /// Phase boundary: the arena soft cap and the deadline.
  void boundary() const {
    guard_phase(cfg.guard, static_cast<std::uint32_t>(
                               std::min<std::size_t>(arena.size(), kNullSol)));
  }
};

// Plans one *PTREE layer call (paper section 3.2.3) over the ordered
// terminals `seq`, where a terminal may be an already-built sub-group
// represented by its child curves X (one Gamma row, read in place).  Charges
// the call to the guard and interns every terminal run of two or more
// terminals into the run table: a run already there (from an earlier layer,
// or from an earlier call of this layer) is a reuse hit, a new one joins its
// length's level, solved after the plan.  Records the call's
// whole-sequence run, whose curves are the routings rooted at every
// candidate location.
void plan_layer_call(Workspace& ws, const std::vector<Terminal>& seq,
                     std::span<const std::span<const SolutionCurve>> children) {
  const std::size_t w = seq.size();
  ++ws.layer_calls;
  // One DP step per layer call, weighted by its (terminals x candidates)
  // state count — the dominant cost unit of the whole construction.
  guard_step(ws.cfg.guard, w * ws.k);
  guard_point(ws.cfg.guard, FaultSite::kBubbleLayer);

  RangeDp& dp = ws.dp;
  std::vector<std::uint32_t>& ids = ws.ids;
  ids.resize(w);
  RangeDp::Entry whole = RangeDp::kMissing;
  for (std::size_t t = 0; t < w; ++t) {
    ids[t] = seq[t].id;
    whole = dp.find(std::span(ids).subspan(t, 1));
    if (whole == RangeDp::kMissing) {  // sinks are added up front
      assert(seq[t].is_child);
      whole = dp.add_view(ids[t], children[seq[t].child_slot]);
    }
  }
  std::vector<std::vector<RangeDp::Entry>>& levels = ws.plan.levels;
  if (levels.size() <= w) levels.resize(w + 1);
  for (std::size_t len = 2; len <= w; ++len) {
    for (std::size_t i = 0; i + len <= w; ++i) {
      const std::span<const std::uint32_t> run(ids.data() + i, len);
      whole = dp.find(run);
      if (whole != RangeDp::kMissing) {
        obs_add(ws.cfg.obs, Counter::kRangeReuseHits);
        continue;
      }
      obs_add(ws.cfg.obs, Counter::kRangeReuseMisses);
      whole = dp.add_run(run);
      levels[len].push_back(whole);
    }
  }
  ws.plan.calls.push_back(whole);
}

// The child phase: for every planned group g and destination p, the pruned
// union over anchors pc of "A(g, pc) + wire pc->p" into x[g*k + p].
void child_phase(Workspace& ws) {
  LayerPlan& plan = ws.plan;
  const std::size_t k = ws.k;
  const std::size_t items = plan.groups.size() * k;
  if (plan.x.size() < items) plan.x.resize(items);
  plan.srcs.resize(items);
  for (std::size_t i = 0; i < items; ++i) plan.srcs[i] = &plan.acc[i];
  // Child curves are long-lived inputs to later layers; give them the
  // (richer) group budget rather than the transient inner one.
  ws.fork.run(
      items, ws.cfg.group_prune.obs,
      [&](std::size_t item, SolutionArena& lane, ObsSink* lane_obs) {
        PruneConfig pc = ws.cfg.group_prune;
        pc.obs = lane_obs;
        const std::span<const SolutionCurve* const> srcs(
            &plan.srcs[item - item % k], k);
        plan.x[item].clear();
        push_extended_options(lane, srcs, ws.pts, ws.pts[item % k], ws.net.wire,
                              pc, plan.x[item], ws.cfg.wire_widths);
      },
      [&](std::size_t item) -> SolutionCurve& { return plan.x[item]; });
  ws.boundary();
}

// Writes the planned groups' curves into Gamma (and, below the top layer,
// into the cache), serially in (E, R) order: A for the whole net, X else.
void write_layer(Workspace& ws, std::size_t L, CacheSession* cache) {
  LayerPlan& plan = ws.plan;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const GroupSpan& G = plan.groups[g].span;
    std::vector<SolutionCurve>& from = L == ws.n ? plan.acc : plan.x;
    const std::span<SolutionCurve> curves(&from[g * ws.k], ws.k);
    if (cache != nullptr && L < ws.n)
      cache->insert(plan.groups[g].key, curves, ws.arena);
    for (std::size_t p = 0; p < ws.k; ++p)
      ws.gamma.at(L, G.e, G.right, p) = std::move(curves[p]);
  }
}

// The root-options phase: item (g, p) pours every layer call of group g,
// in call order, into the anchor accumulation A(g, p) — the buffered
// variants always, the unbuffered originals when `keep_unbuffered` — and
// prunes it once at the end with the group budget.  Then records each
// group's layer statistics in (E, R) order.
void root_phase(Workspace& ws, std::size_t L, bool keep_unbuffered) {
  LayerPlan& plan = ws.plan;
  const std::size_t k = ws.k;
  const std::size_t items = plan.groups.size() * k;
  if (plan.acc.size() < items) plan.acc.resize(items);
  plan.entering.resize(items);
  ws.fork.run(
      items, ws.cfg.obs,
      [&](std::size_t item, SolutionArena& lane, ObsSink* lane_obs) {
        const GroupPlan& g = plan.groups[item / k];
        const std::size_t p = item % k;
        PruneConfig pc = ws.cfg.group_prune;
        pc.obs = lane_obs;
        SolutionCurve& into = plan.acc[item];
        into.clear();
        for (std::size_t c = g.begin; c < g.end; ++c) {
          const SolutionCurve& routed = ws.dp.curves(plan.calls[c])[p];
          if (routed.empty()) continue;
          if (keep_unbuffered)
            for (const Solution& s : routed) into.push(s);
          push_buffered_options(lane, routed, ws.pts[p], ws.lib, into,
                                ws.cfg.buffer_stride, lane_obs);
          // Amortized pruning keeps accumulation cells from ballooning while
          // many (l, e, r) child choices pour into the same (L, E, R) group,
          // and the lane drops the buffer nodes of the points it discarded.
          if (into.size() >
              4 * std::max<std::size_t>(ws.cfg.group_prune.max_solutions, 8)) {
            into.prune(pc);
            into.trim_lane(lane);
          }
        }
        plan.entering[item] = into.size();
        into.prune(pc);
      },
      [&](std::size_t item) -> SolutionCurve& { return plan.acc[item]; });
  ws.boundary();
  if (ws.cfg.obs == nullptr) return;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    std::uint64_t entering = 0, kept = 0;
    for (std::size_t i = g * k; i < (g + 1) * k; ++i) {
      entering += plan.entering[i];
      kept += plan.acc[i].size();
    }
    obs_layer(ws.cfg.obs, L, entering, entering - kept, kept);
  }
}

// Builds the layer terminal sequence for parent `Omega` using the inner
// groups `omegas` (sorted left-to-right, spans pairwise disjoint), or
// returns false when any pairing is incompatible (Figure 12 / line 15).
bool build_sequence(const Workspace& ws, const GroupSpan& Omega,
                    std::span<const GroupSpan> omegas,
                    std::vector<Terminal>& seq) {
  for (const GroupSpan& omega : omegas)
    for (std::size_t pos : omega.member_positions())
      if (!Omega.contains_position(pos)) return false;  // g - G != empty

  seq.clear();
  std::vector<bool> emitted(omegas.size(), false);
  auto emit_child_block = [&](std::size_t slot) {
    // Bubbled-out hole sinks are already displaced by one position, so they
    // carry kNoPos: the within-layer swap enumeration must not move them
    // again (every sink may move at most once inside N(Pi)).
    const GroupSpan& omega = omegas[slot];
    if (const auto lh = omega.left_hole(); lh && Omega.contains_position(*lh))
      seq.push_back(Terminal{false, 0, ws.order[*lh], kNoPos});
    seq.push_back(Terminal{true, static_cast<std::uint8_t>(slot),
                           child_terminal_id(omega, ws.n), kNoPos});
    if (const auto rh = omega.right_hole(); rh && Omega.contains_position(*rh))
      seq.push_back(Terminal{false, 0, ws.order[*rh], kNoPos});
    emitted[slot] = true;
  };
  for (std::size_t pos : Omega.member_positions()) {
    // Positions inside some child's span are either that child's bubbled
    // holes (emitted with the child block) or members consumed by it.
    std::size_t inside = omegas.size();
    for (std::size_t i = 0; i < omegas.size(); ++i)
      if (pos >= omegas[i].left() && pos <= omegas[i].right) inside = i;
    if (inside < omegas.size()) {
      if (!emitted[inside]) emit_child_block(inside);
    } else {
      seq.push_back(Terminal{false, 0, ws.order[pos], pos});
    }
  }
  // A child's span always contains at least one Omega member, so every
  // child has been emitted by now.
  for (bool e : emitted)
    if (!e) return false;
  return true;
}

// The paper's *PTREE perturbs the order *within* a layer as well (the e',e''
// grouping codes of its S_b recursion): adjacent direct sinks may swap.  We
// realize that by enumerating, for one base sequence, every set of
// non-overlapping swaps of sequence-adjacent sink terminals whose order
// positions differ by exactly one (so each swap is a legal neighborhood move
// and displaced/bubbled sinks never move twice).  |variants| <= F(alpha),
// a small constant.
void enumerate_layer_sequences(const std::vector<Terminal>& base,
                               std::size_t from,
                               std::vector<Terminal>& cur,
                               std::vector<std::vector<Terminal>>& out) {
  if (from + 1 >= base.size()) {
    out.push_back(cur);
    return;
  }
  const Terminal& a = base[from];
  const Terminal& b = base[from + 1];
  const bool swappable =
      !a.is_child && !b.is_child && a.pos != kNoPos && b.pos != kNoPos &&
      (a.pos + 1 == b.pos || b.pos + 1 == a.pos);
  // No swap at `from`.
  enumerate_layer_sequences(base, from + 1, cur, out);
  if (swappable) {
    std::swap(cur[from], cur[from + 1]);
    enumerate_layer_sequences(base, from + 2, cur, out);
    std::swap(cur[from], cur[from + 1]);
  }
}

}  // namespace

void mix_bubble_context(SigHasher& h, const BufferLibrary& lib,
                        const WireModel& wire, std::span<const Point> pts,
                        const BubbleConfig& cfg) {
  h.mix(lib.size());
  for (const Buffer& b : lib) {
    h.mix_double(b.input_cap);
    h.mix_double(b.area);
    h.mix_double(b.delay.p0);
    h.mix_double(b.delay.p1);
    h.mix_double(b.delay.p2);
    h.mix_double(b.delay.p3);
  }
  h.mix_double(wire.res_per_um);
  h.mix_double(wire.cap_per_um);
  if (cfg.wire_widths.empty()) h.mix_double(1.0);  // the default 1x width
  for (const double w : cfg.wire_widths) h.mix_double(w);
  h.mix(pts.size());
  for (const Point& pt : pts) {
    h.mix_i32(pt.x);
    h.mix_i32(pt.y);
  }
  h.mix(cfg.alpha);
  for (const PruneConfig* pc : {&cfg.inner_prune, &cfg.group_prune}) {
    h.mix_double(pc->load_quantum);
    h.mix_double(pc->area_quantum);
    h.mix(pc->max_solutions);
    h.mix_double(pc->ref_res);
  }
  h.mix_bool(cfg.allow_unbuffered_groups);
  h.mix(cfg.buffer_stride);
  h.mix(cfg.extension_neighbors);
  h.mix_bool(cfg.enable_bubbling);
  h.mix(std::min<std::size_t>(cfg.max_internal_children, 2));
}

BubbleResult bubble_construct(const Net& net, const BufferLibrary& lib,
                              const Order& order, const BubbleConfig& cfg_in,
                              CacheSession* cache, SolutionArena* arena_opt) {
  SolutionArena local_arena;
  SolutionArena& arena = arena_opt ? *arena_opt : local_arena;
  // Default the cap keep-point scalarization to a mid-library drive strength
  // (see PruneConfig::ref_res) so tight caps never squeeze out the solutions
  // an upstream driver would actually pick.
  BubbleConfig cfg = cfg_in;
  if (!lib.empty()) {
    const double mid = lib[lib.size() / 2].delay.drive_res();
    if (cfg.inner_prune.ref_res == 0.0) cfg.inner_prune.ref_res = mid;
    if (cfg.group_prune.ref_res == 0.0) cfg.group_prune.ref_res = mid;
  }
  if (cfg.inner_prune.obs == nullptr) cfg.inner_prune.obs = cfg.obs;
  if (cfg.group_prune.obs == nullptr) cfg.group_prune.obs = cfg.obs;
  obs_add(cfg.obs, Counter::kBubbleRuns);
  TraceSpan trace_span(cfg.obs, SpanName::kBubbleConstruct, net.fanout());
  const std::uint64_t arena_alloc_before = arena.stats().nodes_allocated;
  const std::size_t n = net.fanout();
  if (n == 0) throw std::invalid_argument("bubble_construct: net has no sinks");
  if (order.size() != n || !Order(order).valid())
    throw std::invalid_argument("bubble_construct: bad order");
  if (lib.empty()) throw std::invalid_argument("bubble_construct: empty library");
  if (cfg.alpha < 2) throw std::invalid_argument("bubble_construct: alpha must be >= 2");

  Workspace ws(net, lib, cfg, order, arena, route_candidates(net, cfg.candidates));
  const std::size_t k = ws.k;

  // Context signature for cache keys (cache/signature.h): mixed once per
  // run (mix_bubble_context); per-group keys fork from this digest.
  CacheKey ctx{};
  if (cache != nullptr) {
    SigHasher h;
    mix_bubble_context(h, lib, net.wire, ws.pts, cfg);
    ctx = h.digest();
  }

  const auto chis = [&](std::size_t len) {
    std::vector<Chi> cs{Chi::kChi0};
    if (cfg.enable_bubbling && len >= 1) {
      cs.push_back(Chi::kChi1);
      cs.push_back(Chi::kChi2);
      if (len >= 2) cs.push_back(Chi::kChi3);
    }
    return cs;
  };

  // Every sink's direct-wire options at every candidate, once.  The run
  // table's sink terminals are their inner-pruned copies.
  ws.sink_base.resize(n * k);
  for (std::uint32_t sid = 0; sid < n; ++sid) {
    const std::span<SolutionCurve> base(&ws.sink_base[sid * k], k);
    for (std::size_t p = 0; p < k; ++p)
      push_sink_options(arena, net.sinks[sid], static_cast<std::int32_t>(sid),
                        ws.pts[p], net.wire, cfg.wire_widths, base[p]);
    if (n > 1) ws.dp.add_terminal(sid, base);
  }

  // INITIALIZATION (Figure 9 lines 1-4): length-1 groups.  Single-sink
  // structures may always carry a buffer (they are leaves, not internal
  // nodes, so allow_unbuffered_groups does not apply).
  LayerPlan& plan = ws.plan;
  ws.gamma.open_layer(1);
  plan.groups.clear();
  for (Chi e : chis(1))
    for (std::size_t r = 0; r < n; ++r)
      if (const GroupSpan span{1, e, r}; span.valid(n))
        plan.groups.push_back(GroupPlan{span});
  plan.acc.resize(std::max(plan.acc.size(), plan.groups.size() * k));
  ws.fork.run(
      plan.groups.size() * k, cfg.obs,
      [&](std::size_t item, SolutionArena& lane, ObsSink* lane_obs) {
        const std::size_t p = item % k;
        const std::uint32_t sid =
            order[plan.groups[item / k].span.member_positions().front()];
        const SolutionCurve& base = ws.sink_base[sid * k + p];
        SolutionCurve& anchor = plan.acc[item];
        anchor.clear();
        for (const Solution& sol : base) anchor.push(sol);
        push_buffered_options(lane, base, ws.pts[p], lib, anchor,
                              cfg.buffer_stride, lane_obs);
        PruneConfig pc = cfg.group_prune;
        pc.obs = lane_obs;
        anchor.prune(pc);
      },
      [&](std::size_t item) -> SolutionCurve& { return plan.acc[item]; });
  ws.boundary();
  if (n > 1) child_phase(ws);
  write_layer(ws, 1, nullptr);
  ws.gamma.close_layer();

  // CONSTRUCTION (Figure 9 lines 5-20): groups by increasing sink count.
  // Each layer is planned serially, in the order the groups, their child
  // choices and swap variants are enumerated, then solved in fork phases
  // over the whole layer: the new runs level by level, every group's root
  // options, every group's child curves.  Each phase's items read only
  // curves finished before the phase and write only their own cell.
  std::vector<Terminal> seq;
  for (std::size_t L = 2; L <= n; ++L) {
    TraceSpan layer_span(cfg.obs, SpanName::kBubbleLayer, L);
    ws.gamma.open_layer(L);
    plan.groups.clear();
    plan.calls.clear();
    for (std::vector<RangeDp::Entry>& level : plan.levels) level.clear();
    for (Chi E : chis(L)) {
      for (std::size_t R = 0; R < n; ++R) {
        const GroupSpan Omega{L, E, R};
        if (!Omega.valid(n)) continue;
        // The whole-net group must cover every sink from a chi_0 span.
        if (L == n && (E != Chi::kChi0 || R != n - 1)) continue;

        // Group-state boundary: check the arena soft cap here (the live-node
        // count at this point is a pure function of net + config, so the cap
        // trips deterministically) and offer the group fault site.
        guard_arena(cfg.guard, static_cast<std::uint32_t>(
                                   std::min<std::size_t>(arena.size(), kNullSol)));
        guard_point(cfg.guard, FaultSite::kBubbleGroup);

        // Section III.4 sub-problem reuse: within the run context hashed
        // above, a group's stored curves are a function of (structure,
        // ordered member sinks) only — so runs over overlapping
        // neighborhoods, other nets with matching structure, and published
        // entries from a shared SubproblemCache can copy instead of
        // recompute.  Hits materialize the arena-independent entry into
        // this run's arena (cache/store.h).
        CacheKey cache_key{};
        if (cache != nullptr && L < n) {
          SigHasher h(ctx);
          h.mix(static_cast<std::uint64_t>(E));
          h.mix(L);
          for (const std::size_t mpos : Omega.member_positions()) {
            const std::uint32_t sid = order[mpos];
            const Sink& s = net.sinks[sid];
            h.mix(sid);
            h.mix_i32(s.pos.x);
            h.mix_i32(s.pos.y);
            h.mix_double(s.load);
            h.mix_double(s.req_time);
          }
          cache_key = h.digest();
          bool shared_hit = false;
          if (const CacheEntry* hit = cache->find(cache_key, &shared_hit)) {
            obs_add(cfg.obs, Counter::kGammaCacheHits);
            if (shared_hit) obs_add(cfg.obs, Counter::kCacheSharedHits);
            std::vector<SolutionCurve> mat = materialize_entry(*hit, ws.arena);
            for (std::size_t p = 0; p < k; ++p)
              ws.gamma.at(L, E, R, p) = std::move(mat[p]);
            continue;
          }
          obs_add(cfg.obs, Counter::kGammaCacheMisses);
        }

        GroupPlan group{Omega, cache_key, plan.calls.size()};
        const std::size_t l_min = (L - 1 >= cfg.alpha) ? L - cfg.alpha + 1 : 1;
        for (std::size_t l = l_min; l <= L - 1; ++l) {
          for (Chi e : chis(l)) {
            const GroupSpan probe{l, e, 0};
            const std::size_t sl = probe.span_len();
            if (sl > Omega.span_len()) continue;
            for (std::size_t r = Omega.left() + sl - 1; r <= Omega.right; ++r) {
              const GroupSpan omega{l, e, r};
              if (!omega.valid(n)) continue;
              const GroupSpan omegas[1] = {omega};
              if (!build_sequence(ws, Omega, omegas, seq)) continue;
              // Child curves X(l,e,r,.) are consumed in place in gamma.
              const std::span<const SolutionCurve> children[1] = {
                  ws.gamma.row(l, e, r)};
              bool any = false;
              for (const SolutionCurve& c : children[0])
                if (!c.empty()) {
                  any = true;
                  break;
                }
              if (!any) continue;
              std::vector<std::vector<Terminal>> variants;
              if (cfg.enable_bubbling) {
                std::vector<Terminal> cur = seq;
                enumerate_layer_sequences(seq, 0, cur, variants);
              } else {
                variants.push_back(seq);
              }
              for (const auto& var : variants) plan_layer_call(ws, var, children);
            }
          }
        }
        // Relaxed Ca_Trees (section 3.2.1): a second inner group per layer.
        if (cfg.max_internal_children >= 2 && L >= 2) {
          for (std::size_t l1 = 1; l1 + 1 <= L - 1; ++l1) {
            for (Chi e1 : chis(l1)) {
              const std::size_t sl1 = GroupSpan{l1, e1, 0}.span_len();
              if (sl1 > Omega.span_len()) continue;
              for (std::size_t r1 = Omega.left() + sl1 - 1; r1 < Omega.right; ++r1) {
                const GroupSpan o1{l1, e1, r1};
                if (!o1.valid(n)) continue;
                const std::size_t l2_min =
                    (l1 + cfg.alpha >= L + 2) ? 1 : L + 2 - cfg.alpha - l1;
                for (std::size_t l2 = l2_min; l1 + l2 <= L - 1; ++l2) {
                  for (Chi e2 : chis(l2)) {
                    const std::size_t sl2 = GroupSpan{l2, e2, 0}.span_len();
                    if (r1 + sl2 > Omega.right) continue;
                    for (std::size_t r2 = r1 + sl2; r2 <= Omega.right; ++r2) {
                      const GroupSpan o2{l2, e2, r2};
                      if (!o2.valid(n) || o2.left() <= r1) continue;
                      const GroupSpan omegas[2] = {o1, o2};
                      if (!build_sequence(ws, Omega, omegas, seq)) continue;
                      const std::span<const SolutionCurve> children[2] = {
                          ws.gamma.row(l1, e1, r1), ws.gamma.row(l2, e2, r2)};
                      bool any1 = false, any2 = false;
                      for (std::size_t p = 0; p < k; ++p) {
                        any1 = any1 || !children[0][p].empty();
                        any2 = any2 || !children[1][p].empty();
                      }
                      if (!any1 || !any2) continue;
                      plan_layer_call(ws, seq, children);
                    }
                  }
                }
              }
            }
          }
        }
        group.end = plan.calls.size();
        plan.groups.push_back(group);
      }
    }

    for (const std::vector<RangeDp::Entry>& level : plan.levels) {
      if (level.empty()) continue;
      ws.dp.solve(level);
      ws.boundary();
    }
    root_phase(ws, L, cfg.allow_unbuffered_groups || L == n);
    if (L < n) child_phase(ws);
    write_layer(ws, L, cache);
    ws.gamma.close_layer();
  }

  // EXTRACTION (Figure 9 lines 21-23).
  BubbleResult res;
  res.layer_calls = ws.layer_calls;
  const SolutionCurve& final_curve =
      std::as_const(ws.gamma).at(n, Chi::kChi0, n - 1, ws.source_p);
  if (final_curve.empty())
    throw std::logic_error("bubble_construct: empty final curve");
  res.root_curve = final_curve;
  res.solutions_stored = ws.gamma.total_solutions();

  auto driver_q = [&](const Solution& s) {
    return s.req_time - net.driver.delay.at_nominal(s.load);
  };
  const Solution* best = nullptr;
  if (cfg.objective.mode == ObjectiveMode::kMaxReqTime) {
    for (const Solution& s : final_curve) {
      if (s.area > cfg.objective.area_limit + 1e-9) continue;
      if (best == nullptr || driver_q(s) > driver_q(*best)) best = &s;
    }
  } else {
    for (const Solution& s : final_curve) {
      if (driver_q(s) < cfg.objective.req_target - 1e-9) continue;
      if (best == nullptr || s.area < best->area ||
          (s.area == best->area && driver_q(s) > driver_q(*best)))
        best = &s;
    }
  }
  if (best == nullptr) {
    // Constraint infeasible within the explored space: fall back to the
    // closest solution (largest required time) rather than failing.
    for (const Solution& s : final_curve)
      if (best == nullptr || driver_q(s) > driver_q(*best)) best = &s;
  }
  res.chosen = *best;
  res.driver_req_time = driver_q(*best);
  res.tree = build_routing_tree(net, arena, best->node);
  res.out_order = provenance_sink_order(arena, best->node, n);

  obs_add(cfg.obs, Counter::kLayerCalls, res.layer_calls);
  obs_add(cfg.obs, Counter::kBubbleBuffersInserted, res.tree.buffer_count());
  obs_add(cfg.obs, Counter::kArenaNodesAllocated,
          arena.stats().nodes_allocated - arena_alloc_before);
  obs_gauge(cfg.obs, Gauge::kGammaPeakSolutions, res.solutions_stored);
  obs_gauge(cfg.obs, Gauge::kArenaPeakLiveNodes, arena.stats().peak_nodes);
  obs_gauge(cfg.obs, Gauge::kArenaPeakBytes, arena.stats().peak_bytes);
  if (cache != nullptr)
    obs_gauge(cfg.obs, Gauge::kCachePeakEntries, cache->size());
  return res;
}

}  // namespace merlin
