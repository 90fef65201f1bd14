#include "core/bubble.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "cache/shard.h"
#include "core/grouping.h"
#include "curve/fork.h"
#include "ptree/range_dp.h"
#include "runtime/guard.h"

namespace merlin {

namespace {

// ---------------------------------------------------------------------------
// Gamma table storage.
//
// For every sub-group (l, e, r) and candidate location p two curve families
// exist conceptually:
//   anchor A(l,e,r,p): structures rooted exactly at p (buffer options at p
//                      already applied);
//   child  X(l,e,r,p): the group as seen *from* p when used inside a parent
//                      layer — the pruned union over anchors pc of A(...,pc)
//                      extended by a wire pc -> p.
// Parent layers only ever consume X; the final extraction only needs A of
// the full group (l == n).  So the long-lived table stores X for l < n and
// A for l == n, keeping memory at one curve set per (l,e,r,p).
// ---------------------------------------------------------------------------
class GammaTable {
 public:
  GammaTable(std::size_t n, std::size_t k) : n_(n), k_(k), cells_(n * 4 * n * k) {}

  SolutionCurve& at(std::size_t l, Chi e, std::size_t r, std::size_t p) {
    return cells_[index(l, e, r, p)];
  }
  [[nodiscard]] const SolutionCurve& at(std::size_t l, Chi e, std::size_t r,
                                        std::size_t p) const {
    return cells_[index(l, e, r, p)];
  }
  /// The k curves of one (l, e, r) state, contiguous over p.  Layers consume
  /// child states through this view instead of copying k curves per variant.
  [[nodiscard]] std::span<const SolutionCurve> row(std::size_t l, Chi e,
                                                   std::size_t r) const {
    return {&cells_[index(l, e, r, 0)], k_};
  }

 private:
  [[nodiscard]] std::size_t index(std::size_t l, Chi e, std::size_t r,
                                  std::size_t p) const {
    assert(l >= 1 && l <= n_ && r < n_ && p < k_);
    return (((l - 1) * 4 + static_cast<std::size_t>(e)) * n_ + r) * k_ + p;
  }

 public:
  [[nodiscard]] std::size_t total_solutions() const {
    std::size_t total = 0;
    for (const SolutionCurve& c : cells_) total += c.size();
    return total;
  }

 private:
  std::size_t n_, k_;
  std::vector<SolutionCurve> cells_;
};

// One element of a layer's terminal sequence: either a direct sink or one of
// the layer's inner sub-groups (one in the classic Ca_Tree, up to two in the
// relaxed structure).
struct Terminal {
  bool is_child = false;
  std::uint8_t child_slot = 0;  ///< which inner group, when is_child
  /// Identity of the terminal's base curves within one construction: the
  /// original sink index for a direct sink, n + the Gamma state index of
  /// (l, e, r) for a child (see child_terminal_id).  RangeMemo keys on it.
  std::uint32_t id = 0;
  std::size_t pos = 0;      ///< order position (kNoPos for the child/displaced)
};

std::uint32_t child_terminal_id(const GroupSpan& g, std::size_t n) {
  return static_cast<std::uint32_t>(
      n + ((g.len - 1) * 4 + static_cast<std::size_t>(g.e)) * n + g.right);
}

inline constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

// The *PTREE range memo: Lemma 7's sub-problem sharing one level below the
// Gamma groups.  Within one construction a range (i, j) of a layer's terminal
// sequence yields curves that depend only on its ordered terminal identities:
// child rows are final before any parent layer reads them, sink base curves
// are fixed, and the kernel's tie-break sequence numbers restart per batch
// op.  So every layer call that meets an already computed run of terminals
// (another child choice, a within-layer swap variant, another parent group)
// copies its k curves instead of recomputing them — metric-identical, with
// the same tie-breaks, and sharing the first computation's provenance
// sub-DAGs in the arena.  Storage is flat: keys in one id pool, curves in one
// solution pool with k offsets per entry, and an open-addressed index.
class RangeMemo {
 public:
  static constexpr std::uint32_t kMissing = static_cast<std::uint32_t>(-1);

  explicit RangeMemo(std::size_t k) : k_(k), offs_(1, 0) {}

  /// Entry holding the run `ids`, or kMissing.
  [[nodiscard]] std::uint32_t find(std::span<const std::uint32_t> ids) const {
    if (slots_.empty()) return kMissing;
    const std::uint64_t h = hash(ids);
    for (std::size_t s = h & (slots_.size() - 1);; s = (s + 1) & (slots_.size() - 1)) {
      if (slots_[s] == 0) return kMissing;
      const Entry& e = entries_[slots_[s] - 1];
      if (e.hash == h && e.key_len == ids.size() &&
          std::equal(ids.begin(), ids.end(), key_pool_.begin() + e.key_off))
        return slots_[s] - 1;
    }
  }

  /// Curve p of entry `e`.
  [[nodiscard]] std::span<const Solution> curve(std::uint32_t e, std::size_t p) const {
    const std::size_t at = e * k_ + p;
    return {sol_pool_.data() + offs_[at], offs_[at + 1] - offs_[at]};
  }

  /// Stores `curves` (one per candidate) as the run `ids`, which must be
  /// absent.
  void insert(std::span<const std::uint32_t> ids,
              std::span<const SolutionCurve> curves) {
    if (2 * (entries_.size() + 1) > slots_.size()) grow();
    entries_.push_back(Entry{hash(ids), static_cast<std::uint32_t>(key_pool_.size()),
                             static_cast<std::uint32_t>(ids.size())});
    key_pool_.insert(key_pool_.end(), ids.begin(), ids.end());
    for (const SolutionCurve& c : curves) {
      sol_pool_.insert(sol_pool_.end(), c.begin(), c.end());
      offs_.push_back(sol_pool_.size());
    }
    place(static_cast<std::uint32_t>(entries_.size() - 1));
  }

 private:
  struct Entry {
    std::uint64_t hash;
    std::uint32_t key_off, key_len;
  };

  static std::uint64_t hash(std::span<const std::uint32_t> ids) {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ ids.size();
    for (const std::uint32_t id : ids) {
      h ^= id;
      h *= 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 29;
    }
    return h;
  }

  void place(std::uint32_t idx) {
    std::size_t s = entries_[idx].hash & (slots_.size() - 1);
    while (slots_[s] != 0) s = (s + 1) & (slots_.size() - 1);
    slots_[s] = idx + 1;
  }

  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
    for (std::uint32_t i = 0; i < entries_.size(); ++i) place(i);
  }

  std::size_t k_;
  std::vector<std::size_t> offs_;     ///< entry e, curve p: [e*k+p, e*k+p+1)
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> key_pool_;
  std::vector<Solution> sol_pool_;
  std::vector<std::uint32_t> slots_;  ///< entry index + 1; 0 = empty
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
  // Per-layer-call state, reused across the whole construction so curve and
  // table capacity warms up once (see RangeDp::prepare).  Within-layer wire
  // extensions start only from each candidate's extension_neighbors nearest.
  RangeDp dp;
  std::vector<SolutionCurve> routed_scratch;  // layer_ptree output, one per p
  std::vector<std::uint32_t> ids_scratch;  // layer_ptree's terminal ids
  RangeMemo ranges;
  CandidateFork fork;  // root options and child curves, per candidate

  Workspace(const Net& net_, const BufferLibrary& lib_, const BubbleConfig& cfg_,
            const Order& order_, SolutionArena& arena_, CandidateSet cands)
      : net(net_), lib(lib_), cfg(cfg_), order(order_), arena(arena_),
        pts(std::move(cands.pts)), k(pts.size()), source_p(cands.source_p),
        n(net_.fanout()), gamma(net_.fanout(), pts.size()),
        dp(arena_, pts, extension_sources(pts, cfg_.extension_neighbors),
           net_.wire, cfg_.wire_widths, cfg_.inner_prune, cfg_.pool),
        ranges(pts.size()), fork(arena_, cfg_.pool) {}
};

// The *PTREE layer DP (paper section 3.2.3): finds non-inferior rectilinear
// routings rooted at every candidate location over the ordered terminals,
// where one terminal may be an already-built sub-group represented by its
// child curves X (one curve per root location, viewed in place in the Gamma
// table).  Fills `routed` with the full-range curve per candidate location.
// The ranges run ptree_route's range DP (ptree/range_dp.h); ranges of
// two or more terminals go through the construction's RangeMemo first.
void layer_ptree(Workspace& ws, const std::vector<Terminal>& seq,
                 std::span<const std::span<const SolutionCurve>> children,
                 std::vector<SolutionCurve>& routed) {
  const std::size_t w = seq.size();
  const std::size_t k = ws.k;
  RangeDp& dp = ws.dp;
  dp.prepare(w);
  ++ws.layer_calls;
  // One DP step per layer call, weighted by its (terminals x candidates)
  // state count — the dominant cost unit of the whole construction.
  guard_step(ws.cfg.guard, w * k);
  guard_point(ws.cfg.guard, FaultSite::kBubbleLayer);

  for (std::size_t t = 0; t < w; ++t) {
    if (seq[t].is_child) {
      const auto& child_at = children[seq[t].child_slot];
      for (std::size_t p = 0; p < k; ++p) dp.at(t, t, p) = child_at[p];
    } else {
      dp.set_sink(t, ws.net.sinks[seq[t].id], static_cast<std::int32_t>(seq[t].id));
    }
  }

  std::vector<std::uint32_t>& ids = ws.ids_scratch;
  ids.resize(w);
  for (std::size_t t = 0; t < w; ++t) ids[t] = seq[t].id;
  for (std::size_t len = 2; len <= w; ++len) {
    for (std::size_t i = 0; i + len <= w; ++i) {
      const std::size_t j = i + len - 1;
      const std::span<const std::uint32_t> run(ids.data() + i, len);
      const std::span<SolutionCurve> cells = dp.row(i, j);
      if (const std::uint32_t hit = ws.ranges.find(run); hit != RangeMemo::kMissing) {
        obs_add(ws.cfg.obs, Counter::kRangeReuseHits);
        for (std::size_t p = 0; p < k; ++p)
          for (const Solution& s : ws.ranges.curve(hit, p)) cells[p].push(s);
        continue;
      }
      obs_add(ws.cfg.obs, Counter::kRangeReuseMisses);
      dp.solve(i, j);
      ws.ranges.insert(run, cells);
    }
  }

  routed.resize(k);
  for (std::size_t p = 0; p < k; ++p) {
    routed[p].clear();
    for (const Solution& s : dp.at(0, w - 1, p)) routed[p].push(s);
  }
}

// Converts anchor curves (one per candidate) into child curves X: at each
// destination p, the pruned union over anchors pc of "A at pc + wire pc->p".
std::vector<SolutionCurve> anchors_to_child(Workspace& ws,
                                            const std::vector<SolutionCurve>& anchor) {
  std::vector<SolutionCurve> x(ws.k);
  std::vector<const SolutionCurve*> srcs(ws.k);
  for (std::size_t pc = 0; pc < ws.k; ++pc) srcs[pc] = &anchor[pc];
  // Child curves are long-lived inputs to later layers; give them the
  // (richer) group budget rather than the transient inner one.
  ws.fork.run(
      ws.k, ws.cfg.group_prune.obs,
      [&](std::size_t p, SolutionArena& lane, ObsSink* lane_obs) {
        PruneConfig pc = ws.cfg.group_prune;
        pc.obs = lane_obs;
        push_extended_options(lane, srcs, ws.pts, ws.pts[p], ws.net.wire, pc,
                              x[p], ws.cfg.wire_widths);
      },
      [&](std::size_t p) -> SolutionCurve& { return x[p]; });
  return x;
}

// Applies root options at every candidate: buffered variants always, the
// unbuffered originals when the configuration (or the top level) allows.
void apply_root_options(Workspace& ws, const std::vector<SolutionCurve>& routed,
                        bool keep_unbuffered, std::vector<SolutionCurve>& into) {
  ws.fork.run(
      ws.k, ws.cfg.obs,
      [&](std::size_t p, SolutionArena& lane, ObsSink* lane_obs) {
        if (routed[p].empty()) return;
        if (keep_unbuffered)
          for (const Solution& s : routed[p]) into[p].push(s);
        push_buffered_options(lane, routed[p], ws.pts[p], ws.lib, into[p],
                              ws.cfg.buffer_stride, lane_obs);
        // Amortized pruning keeps accumulation cells from ballooning while
        // many (l, e, r) child choices pour into the same (L, E, R) group.
        if (into[p].size() >
            4 * std::max<std::size_t>(ws.cfg.group_prune.max_solutions, 8)) {
          PruneConfig pc = ws.cfg.group_prune;
          pc.obs = lane_obs;
          into[p].prune(pc);
        }
      },
      [&](std::size_t p) -> SolutionCurve& { return into[p]; });
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

  // INITIALIZATION (Figure 9 lines 1-4): length-1 groups.  Single-sink
  // structures may always carry a buffer (they are leaves, not internal
  // nodes, so allow_unbuffered_groups does not apply).
  for (Chi e : chis(1)) {
    for (std::size_t r = 0; r < n; ++r) {
      const GroupSpan span{1, e, r};
      if (!span.valid(n)) continue;
      const std::uint32_t sid = order[span.member_positions().front()];
      std::vector<SolutionCurve> anchor(ws.k);
      for (std::size_t p = 0; p < ws.k; ++p) {
        SolutionCurve base;
        push_sink_options(ws.arena, net.sinks[sid], static_cast<std::int32_t>(sid),
                          ws.pts[p], net.wire, cfg.wire_widths, base);
        for (const Solution& sol : base) anchor[p].push(sol);
        push_buffered_options(ws.arena, base, ws.pts[p], lib, anchor[p],
                              cfg.buffer_stride, cfg.obs);
        anchor[p].prune(cfg.group_prune);
      }
      if (n == 1) {
        for (std::size_t p = 0; p < ws.k; ++p)
          ws.gamma.at(1, e, r, p) = std::move(anchor[p]);
      } else {
        auto x = anchors_to_child(ws, anchor);
        for (std::size_t p = 0; p < ws.k; ++p)
          ws.gamma.at(1, e, r, p) = std::move(x[p]);
      }
    }
  }

  // CONSTRUCTION (Figure 9 lines 5-20): groups by increasing sink count.
  std::vector<Terminal> seq;
  for (std::size_t L = 2; L <= n; ++L) {
    TraceSpan layer_span(cfg.obs, SpanName::kBubbleLayer, L);
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
            for (std::size_t p = 0; p < ws.k; ++p)
              ws.gamma.at(L, E, R, p) = std::move(mat[p]);
            continue;
          }
          obs_add(cfg.obs, Counter::kGammaCacheMisses);
        }

        std::vector<SolutionCurve> acc(ws.k);  // anchor accumulation A(L,E,R,.)
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
              for (const auto& var : variants) {
                layer_ptree(ws, var, children, ws.routed_scratch);
                apply_root_options(ws, ws.routed_scratch,
                                   cfg.allow_unbuffered_groups || L == n, acc);
              }
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
                      for (std::size_t p = 0; p < ws.k; ++p) {
                        any1 = any1 || !children[0][p].empty();
                        any2 = any2 || !children[1][p].empty();
                      }
                      if (!any1 || !any2) continue;
                      layer_ptree(ws, seq, children, ws.routed_scratch);
                      apply_root_options(ws, ws.routed_scratch,
                                         cfg.allow_unbuffered_groups || L == n,
                                         acc);
                    }
                  }
                }
              }
            }
          }
        }

        if (cfg.obs != nullptr) {
          std::uint64_t entering = 0;
          for (std::size_t p = 0; p < ws.k; ++p) entering += acc[p].size();
          for (std::size_t p = 0; p < ws.k; ++p) acc[p].prune(cfg.group_prune);
          std::uint64_t kept = 0;
          for (std::size_t p = 0; p < ws.k; ++p) kept += acc[p].size();
          obs_layer(cfg.obs, L, entering, entering - kept, kept);
        } else {
          for (std::size_t p = 0; p < ws.k; ++p) acc[p].prune(cfg.group_prune);
        }
        if (L == n) {
          for (std::size_t p = 0; p < ws.k; ++p)
            ws.gamma.at(L, E, R, p) = std::move(acc[p]);
        } else {
          auto x = anchors_to_child(ws, acc);
          if (cache != nullptr) cache->insert(cache_key, x, ws.arena);
          for (std::size_t p = 0; p < ws.k; ++p)
            ws.gamma.at(L, E, R, p) = std::move(x[p]);
        }
      }
    }
  }

  // EXTRACTION (Figure 9 lines 21-23).
  BubbleResult res;
  res.layer_calls = ws.layer_calls;
  const SolutionCurve& final_curve = ws.gamma.at(n, Chi::kChi0, n - 1, ws.source_p);
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
