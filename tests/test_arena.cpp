// Unit + property tests for SolutionArena: handle validity, slab growth
// with stable references, mark-compact liveness (exactly the live sub-DAG
// survives, Lemma-7 sharing preserved through the remap), the heap traffic
// of an arena-backed BUBBLE_CONSTRUCT (a global operator-new hook), fork
// lanes (spliced lanes equal serial allocation, node for node, fault grant
// for fault grant; the lane rules and the halved handle space), lane trims
// (a lane keeps only the nodes a curve references, in staging order), and
// the push-order permutation property of Pareto pruning (the survivor *set*
// of prune() is independent of insertion order).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "core/bubble.h"
#include "curve/arena.h"
#include "curve/curve.h"
#include "net/generator.h"
#include "net/rng.h"
#include "obs/sink.h"
#include "order/tsp.h"
#include "runtime/pool.h"
#include "tree/routing_tree.h"

// Counts every heap allocation made by this test binary;
// Arena.BubbleConstructHeapTrafficStaysInItsBand reads it around one
// construction.
static std::atomic<unsigned long long> g_heap_allocs{0};

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC never sees free() meet a new-expression and warns
// about a mismatch (-Wmismatched-new-delete) in optimized builds.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace merlin {
namespace {

TEST(Arena, HandlesAreDenseAndValid) {
  SolutionArena arena;
  EXPECT_TRUE(arena.empty());
  const SolNodeId a = arena.make_sink({1, 2}, 5);
  const SolNodeId b = arena.make_wire({3, 4}, a, 2.0);
  const SolNodeId c = arena.make_merge({5, 6}, a, b);
  const SolNodeId d = arena.make_buffer({7, 8}, 3, c);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(d, 3u);
  EXPECT_EQ(arena.size(), 4u);

  EXPECT_EQ(arena[a].kind, StepKind::kSink);
  EXPECT_EQ(arena[a].idx, 5);
  EXPECT_EQ(arena[a].at, (Point{1, 2}));
  EXPECT_EQ(arena[b].kind, StepKind::kWire);
  EXPECT_DOUBLE_EQ(arena[b].wire_width, 2.0);
  EXPECT_EQ(arena[b].a, a);
  EXPECT_EQ(arena[c].kind, StepKind::kMerge);
  EXPECT_EQ(arena[c].a, a);
  EXPECT_EQ(arena[c].b, b);
  EXPECT_EQ(arena[d].kind, StepKind::kBuffer);
  EXPECT_EQ(arena[d].idx, 3);

  EXPECT_TRUE(arena.contains(d));
  EXPECT_FALSE(arena.contains(4));
  EXPECT_FALSE(arena.contains(kNullSol));
}

TEST(Arena, AtThrowsOnNullAndStaleHandles) {
  SolutionArena arena;
  const SolNodeId a = arena.make_sink({0, 0}, 0);
  EXPECT_NO_THROW(static_cast<void>(arena.at(a)));
  EXPECT_THROW(static_cast<void>(arena.at(kNullSol)), std::invalid_argument);
  // Never handed out:
  EXPECT_THROW(static_cast<void>(arena.at(1)), std::invalid_argument);
  arena.reset();
  // Stale after reset:
  EXPECT_THROW(static_cast<void>(arena.at(a)), std::invalid_argument);
}

TEST(Arena, SlabGrowthKeepsReferencesStable) {
  SolutionArena arena;
  // Fill past several slab boundaries; the reference taken early must stay
  // valid (slabs are never reallocated).
  const SolNodeId first = arena.make_sink({42, 43}, 7);
  const SolNode* ref = &arena[first];
  const std::size_t n = 3 * SolutionArena::kSlabSize + 5;
  for (std::size_t i = 1; i < n; ++i)
    arena.make_sink({static_cast<std::int32_t>(i), 0},
                    static_cast<std::int32_t>(i));
  EXPECT_EQ(arena.size(), n);
  EXPECT_EQ(&arena[first], ref);
  EXPECT_EQ(ref->at, (Point{42, 43}));
  // Cross-slab ids still address the right nodes.
  const SolNodeId mid = static_cast<SolNodeId>(SolutionArena::kSlabSize + 17);
  EXPECT_EQ(arena[mid].idx, static_cast<std::int32_t>(mid));
}

TEST(Arena, ResetKeepsCapacityAndCountsStats) {
  SolutionArena arena;
  for (int i = 0; i < 100; ++i) arena.make_sink({i, 0}, i);
  const std::size_t reserved = arena.stats().reserved_bytes;
  EXPECT_GT(reserved, 0u);
  arena.reset();
  EXPECT_TRUE(arena.empty());
  const auto st = arena.stats();
  EXPECT_EQ(st.reserved_bytes, reserved);  // slabs retained
  EXPECT_EQ(st.live_nodes, 0u);
  EXPECT_EQ(st.nodes_allocated, 100u);     // lifetime counter survives reset
  EXPECT_EQ(st.peak_nodes, 100u);
  EXPECT_EQ(st.resets, 1u);
}

// Builds sink(i) -> buffer -> wire chains plus one merge, returns the roots.
struct SmallDag {
  SolNodeId live_root;   // merge over two buffered sinks
  SolNodeId dead_root;   // independent chain that will be dropped
  SolNodeId shared;      // child shared by the merge's two parents
};

SmallDag build_dag(SolutionArena& arena) {
  SmallDag d;
  d.shared = arena.make_sink({10, 10}, 0);
  const SolNodeId w1 = arena.make_wire({0, 10}, d.shared);
  const SolNodeId w2 = arena.make_wire({10, 0}, d.shared);
  d.live_root = arena.make_merge({0, 0}, w1, w2);
  d.dead_root = arena.make_buffer({5, 5}, 1, arena.make_sink({5, 5}, 1));
  return d;
}

TEST(Arena, MarkCompactKeepsExactlyTheLiveSubDag) {
  SolutionArena arena;
  const SmallDag d = build_dag(arena);
  EXPECT_EQ(arena.size(), 6u);

  const std::vector<SolNodeId> roots{d.live_root, kNullSol};  // null skipped
  const std::vector<SolNodeId> remap = arena.mark_compact(roots);
  ASSERT_EQ(remap.size(), 6u);

  // Exactly the 4 reachable nodes survive.
  EXPECT_EQ(arena.size(), 4u);
  EXPECT_EQ(remap[d.dead_root], kNullSol);
  EXPECT_EQ(remap[arena.size()], kNullSol);  // dead sink of the dead chain

  const SolNodeId root2 = remap[d.live_root];
  ASSERT_NE(root2, kNullSol);
  const SolNode& m = arena.at(root2);
  EXPECT_EQ(m.kind, StepKind::kMerge);
  // Lemma-7 sharing preserved: both wire parents still point at ONE sink.
  EXPECT_EQ(arena.at(m.a).a, arena.at(m.b).a);
  EXPECT_EQ(arena.at(m.a).a, remap[d.shared]);
  EXPECT_EQ(arena.at(remap[d.shared]).at, (Point{10, 10}));
  EXPECT_EQ(arena.stats().compactions, 1u);
}

TEST(Arena, MarkCompactPreservesReplayedRoutingTrees) {
  Net net;
  net.source = {0, 0};
  net.wire = WireModel{0.1, 0.2};
  net.sinks.push_back(Sink{{100, 0}, 10.0, 1000.0});
  net.sinks.push_back(Sink{{0, 200}, 20.0, 900.0});

  SolutionArena arena;
  // Interleave garbage with the live structure so compaction actually moves
  // nodes.
  arena.make_sink({99, 99}, 0);
  const SolNodeId s0 = arena.make_sink({50, 0}, 0);
  arena.make_wire({98, 98}, arena.make_sink({97, 97}, 1));
  const SolNodeId s1 = arena.make_sink({50, 0}, 1);
  const SolNodeId m = arena.make_merge({50, 0}, s0, s1);
  const SolNodeId b = arena.make_buffer({50, 0}, 1, m);
  SolNodeId root = arena.make_wire({0, 0}, b);

  const RoutingTree before = build_routing_tree(net, arena, root);
  const std::vector<SolNodeId> roots{root};
  const std::vector<SolNodeId> remap = arena.mark_compact(roots);
  root = remap[root];
  ASSERT_NE(root, kNullSol);
  EXPECT_EQ(arena.size(), 5u);

  const RoutingTree after = build_routing_tree(net, arena, root);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after.node(i).kind, before.node(i).kind);
    EXPECT_EQ(after.node(i).at, before.node(i).at);
    EXPECT_EQ(after.node(i).idx, before.node(i).idx);
    EXPECT_EQ(after.node(i).parent, before.node(i).parent);
  }
  EXPECT_DOUBLE_EQ(after.total_wirelength(), before.total_wirelength());
}

TEST(Arena, RepeatedCompactionIsIdempotentOnLiveSet) {
  SolutionArena arena;
  const SmallDag d = build_dag(arena);
  std::vector<SolNodeId> roots{d.live_root};
  std::vector<SolNodeId> remap = arena.mark_compact(roots);
  roots[0] = remap[roots[0]];
  const std::size_t live = arena.size();
  remap = arena.mark_compact(roots);
  EXPECT_EQ(arena.size(), live);
  // Already-compact arena: the remap is the identity on the live prefix.
  for (SolNodeId id = 0; id < live; ++id) EXPECT_EQ(remap[id], id);
}

TEST(Arena, BubbleConstructHeapTrafficStaysInItsBand) {
  // The arena's reason to exist: a BUBBLE_CONSTRUCT allocates its
  // provenance in slabs, not one heap block per node.  With slab capacity
  // already reserved by a warm-up construction (how batch workers hold
  // their arenas), one construction on the seed-5 nets below makes about
  // 6.4k (6 sinks) and 40k (12 sinks) heap allocations, while its SolNode
  // count runs to 16k and 191k: only the provenance of kept points, since
  // fork lanes drop the nodes their items' last prunes discarded.  The
  // allocation counts are deterministic per build; the +-25% band absorbs
  // standard-library and sanitizer differences.  SolNode counts are exact.
  struct Expect {
    std::size_t n_sinks;
    unsigned long long heap_allocs;
    std::uint64_t nodes;
  };
  const BufferLibrary lib = make_standard_library();
  SolutionArena arena;
  for (const Expect e : {Expect{6, 6400, 16442}, Expect{12, 40000, 191315}}) {
    NetSpec spec;
    spec.n_sinks = e.n_sinks;
    spec.seed = 5;
    const Net net = make_random_net(spec, lib);
    const Order order = tsp_order(net);
    BubbleConfig cfg;
    cfg.alpha = 3;
    cfg.candidates.budget_factor = 1.2;
    cfg.candidates.max_candidates = 14;
    cfg.inner_prune.max_solutions = 3;
    cfg.group_prune.max_solutions = 4;
    cfg.buffer_stride = 4;
    cfg.extension_neighbors = 6;

    arena.reset();
    (void)bubble_construct(net, lib, order, cfg, nullptr, &arena);  // warm-up
    arena.reset();
    const std::uint64_t nodes0 = arena.stats().nodes_allocated;
    const unsigned long long allocs0 = g_heap_allocs.load();
    const BubbleResult r = bubble_construct(net, lib, order, cfg, nullptr, &arena);
    const unsigned long long allocs = g_heap_allocs.load() - allocs0;
    EXPECT_GT(r.layer_calls, 0u);

    EXPECT_EQ(arena.stats().nodes_allocated - nodes0, e.nodes)
        << e.n_sinks << " sinks";
    EXPECT_GE(allocs * 4, e.heap_allocs * 3) << e.n_sinks << " sinks";
    EXPECT_LE(allocs * 4, e.heap_allocs * 5) << e.n_sinks << " sinks";
  }
}

// FNV-1a over every node of the arena, in id order: kind, index, location,
// wire width and both child handles.
std::uint64_t arena_fingerprint(const SolutionArena& arena) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix(arena.size());
  for (SolNodeId id = 0; id < arena.size(); ++id) {
    const SolNode& n = arena[id];
    mix(static_cast<std::uint64_t>(n.kind));
    mix(static_cast<std::uint32_t>(n.idx));
    mix(static_cast<std::uint32_t>(n.at.x));
    mix(static_cast<std::uint32_t>(n.at.y));
    mix(std::bit_cast<std::uint64_t>(n.wire_width));
    mix(n.a);
    mix(n.b);
  }
  return h;
}

TEST(ArenaLanes, ForkedBubbleConstructLeavesTheSerialNodeSequence) {
  // BUBBLE_CONSTRUCT's layer phases allocate through fork lanes spliced in
  // item order, and count through lane sinks folded in that order, so the
  // arena it leaves behind is node for node, handle for handle, the one a
  // serial loop over the same items produces, and the kernel counters are
  // the serial ones.  They must hold with no pool and with helpers joining.
  // Node count, fingerprint and the pushed/kept counts were re-recorded when
  // the layers moved to wide phases over one run table with sink curves
  // built once per construction (fewer sink nodes and one-point prunes, a
  // new node order); the merge/extend/buffer counts and every result held.
  // Node count and fingerprint moved again, and no counter did, when lanes
  // began to drop the nodes no kept point references.
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 6;
  spec.seed = 5;
  const Net net = make_random_net(spec, lib);
  BubbleConfig cfg;
  cfg.alpha = 3;
  cfg.candidates.budget_factor = 1.2;
  cfg.candidates.max_candidates = 14;
  cfg.inner_prune.max_solutions = 3;
  cfg.group_prune.max_solutions = 4;
  cfg.buffer_stride = 4;
  cfg.extension_neighbors = 6;
  ThreadPool pool(4);
  for (ThreadPool* exec : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(exec == nullptr ? "no pool" : "4-worker pool");
    cfg.pool = exec;
    ObsSink sink;
    cfg.obs = &sink;
    SolutionArena arena;
    (void)bubble_construct(net, lib, tsp_order(net), cfg, nullptr, &arena);
    EXPECT_EQ(arena.size(), 16442u);
    EXPECT_EQ(arena_fingerprint(arena), 0xb39c1e90b97a8d1eULL);
    const Counters& c = sink.counters;
    EXPECT_EQ(c.get(Counter::kCurvePointsPushed), 334467u);
    EXPECT_EQ(c.get(Counter::kCurvePointsPruned), 227630u);
    EXPECT_EQ(c.get(Counter::kCurvePointsKept), 106837u);
    EXPECT_EQ(c.get(Counter::kMergeCandidates), 23058u);
    EXPECT_EQ(c.get(Counter::kExtendCandidates), 84759u);
    EXPECT_EQ(c.get(Counter::kBufferCandidates), 123660u);
    EXPECT_EQ(sink.gauges.get(Gauge::kCurvePeakWidth), 67u);
    // The fork grain: a few wide phases per layer.
    EXPECT_EQ(c.get(Counter::kForkPhases), 29u);
    EXPECT_EQ(c.get(Counter::kForkItems), 7112u);
    // The per-op kept counts split the batch prunes' share of the kept
    // points (the rest is plain SolutionCurve::prune passes).
    const std::uint64_t op_kept = c.get(Counter::kMergeKept) +
                                  c.get(Counter::kExtendKept) +
                                  c.get(Counter::kBufferKept);
    EXPECT_GT(c.get(Counter::kMergeKept), 0u);
    EXPECT_LE(c.get(Counter::kMergeKept), c.get(Counter::kMergeCandidates));
    EXPECT_LE(c.get(Counter::kExtendKept), c.get(Counter::kExtendCandidates));
    EXPECT_LE(c.get(Counter::kBufferKept), c.get(Counter::kBufferCandidates));
    EXPECT_LE(op_kept, c.get(Counter::kCurvePointsKept));
  }
}

}  // namespace

// Test access to the arena's handle limit: 2^31 real nodes would take
// 64 GiB, so the limit checks run against a lowered one.
struct SolutionArenaTestPeer {
  static void set_node_limit(SolutionArena& a, std::size_t limit) {
    a.node_limit_ = limit;
  }
};

namespace {

// Item p of a small per-candidate phase: a sink-wire-buffer chain whose
// nodes reference `base` (nodes already in the arena).  Returns the handles
// it made, in allocation order.
std::vector<SolNodeId> phase_item(SolutionArena& into, std::size_t p,
                                  std::span<const SolNodeId> base) {
  const auto x = static_cast<std::int32_t>(p);
  std::vector<SolNodeId> made;
  made.push_back(into.make_wire({x, 1}, base[p % base.size()], 1.0 + p));
  made.push_back(into.make_merge({x, 2}, base[0], base[base.size() - 1]));
  made.push_back(into.make_buffer({x, 3}, x, base[(p + 1) % base.size()]));
  if (p % 2 == 0) made.push_back(into.make_node(SolNode{
                      StepKind::kWire, -1, {x, 4}, 2.0, base[0], kNullSol}));
  return made;
}

void seed_base(SolutionArena& a, std::vector<SolNodeId>& base) {
  for (std::int32_t i = 0; i < 5; ++i) base.push_back(a.make_sink({i, 0}, i));
}

TEST(ArenaLanes, SplicedLanesEqualDirectAllocation) {
  constexpr std::size_t kItems = 6;
  SolutionArena direct, forked;
  std::vector<SolNodeId> base_d, base_f;
  seed_base(direct, base_d);
  seed_base(forked, base_f);

  std::vector<std::vector<SolNodeId>> want(kItems), got(kItems);
  for (std::size_t p = 0; p < kItems; ++p) want[p] = phase_item(direct, p, base_d);

  const std::span<SolutionArena> lanes = forked.open_fork(kItems);
  // Stage in reverse: the staging order across lanes must not matter.
  for (std::size_t p = kItems; p-- > 0;) {
    got[p] = phase_item(lanes[p], p, base_f);
    for (const SolNodeId h : got[p]) EXPECT_TRUE(SolutionArena::is_lane_handle(h));
  }
  EXPECT_EQ(forked.size(), base_f.size());  // nothing lands before the splice
  for (std::size_t p = 0; p < kItems; ++p) {
    const SolNodeId first = forked.splice(lanes[p]);
    for (SolNodeId& h : got[p]) h = SolutionArena::rebase_lane_handle(h, first);
  }
  forked.close_fork();

  EXPECT_EQ(got, want);
  ASSERT_EQ(forked.size(), direct.size());
  for (SolNodeId id = 0; id < direct.size(); ++id) {
    const SolNode& a = direct[id];
    const SolNode& b = forked[id];
    EXPECT_EQ(a.kind, b.kind) << id;
    EXPECT_EQ(a.idx, b.idx) << id;
    EXPECT_EQ(a.at, b.at) << id;
    EXPECT_EQ(a.wire_width, b.wire_width) << id;
    EXPECT_EQ(a.a, b.a) << id;
    EXPECT_EQ(a.b, b.b) << id;
  }
  EXPECT_EQ(forked.stats().nodes_allocated, direct.stats().nodes_allocated);
  EXPECT_EQ(forked.stats().peak_nodes, direct.stats().peak_nodes);
  // Unaffected handles pass through a rebase.
  EXPECT_EQ(SolutionArena::rebase_lane_handle(kNullSol, 7), kNullSol);
  EXPECT_EQ(SolutionArena::rebase_lane_handle(3, 7), 3u);

  // The curve-level rebase rewrites lane handles only.
  const std::span<SolutionArena> again = forked.open_fork(1);
  SolutionCurve c;
  Solution s;
  s.node = again[0].make_wire({9, 9}, base_f[0]);
  c.push(s);
  s.node = base_f[1];
  c.push(s);
  c.rebase_lane(forked.splice(again[0]));
  forked.close_fork();
  EXPECT_EQ(c[0].node, direct.size());
  EXPECT_EQ(c[1].node, base_f[1]);
}

TEST(ArenaLanes, LaneNodeWhoseChildIsALaneNodeThrows) {
  SolutionArena arena;
  const SolNodeId sink = arena.make_sink({0, 0}, 0);
  const std::span<SolutionArena> lanes = arena.open_fork(2);
  const SolNodeId staged = lanes[0].make_wire({1, 0}, sink);
  EXPECT_THROW((void)lanes[0].make_wire({2, 0}, staged), std::logic_error);
  EXPECT_THROW((void)lanes[1].make_merge({2, 0}, sink, staged), std::logic_error);
  EXPECT_THROW((void)lanes[1].make_buffer({2, 0}, 0, staged), std::logic_error);
  EXPECT_EQ(lanes[0].staged(), 1u);  // the rejected nodes were not staged
  EXPECT_EQ(lanes[1].staged(), 0u);
  arena.close_fork();
  EXPECT_EQ(arena.open_fork(2)[0].staged(), 0u);  // close_fork emptied them
  arena.close_fork();
}

TEST(ArenaLanes, InjectedAllocFaultTripsAtTheSameGrant) {
  constexpr std::size_t kItems = 5;
  for (const std::uint64_t grants : {0u, 1u, 3u, 7u, 12u}) {
    SCOPED_TRACE(grants);
    SolutionArena direct, forked;
    std::vector<SolNodeId> base_d, base_f;
    seed_base(direct, base_d);
    seed_base(forked, base_f);

    direct.set_alloc_fault(grants);
    std::string serial_what;
    try {
      for (std::size_t p = 0; p < kItems; ++p) (void)phase_item(direct, p, base_d);
      FAIL() << "serial allocation should trip";
    } catch (const std::length_error& e) {
      serial_what = e.what();
    }

    forked.set_alloc_fault(grants);
    const std::span<SolutionArena> lanes = forked.open_fork(kItems);
    for (std::size_t p = 0; p < kItems; ++p) (void)phase_item(lanes[p], p, base_f);
    try {
      for (std::size_t p = 0; p < kItems; ++p) (void)forked.splice(lanes[p]);
      FAIL() << "the splice should trip";
    } catch (const std::length_error& e) {
      EXPECT_EQ(serial_what, e.what());
    }
    forked.close_fork();
    EXPECT_EQ(forked.size(), direct.size());
    EXPECT_EQ(forked.stats().nodes_allocated, direct.stats().nodes_allocated);
  }
}

TEST(ArenaLanes, TheTagBitHalvesTheHandleSpace) {
  static_assert(SolutionArena::kLaneTag == 0x80000000u);
  static_assert(SolutionArena::kMaxNodes == std::size_t{1} << 31);
  // The largest lane handle is still distinct from kNullSol.
  EXPECT_NE(static_cast<SolNodeId>(SolutionArena::kMaxNodes - 2) |
                SolutionArena::kLaneTag,
            kNullSol);

  // Direct allocation, a splice and a lane all stop at the limit with the
  // exception the 32-bit overflow used to raise.
  constexpr std::size_t kLimit = 4;
  SolutionArena direct;
  SolutionArenaTestPeer::set_node_limit(direct, kLimit);
  for (std::size_t i = 0; i < kLimit; ++i) (void)direct.make_sink({0, 0}, 0);
  EXPECT_THROW((void)direct.make_sink({0, 0}, 0), std::length_error);

  SolutionArena forked;
  SolutionArenaTestPeer::set_node_limit(forked, kLimit);
  const SolNodeId s = forked.make_sink({0, 0}, 0);
  std::span<SolutionArena> lanes = forked.open_fork(2);
  (void)lanes[0].make_wire({1, 0}, s);
  (void)lanes[0].make_wire({2, 0}, s);
  (void)lanes[1].make_wire({3, 0}, s);
  (void)lanes[1].make_wire({4, 0}, s);
  EXPECT_NO_THROW((void)forked.splice(lanes[0]));
  EXPECT_THROW((void)forked.splice(lanes[1]), std::length_error);
  forked.close_fork();
  EXPECT_EQ(forked.size(), kLimit);

  SolutionArena lane_limited;
  lanes = lane_limited.open_fork(1);
  SolutionArenaTestPeer::set_node_limit(lanes[0], kLimit);
  for (std::size_t i = 0; i + 1 < kLimit; ++i) (void)lanes[0].make_sink({0, 0}, 0);
  EXPECT_THROW((void)lanes[0].make_sink({0, 0}, 0), std::length_error);
  lane_limited.close_fork();
}

// A curve over `nodes`, one solution per handle, with distinct metrics.
SolutionCurve curve_over(std::span<const SolNodeId> nodes) {
  SolutionCurve c;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Solution s;
    s.req_time = static_cast<double>(i);
    s.node = nodes[i];
    c.push(s);
  }
  return c;
}

TEST(LaneTrim, KeepsTheReferencedNodesOnceInStagingOrder) {
  SolutionArena arena;
  std::vector<SolNodeId> base;
  seed_base(arena, base);
  const std::span<SolutionArena> lanes = arena.open_fork(1);
  SolutionArena& lane = lanes[0];
  std::vector<SolNodeId> staged;
  for (std::int32_t i = 0; i < 6; ++i)
    staged.push_back(
        lane.make_wire({i, 7}, base[static_cast<std::size_t>(i) % 5]));
  // Lane nodes 4 (twice) and 1, out of order, beside an arena handle and a
  // null one.
  const std::vector<SolNodeId> held = {staged[4], base[2], staged[1], kNullSol,
                                       staged[4]};
  SolutionCurve c = curve_over(held);
  c.trim_lane(lane);
  EXPECT_EQ(lane.staged(), 2u);
  // Staging order decides the new positions: node 1 first, then node 4.
  EXPECT_EQ(c[0].node, 1u | SolutionArena::kLaneTag);
  EXPECT_EQ(c[1].node, base[2]);
  EXPECT_EQ(c[2].node, 0u | SolutionArena::kLaneTag);
  EXPECT_EQ(c[3].node, kNullSol);
  EXPECT_EQ(c[4].node, 1u | SolutionArena::kLaneTag);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_EQ(c[i].req_time, static_cast<double>(i));  // metrics untouched

  // The splice appends exactly the kept nodes; the rebase maps them.
  const SolNodeId first = arena.splice(lane);
  c.rebase_lane(first);
  arena.close_fork();
  EXPECT_EQ(first, base.size());
  ASSERT_EQ(arena.size(), base.size() + 2);
  EXPECT_EQ(arena.stats().nodes_allocated, base.size() + 2);
  EXPECT_EQ(c[0].node, first + 1);
  EXPECT_EQ(c[2].node, first);
  EXPECT_EQ(c[4].node, first + 1);
  EXPECT_EQ(arena[first].at, (Point{1, 7}));
  EXPECT_EQ(arena[first].a, base[1]);
  EXPECT_EQ(arena[first + 1].at, (Point{4, 7}));
  EXPECT_EQ(arena[first + 1].a, base[4]);
}

TEST(LaneTrim, AnUnreferencedLaneEmptiesAndFurtherStagingContinuesAfterIt) {
  SolutionArena arena;
  const SolNodeId sink = arena.make_sink({0, 0}, 0);
  const std::span<SolutionArena> lanes = arena.open_fork(1);
  SolutionArena& lane = lanes[0];
  for (std::int32_t i = 1; i <= 3; ++i) (void)lane.make_wire({i, 0}, sink);
  SolutionCurve c = curve_over(std::vector<SolNodeId>{sink, kNullSol});
  c.trim_lane(lane);
  EXPECT_EQ(lane.staged(), 0u);
  EXPECT_EQ(c[0].node, sink);
  EXPECT_EQ(c[1].node, kNullSol);
  // Trimmed mid-item, a lane keeps staging after its kept nodes.
  const SolNodeId kept = lane.make_wire({5, 0}, sink);
  (void)lane.make_wire({6, 0}, sink);  // dropped below
  const SolNodeId also = lane.make_wire({7, 0}, sink);
  EXPECT_EQ(kept, 0u | SolutionArena::kLaneTag);
  c = curve_over(std::vector<SolNodeId>{also, kept});
  c.trim_lane(lane);
  EXPECT_EQ(c[0].node, 1u | SolutionArena::kLaneTag);
  EXPECT_EQ(c[1].node, 0u | SolutionArena::kLaneTag);
  c.rebase_lane(arena.splice(lane));
  arena.close_fork();
  EXPECT_EQ(arena[c[0].node].at, (Point{7, 0}));
  EXPECT_EQ(arena[c[1].node].at, (Point{5, 0}));
}

TEST(LaneTrim, AnArmedAllocFaultChargesOnlyKeptNodes) {
  for (const std::uint64_t grants : {1u, 2u}) {
    SCOPED_TRACE(grants);
    SolutionArena arena;
    const SolNodeId sink = arena.make_sink({0, 0}, 0);
    arena.set_alloc_fault(grants);
    const std::span<SolutionArena> lanes = arena.open_fork(1);
    std::vector<SolNodeId> staged;
    for (std::int32_t i = 1; i <= 5; ++i)
      staged.push_back(lanes[0].make_wire({i, 0}, sink));
    SolutionCurve c = curve_over(std::vector<SolNodeId>{staged[0], staged[3]});
    c.trim_lane(lanes[0]);
    // Five nodes were staged, two are kept: two grants suffice, one trips
    // at the second kept node.
    if (grants >= 2) {
      EXPECT_NO_THROW(c.rebase_lane(arena.splice(lanes[0])));
      EXPECT_FALSE(arena.clear_alloc_fault());
    } else {
      EXPECT_THROW((void)arena.splice(lanes[0]), std::length_error);
      EXPECT_TRUE(arena.clear_alloc_fault());
    }
    arena.close_fork();
    EXPECT_EQ(arena.size(), 1 + grants);
    EXPECT_EQ(arena.stats().nodes_allocated, 1 + grants);
  }
}

#ifndef NDEBUG
TEST(LaneTrimDeathTest, ANonLaneArenaOrAHandlePastTheStagedNodesAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SolutionArena arena;
        const SolNodeId sink = arena.make_sink({0, 0}, 0);
        SolutionCurve c = curve_over(std::vector<SolNodeId>{sink});
        c.trim_lane(arena);
      },
      "non-lane arena");
  EXPECT_DEATH(
      {
        SolutionArena arena;
        const SolNodeId sink = arena.make_sink({0, 0}, 0);
        const std::span<SolutionArena> lanes = arena.open_fork(1);
        const SolNodeId staged = lanes[0].make_wire({1, 0}, sink);
        SolutionCurve c =
            curve_over(std::vector<SolNodeId>{staged, staged + 1});
        c.trim_lane(lanes[0]);
      },
      "past the lane's staged nodes");
}
#endif

#ifndef NDEBUG
TEST(ArenaPhaseDeathTest, DirectAllocationOrCompactionDuringAForkAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SolutionArena arena;
        (void)arena.open_fork(2);
        (void)arena.make_sink({0, 0}, 0);
      },
      "during a fork");
  EXPECT_DEATH(
      {
        SolutionArena arena;
        const SolNodeId root = arena.make_sink({0, 0}, 0);
        (void)arena.open_fork(2);
        (void)arena.mark_compact(std::span<const SolNodeId>(&root, 1));
      },
      "during a fork");
}
#endif

TEST(Prune, SurvivorSetIsPushOrderIndependent) {
  // Pareto pruning keeps the non-inferior set (Def. 6); as a *set* this is a
  // pure function of the pushed multiset, whatever order fed it.
  Rng rng(99);
  std::vector<Solution> pool;
  for (int i = 0; i < 60; ++i) {
    Solution s;
    s.req_time = rng.uniform(0, 100);
    s.load = rng.uniform(1, 50);
    s.area = rng.uniform(0, 20);
    pool.push_back(s);
  }
  auto survivors = [&](const std::vector<std::size_t>& perm) {
    SolutionCurve c;
    for (std::size_t i : perm) c.push(pool[i]);
    c.prune();
    std::vector<std::array<double, 3>> v;
    for (const Solution& s : c) v.push_back({s.req_time, s.load, s.area});
    std::sort(v.begin(), v.end());
    return v;
  };
  std::vector<std::size_t> perm(pool.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  const auto base = survivors(perm);
  EXPECT_FALSE(base.empty());
  Rng shuffler(7);
  for (int trial = 0; trial < 10; ++trial) {
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1],
                perm[static_cast<std::size_t>(shuffler.uniform_int(
                    0, static_cast<int>(i) - 1))]);
    EXPECT_EQ(survivors(perm), base) << "trial " << trial;
  }
}

}  // namespace
}  // namespace merlin
