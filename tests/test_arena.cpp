// Unit + property tests for SolutionArena: handle validity, slab growth
// with stable references, mark-compact liveness (exactly the live sub-DAG
// survives, Lemma-7 sharing preserved through the remap), the heap traffic
// of an arena-backed BUBBLE_CONSTRUCT (a global operator-new hook), and the
// push-order permutation property of Pareto pruning (the survivor *set* of
// prune() is independent of insertion order).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "buflib/library.h"
#include "core/bubble.h"
#include "curve/arena.h"
#include "curve/curve.h"
#include "net/generator.h"
#include "net/rng.h"
#include "order/tsp.h"
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
  // 7.5k (6 sinks) and 54k (12 sinks) heap allocations, while its SolNode
  // count runs to 88k and 983k.  The allocation counts are deterministic
  // per build; the +-25% band absorbs standard-library and sanitizer
  // differences.  SolNode counts are exact.
  struct Expect {
    std::size_t n_sinks;
    unsigned long long heap_allocs;
    std::uint64_t nodes;
  };
  const BufferLibrary lib = make_standard_library();
  SolutionArena arena;
  for (const Expect e : {Expect{6, 7545, 87953}, Expect{12, 54000, 982708}}) {
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
