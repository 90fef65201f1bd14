// Tests for the src/cache/ subsystem: canonical signatures, arena-decoupled
// entry storage, the shared store's deterministic publish/eviction and its
// read-phase checks, and the batch-level bit-identity contract with the
// cache armed (cache/shard.h documents the full contract).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "buflib/library.h"
#include "cache/shard.h"
#include "cache/signature.h"
#include "cache/store.h"
#include "curve/arena.h"
#include "curve/curve.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "net/generator.h"
#include "obs/sink.h"

namespace merlin {
namespace {

CacheKey key_of(std::uint64_t a) {
  SigHasher h;
  h.mix(a);
  return h.digest();
}

/// A self-contained entry whose provenance is a wire chain of `nodes` nodes
/// (so node_cost() == nodes), built through the real intern path.
CacheEntry chain_entry(const CacheKey& key, std::size_t nodes) {
  SolutionArena arena;
  SolNodeId tip = arena.make_sink(Point{0, 0}, 0);
  for (std::size_t i = 1; i < nodes; ++i)
    tip = arena.make_wire(Point{static_cast<std::int32_t>(i), 0}, tip);
  SolutionCurve curve;
  Solution s;
  s.req_time = 1.0;
  s.load = 2.0;
  s.area = 3.0;
  s.node = tip;
  curve.push(s);
  const std::vector<SolutionCurve> curves{curve};
  return intern_entry(key, curves, arena);
}

// ---------------------------------------------------------------------------
// Signatures (cache/signature.h).
// ---------------------------------------------------------------------------

TEST(CacheSignature, DigestIsDeterministicAndValueSensitive) {
  SigHasher a, b, c;
  for (std::uint64_t x : {1u, 2u, 3u}) {
    a.mix(x);
    b.mix(x);
  }
  c.mix(1);
  c.mix(2);
  c.mix(4);  // one word differs
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_FALSE(a.digest() == c.digest());
}

TEST(CacheSignature, DigestIsLengthClosed) {
  // A prefix's digest must differ from the full stream's digest, and
  // digest() must not disturb the state (the hasher keeps absorbing).
  SigHasher h;
  h.mix(7);
  const CacheKey after_one = h.digest();
  EXPECT_EQ(after_one, h.digest());  // digest is a pure read
  h.mix(0);
  EXPECT_FALSE(after_one == h.digest());
  // Empty stream digests to something too, distinct from any nonempty one.
  EXPECT_FALSE(SigHasher{}.digest() == after_one);
}

TEST(CacheSignature, DoublesAreMixedByBitPattern) {
  SigHasher pos, neg;
  pos.mix_double(0.0);
  neg.mix_double(-0.0);
  EXPECT_FALSE(pos.digest() == neg.digest());
}

TEST(CacheSignature, ForkedHashersInheritTheirSeedContext) {
  const CacheKey ctx_a = key_of(10);
  const CacheKey ctx_b = key_of(11);
  SigHasher a{ctx_a}, a2{ctx_a}, b{ctx_b};
  for (SigHasher* h : {&a, &a2, &b}) h->mix(42);
  EXPECT_EQ(a.digest(), a2.digest());
  EXPECT_FALSE(a.digest() == b.digest());
}

// ---------------------------------------------------------------------------
// Entry storage (cache/store.h).
// ---------------------------------------------------------------------------

TEST(CacheStore, InternMaterializeRoundTripsBitIdentically) {
  SolutionArena arena;
  // Two solutions sharing one child (Lemma 7 sharing), plus a null-node
  // point: the three provenance shapes an entry has to carry.
  const SolNodeId sink = arena.make_sink(Point{5, 5}, 3, 2.0);
  const SolNodeId wire = arena.make_wire(Point{9, 5}, sink, 2.0);
  const SolNodeId buf = arena.make_buffer(Point{9, 9}, 1, wire);
  const SolNodeId merge = arena.make_merge(Point{9, 9}, wire, buf);

  SolutionCurve c0;
  c0.push(Solution{3.0, 1.0, 2.0, 4.0, buf});
  c0.push(Solution{-0.0, 1.5, 0.0, 0.5, merge});
  SolutionCurve c1;
  c1.push(Solution{9.0, 9.0, 9.0, 9.0, kNullSol});
  const std::vector<SolutionCurve> curves{c0, c1};

  const CacheEntry entry = intern_entry(key_of(1), curves, arena);
  EXPECT_EQ(entry.solution_count(), 3u);
  // sink, wire, buf, merge — each reachable node once, sharing preserved.
  EXPECT_EQ(entry.node_cost(), 4u);

  SolutionArena other;
  other.make_sink(Point{0, 0}, 0);  // occupy id 0: handles must re-map
  const std::vector<SolutionCurve> out = materialize_entry(entry, other);
  ASSERT_EQ(out.size(), curves.size());
  for (std::size_t p = 0; p < out.size(); ++p) {
    ASSERT_EQ(out[p].size(), curves[p].size());
    for (std::size_t i = 0; i < out[p].size(); ++i) {
      const Solution &got = out[p][i], &want = curves[p][i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.req_time),
                std::bit_cast<std::uint64_t>(want.req_time));
      EXPECT_EQ(got.load, want.load);
      EXPECT_EQ(got.area, want.area);
      EXPECT_EQ(got.wirelen, want.wirelen);
    }
  }
  // Structure survives: follow the materialized merge point's DAG.
  const SolNodeId m2 = out[0][1].node;
  ASSERT_NE(m2, kNullSol);
  const SolNode& mn = other[m2];
  EXPECT_EQ(mn.kind, StepKind::kMerge);
  EXPECT_EQ(mn.at, (Point{9, 9}));
  const SolNode& bn = other[mn.b];
  EXPECT_EQ(bn.kind, StepKind::kBuffer);
  EXPECT_EQ(bn.idx, 1);
  // The shared wire child is one node, reachable from both parents.
  EXPECT_EQ(mn.a, bn.a);
  EXPECT_EQ(other[mn.a].wire_width, 2.0);
  EXPECT_EQ(out[1][0].node, kNullSol);
}

// ---------------------------------------------------------------------------
// CacheSession interface (the GammaCache const-correctness fix).
// ---------------------------------------------------------------------------

template <typename T, typename = void>
struct const_findable : std::false_type {};
template <typename T>
struct const_findable<T, std::void_t<decltype(std::declval<const T&>().find(
                             std::declval<const CacheKey&>()))>>
    : std::true_type {};

TEST(CacheSession, FindIsExplicitlyMutating) {
  // The old GammaCache::find was const but mutated `mutable` hit/miss
  // counters (and the cross-run reuse machinery grew a third hidden
  // mutation: shared-entry adoption).  The replacement makes the mutation
  // part of the signature: find() is simply not callable on a const session.
  static_assert(!const_findable<CacheSession>::value,
                "CacheSession::find must not be const — it mutates counters "
                "and may adopt shared entries");

  CacheSession ses(nullptr);
  EXPECT_EQ(ses.misses(), 0u);
  EXPECT_EQ(ses.find(key_of(1)), nullptr);
  EXPECT_EQ(ses.misses(), 1u);  // ...and the mutation is observable
  EXPECT_EQ(ses.hits(), 0u);
}

// ---------------------------------------------------------------------------
// Shared store (cache/shard.h).
// ---------------------------------------------------------------------------

TEST(CacheShard, StagedInsertPublishesThroughApply) {
  SubproblemCache shared(CacheConfig{1u << 20});
  ASSERT_TRUE(shared.enabled());

  SolutionArena arena;
  SolutionCurve curve;
  curve.push(Solution{1.0, 2.0, 3.0, 0.0, arena.make_sink(Point{1, 1}, 0)});
  const std::vector<SolutionCurve> curves{curve};
  const CacheKey key = key_of(99);

  CacheSession writer(&shared);
  writer.insert(key, curves, arena);
  EXPECT_EQ(writer.size(), 1u);
  // Staged only: nothing is visible in the shared store yet.
  EXPECT_EQ(shared.entry_count(), 0u);
  bool shared_hit = true;
  CacheSession probe(&shared);
  EXPECT_EQ(probe.find(key, &shared_hit), nullptr);
  EXPECT_FALSE(shared_hit);

  const CacheApplyOutcome out = shared.apply(writer.take_flush());
  EXPECT_EQ(out.staged, 1u);
  EXPECT_EQ(out.inserted, 1u);
  EXPECT_EQ(shared.entry_count(), 1u);
  EXPECT_EQ(shared.node_cost(), 1u);
  EXPECT_EQ(writer.size(), 0u);  // take_flush resets the session

  // A fresh session adopts: first find is a shared hit, the second local.
  CacheSession reader(&shared);
  const CacheEntry* e = reader.find(key, &shared_hit);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(shared_hit);
  EXPECT_EQ(e->key, key);
  EXPECT_EQ(reader.shared_hits(), 1u);
  e = reader.find(key, &shared_hit);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(shared_hit);
  EXPECT_EQ(reader.hits(), 2u);
  EXPECT_EQ(reader.shared_hits(), 1u);
  // Adopted entries are not re-published.
  const FlushBatch fb = reader.take_flush();
  EXPECT_TRUE(fb.staged.empty());
  ASSERT_EQ(fb.touched.size(), 1u);
  EXPECT_EQ(fb.touched[0], key);
}

TEST(CacheShard, CapacityZeroDisablesSharing) {
  SubproblemCache off(CacheConfig{0});
  EXPECT_FALSE(off.enabled());
  CacheSession ses(&off);
  EXPECT_EQ(ses.shared(), nullptr);  // detached: pure per-run scratch
}

TEST(CacheShard, EvictionIsCostAwareLruAndDeterministic) {
  // Budget 8 nodes.  Insert A(4), B(4), C(4): C's arrival overflows and
  // the LRU tail (A) is evicted.
  const CacheKey ka = key_of(1), kb = key_of(2), kc = key_of(3);
  const auto run = [&](bool touch_a) {
    SubproblemCache cache(CacheConfig{8});
    FlushBatch ab;
    ab.staged.push_back(chain_entry(ka, 4));
    ab.staged.push_back(chain_entry(kb, 4));
    (void)cache.apply(std::move(ab));
    FlushBatch cbatch;
    if (touch_a) cbatch.touched.push_back(ka);  // refresh A before C lands
    cbatch.staged.push_back(chain_entry(kc, 4));
    const CacheApplyOutcome out = cache.apply(std::move(cbatch));
    EXPECT_EQ(out.inserted, 1u);
    EXPECT_EQ(out.evicted, 1u);
    EXPECT_EQ(cache.entry_count(), 2u);
    EXPECT_EQ(cache.node_cost(), 8u);
    CacheEntry tmp;
    return std::pair{cache.lookup(ka, tmp), cache.lookup(kb, tmp)};
  };
  // Untouched: A is least recent and dies.  Touched: the refresh saves A
  // and B becomes the victim.  Both repeatable — eviction is a pure
  // function of the apply sequence.
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(run(false), (std::pair{false, true}));
    EXPECT_EQ(run(true), (std::pair{true, false}));
  }
}

TEST(CacheShard, DuplicateInsertsRefreshInsteadOfGrowing) {
  SubproblemCache cache(CacheConfig{64});
  FlushBatch first;
  first.staged.push_back(chain_entry(key_of(1), 3));
  (void)cache.apply(std::move(first));
  FlushBatch again;
  again.staged.push_back(chain_entry(key_of(1), 3));
  const CacheApplyOutcome out = cache.apply(std::move(again));
  EXPECT_EQ(out.duplicates, 1u);
  EXPECT_EQ(out.inserted, 0u);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.node_cost(), 3u);
}

TEST(CacheShard, OversizeEntriesAreRejected) {
  // Budget 4: a 5-node entry can never fit.
  SubproblemCache cache(CacheConfig{4});
  FlushBatch fb;
  fb.staged.push_back(chain_entry(key_of(7), 5));
  const CacheApplyOutcome out = cache.apply(std::move(fb));
  EXPECT_EQ(out.rejected, 1u);
  EXPECT_EQ(out.inserted, 0u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

// ---------------------------------------------------------------------------
// Batch-level determinism with the cache armed.
// ---------------------------------------------------------------------------

FlowConfig cheap_cfg() {
  FlowConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 1.0;
  cfg.candidates.max_candidates = 10;
  cfg.merlin.bubble.alpha = 3;
  cfg.merlin.bubble.inner_prune.max_solutions = 3;
  cfg.merlin.bubble.group_prune.max_solutions = 3;
  cfg.merlin.bubble.buffer_stride = 6;
  cfg.merlin.bubble.extension_neighbors = 4;
  cfg.merlin.max_iterations = 2;
  cfg.engine_prune.max_solutions = 4;
  return cfg;
}

const BufferLibrary& lib_ref() {
  static const BufferLibrary lib = make_standard_library();
  return lib;
}

Circuit cache_circuit(std::uint64_t seed) {
  CircuitSpec spec;
  spec.name = "cache" + std::to_string(seed);
  spec.n_gates = 18;
  spec.n_primary_inputs = 4;
  spec.max_fanout = 7;
  spec.seed = seed;
  return make_random_circuit(spec, lib_ref());
}

BatchResult run_cached(const Circuit& ckt, SubproblemCache* cache,
                       std::size_t threads, ObsSink* obs = nullptr) {
  BatchOptions opts;
  opts.threads = threads;
  opts.flow = FlowKind::kFlow3;
  opts.scaled_config = false;
  opts.config = cheap_cfg();
  opts.cache = cache;
  opts.obs = obs;
  return BatchRunner(lib_ref(), opts).run(ckt);
}

TEST(CacheDeterminism, ColdSharedCacheMatchesCacheOff) {
  // An empty shared store serves no lookup, so the very first armed run
  // must be bit-identical to a cache-off run — hit counts included.  (This
  // also holds under MERLIN_CACHE=off, where the armed run detaches.)
  const Circuit ckt = cache_circuit(501);
  const BatchResult off = run_cached(ckt, nullptr, 2);
  SubproblemCache shared(CacheConfig{1u << 22});
  const BatchResult on = run_cached(ckt, &shared, 2);
  EXPECT_TRUE(batch_results_identical(off, on));
}

TEST(CacheDeterminism, WarmRerunHitsSharedStoreWithIdenticalStructure) {
  if (cache_env_off()) GTEST_SKIP() << "MERLIN_CACHE=off disables sharing";
  CircuitSpec pinned;  // its store and adoption counts are pinned below
  pinned.name = "cache_pinned";
  pinned.n_gates = 26;
  pinned.n_primary_inputs = 5;
  pinned.max_fanout = 7;
  pinned.seed = 71;
  for (const Circuit& ckt :
       {cache_circuit(502), make_random_circuit(pinned, lib_ref())}) {
    SubproblemCache shared(CacheConfig{1u << 22});
    const BatchResult cold = run_cached(ckt, &shared, 2);
    const std::size_t entries = shared.entry_count();
    const std::uint64_t nodes = shared.node_cost();
    EXPECT_GT(entries, 0u);

    std::size_t memo_entries = 0;
    shared.for_each_entry_oldest_first([&](std::size_t, const CacheEntry& e) {
      if (e.merlin_loops > 0) ++memo_entries;
    });
    const std::size_t searched =
        cold.stats.det.net_count - cold.stats.det.trivial_nets;
    // One memo entry per searched net, next to its group entries.
    EXPECT_EQ(memo_entries, searched);

    ObsSink sink;
    const BatchResult warm = run_cached(ckt, &shared, 2, &sink);
    const std::uint64_t shared_hits =
        sink.counters.get(Counter::kCacheSharedHits);
    const std::uint64_t memo_hits = sink.counters.get(Counter::kNetMemoHits);
    // The warm run recomputes nothing: every searched net hits its memo
    // entry, so no Gamma lookup misses (the cold run missed)...
    EXPECT_EQ(memo_hits, searched);
    EXPECT_EQ(warm.stats.det.cache_misses, 0u);
    EXPECT_GT(cold.stats.det.cache_misses, 0u);
    EXPECT_EQ(shared_hits, 0u);
    // ...but produces the exact same trees, evals and circuit outcome.
    EXPECT_TRUE(batch_results_equivalent(cold, warm));

    if (ckt.name == pinned.name) {
      // Publish is serial and keys are canonical, so these are exact: the
      // 272 group entries (22,739 nodes) plus 9 memo entries (73 nodes).
      // Group entries hold 27,092 nodes when every layer call built its own
      // sink nodes; built once per construction, they are shared.
      EXPECT_EQ(entries, 281u);
      EXPECT_EQ(nodes, 22812u);
      EXPECT_EQ(memo_entries, 9u);
      EXPECT_EQ(memo_hits, 9u);
    }
  }
}

TEST(CacheDeterminism, WarmRunsAreThreadCountInvariant) {
  // Cold and warm passes at 1 thread vs 4 threads: results AND the shared
  // store's end state must be bit-identical — the serial-publish contract.
  const Circuit ckt = cache_circuit(503);
  SubproblemCache serial_cache(CacheConfig{1u << 22});
  const BatchResult serial_cold = run_cached(ckt, &serial_cache, 1);
  const BatchResult serial_warm = run_cached(ckt, &serial_cache, 1);

  SubproblemCache par_cache(CacheConfig{1u << 22});
  const BatchResult par_cold = run_cached(ckt, &par_cache, 4);
  const BatchResult par_warm = run_cached(ckt, &par_cache, 4);

  EXPECT_TRUE(batch_results_identical(serial_cold, par_cold));
  EXPECT_TRUE(batch_results_identical(serial_warm, par_warm));
  EXPECT_EQ(serial_cache.entry_count(), par_cache.entry_count());
  EXPECT_EQ(serial_cache.node_cost(), par_cache.node_cost());
}

TEST(CacheDeterminism, EvictionPressureKeepsRunsIdentical) {
  // A tiny budget forces constant eviction churn; determinism must hold
  // anyway (evictions happen in the serial publish, never during lookup).
  const Circuit ckt = cache_circuit(504);
  SubproblemCache a(CacheConfig{512});
  SubproblemCache b(CacheConfig{512});
  ObsSink sink;
  const BatchResult ra1 = run_cached(ckt, &a, 1, &sink);
  const BatchResult rb1 = run_cached(ckt, &b, 4);
  EXPECT_TRUE(batch_results_identical(ra1, rb1));
  const BatchResult ra2 = run_cached(ckt, &a, 1);
  const BatchResult rb2 = run_cached(ckt, &b, 4);
  EXPECT_TRUE(batch_results_identical(ra2, rb2));
  EXPECT_EQ(a.entry_count(), b.entry_count());
  EXPECT_EQ(a.node_cost(), b.node_cost());
  // ...and the budget really is under pressure (MERLIN_CACHE=off detaches
  // the store, so nothing is published there).
  if (!cache_env_off()) {
    EXPECT_GT(sink.counters.get(Counter::kCacheEntriesEvicted), 0u);
  }
}

// ---------------------------------------------------------------------------
// The one-writer rule (cache/shard.h): inside a read phase only lookup()
// may run.  The checks are assert()s, live in Debug and sanitizer builds.
// ---------------------------------------------------------------------------

#ifndef NDEBUG
TEST(CachePhaseDeathTest, ApplyOrWalkDuringAReadPhaseAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SubproblemCache cache(CacheConfig{64});
        cache.open_read_phase();
        FlushBatch fb;
        fb.staged.push_back(chain_entry(key_of(1), 3));
        (void)cache.apply(std::move(fb));
      },
      "during a read phase");
  EXPECT_DEATH(
      {
        SubproblemCache cache(CacheConfig{64});
        cache.open_read_phase();
        cache.for_each_entry_oldest_first(
            [](std::size_t, const CacheEntry&) {});
      },
      "during a read phase");
}
#endif

TEST(CacheShard, ReadPhaseAllowsLookupsAndClosesForThePublish) {
  SubproblemCache cache(CacheConfig{64});
  FlushBatch fb;
  fb.staged.push_back(chain_entry(key_of(1), 3));
  (void)cache.apply(std::move(fb));
  cache.open_read_phase();
  CacheEntry out;
  EXPECT_TRUE(cache.lookup(key_of(1), out));
  EXPECT_FALSE(cache.lookup(key_of(2), out));
  cache.close_read_phase();
  FlushBatch more;
  more.staged.push_back(chain_entry(key_of(2), 3));
  EXPECT_EQ(cache.apply(std::move(more)).inserted, 1u);
  EXPECT_EQ(cache.entry_count(), 2u);
}

}  // namespace
}  // namespace merlin
