// The per-net result memo (flow/batch.h, net_memo_key): a Flow III net
// whose full input signature is already in the shared SubproblemCache is
// answered from its stored chosen solution without running MERLIN.  These
// tests hold the memo to its contract: the key covers every input a result
// depends on and nothing else (not the net id), a memo answer is
// digest-identical to a computed one however it was warmed, an edited net
// misses while its unchanged neighbours hit, and an armed fault injector
// bypasses the memo.  Tests that need the shared store skip under
// MERLIN_CACHE=off, like the CacheDeterminism suite next door.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "buflib/library.h"
#include "cache/shard.h"
#include "cache/snapshot.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "net/generator.h"
#include "obs/sink.h"
#include "ptree/range_dp.h"
#include "runtime/faultinject.h"

namespace merlin {
namespace {

const BufferLibrary& lib_ref() {
  static const BufferLibrary lib = make_standard_library();
  return lib;
}

Net sample_net(std::size_t sinks, std::uint64_t seed) {
  NetSpec spec;
  spec.n_sinks = sinks;
  spec.seed = seed;
  return make_random_net(spec, lib_ref());
}

Circuit memo_circuit() {
  CircuitSpec spec;
  spec.name = "memo";
  spec.n_gates = 14;
  spec.n_primary_inputs = 4;
  spec.max_fanout = 5;
  spec.seed = 29;
  return make_random_circuit(spec, lib_ref());
}

/// A Flow III batch with the daemon's defaults (scaled per-fanout config).
BatchOptions memo_options(SubproblemCache* cache, std::size_t threads,
                          ObsSink* obs = nullptr) {
  BatchOptions opts;
  opts.threads = threads;
  opts.flow = FlowKind::kFlow3;
  opts.cache = cache;
  opts.obs = obs;
  return opts;
}

std::size_t searched_nets(const BatchResult& r) {
  return r.stats.det.net_count - r.stats.det.trivial_nets;
}

CacheConfig memo_cache_config() { return CacheConfig{1u << 22}; }

TEST(NetMemo, EveryKeyInputMovesTheKey) {
  const BufferLibrary& lib = lib_ref();
  const Net net = sample_net(5, 11);
  const FlowConfig cfg = scaled_flow_config(net.fanout());
  const GuardConfig guard{};
  const CacheKey base = net_memo_key(net, lib, cfg, guard);

  std::vector<std::pair<std::string, CacheKey>> keys;
  const auto net_edit = [&](const std::string& what, auto edit) {
    Net n = net;
    edit(n);
    keys.emplace_back(what, net_memo_key(n, lib, cfg, guard));
  };
  const auto cfg_edit = [&](const std::string& what, auto edit) {
    FlowConfig c = cfg;
    edit(c);
    keys.emplace_back(what, net_memo_key(net, lib, c, guard));
  };
  const auto guard_edit = [&](const std::string& what, auto edit) {
    GuardConfig g = guard;
    edit(g);
    keys.emplace_back(what, net_memo_key(net, lib, cfg, g));
  };
  const auto lib_edit = [&](const std::string& what, auto edit) {
    std::vector<Buffer> cells(lib.begin(), lib.end());
    edit(cells);
    keys.emplace_back(what, net_memo_key(net, BufferLibrary(cells), cfg, guard));
  };

  net_edit("source.x", [](Net& n) { n.source.x += 1; });
  net_edit("source.y", [](Net& n) { n.source.y += 1; });
  net_edit("driver.p0", [](Net& n) { n.driver.delay.p0 += 0.5; });
  net_edit("driver.p1", [](Net& n) { n.driver.delay.p1 += 0.5; });
  net_edit("driver.p2", [](Net& n) { n.driver.delay.p2 += 0.5; });
  net_edit("driver.p3", [](Net& n) { n.driver.delay.p3 += 0.5; });
  for (std::size_t i = 0; i < net.fanout(); ++i) {
    const std::string s = "sink" + std::to_string(i);
    net_edit(s + ".x", [i](Net& n) { n.sinks[i].pos.x += 1; });
    net_edit(s + ".y", [i](Net& n) { n.sinks[i].pos.y += 1; });
    net_edit(s + ".load", [i](Net& n) { n.sinks[i].load += 0.25; });
    net_edit(s + ".req", [i](Net& n) { n.sinks[i].req_time += 1.0; });
  }
  net_edit("sink order", [](Net& n) { std::swap(n.sinks[0], n.sinks[1]); });
  net_edit("extra sink", [](Net& n) { n.sinks.push_back(n.sinks[0]); });
  net_edit("wire.res", [](Net& n) { n.wire.res_per_um *= 1.5; });
  net_edit("wire.cap", [](Net& n) { n.wire.cap_per_um *= 1.5; });
  lib_edit("cell.input_cap", [](std::vector<Buffer>& c) { c[3].input_cap += 0.1; });
  lib_edit("cell.area", [](std::vector<Buffer>& c) { c[3].area += 0.1; });
  lib_edit("cell.delay", [](std::vector<Buffer>& c) { c[3].delay.p1 += 0.1; });
  lib_edit("cell dropped", [](std::vector<Buffer>& c) { c.pop_back(); });

  // The realized candidate set is what the key hashes, so the option
  // change below is one that moves the set.
  FlowConfig fewer = cfg;
  fewer.candidates.max_candidates = net.fanout() + 2;
  ASSERT_NE(route_candidates(net, fewer.candidates).pts,
            route_candidates(net, cfg.candidates).pts);
  cfg_edit("candidates", [&](FlowConfig& c) { c.candidates = fewer.candidates; });
  cfg_edit("objective.mode", [](FlowConfig& c) {
    c.merlin.bubble.objective.mode = ObjectiveMode::kMinArea;
  });
  cfg_edit("objective.area_limit",
           [](FlowConfig& c) { c.merlin.bubble.objective.area_limit = 50.0; });
  cfg_edit("objective.req_target",
           [](FlowConfig& c) { c.merlin.bubble.objective.req_target = 10.0; });
  cfg_edit("max_iterations", [](FlowConfig& c) { c.merlin.max_iterations += 1; });
  cfg_edit("reuse_subproblems",
           [](FlowConfig& c) { c.merlin.reuse_subproblems = false; });
  cfg_edit("inner_prune cap",
           [](FlowConfig& c) { c.merlin.bubble.inner_prune.max_solutions += 1; });
  cfg_edit("group_prune cap",
           [](FlowConfig& c) { c.merlin.bubble.group_prune.max_solutions += 1; });
  cfg_edit("group_prune quantum",
           [](FlowConfig& c) { c.merlin.bubble.group_prune.load_quantum = 0.5; });
  cfg_edit("alpha", [](FlowConfig& c) { c.merlin.bubble.alpha += 1; });
  cfg_edit("buffer_stride", [](FlowConfig& c) { c.merlin.bubble.buffer_stride += 1; });
  cfg_edit("extension_neighbors",
           [](FlowConfig& c) { c.merlin.bubble.extension_neighbors += 1; });
  cfg_edit("enable_bubbling",
           [](FlowConfig& c) { c.merlin.bubble.enable_bubbling = false; });
  cfg_edit("allow_unbuffered_groups",
           [](FlowConfig& c) { c.merlin.bubble.allow_unbuffered_groups = false; });
  cfg_edit("wire_widths",
           [](FlowConfig& c) { c.merlin.bubble.wire_widths = {1.0, 2.0}; });
  cfg_edit("max_internal_children",
           [](FlowConfig& c) { c.merlin.bubble.max_internal_children = 2; });
  guard_edit("step_budget", [](GuardConfig& g) { g.step_budget = 1u << 20; });
  guard_edit("arena_node_cap", [](GuardConfig& g) { g.arena_node_cap = 1u << 20; });

  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FALSE(keys[i].second == base) << keys[i].first;
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_FALSE(keys[i].second == keys[j].second)
          << keys[i].first << " vs " << keys[j].first;
  }
}

TEST(NetMemo, WhatCannotReachTheResultLeavesTheKeyAlone) {
  const BufferLibrary& lib = lib_ref();
  const Net net = sample_net(5, 11);
  const FlowConfig cfg = scaled_flow_config(net.fanout());
  const CacheKey base = net_memo_key(net, lib, cfg, GuardConfig{});

  Net renamed = net;
  renamed.name = "elsewhere";
  renamed.driver.name = "OTHER";
  renamed.driver.out_slew.p0 += 3.0;
  EXPECT_TRUE(net_memo_key(renamed, lib, cfg, GuardConfig{}) == base);

  GuardConfig deadline;
  deadline.deadline_ms = 250.0;
  EXPECT_TRUE(net_memo_key(net, lib, cfg, deadline) == base);

  FlowConfig other = cfg;
  other.engine_prune.max_solutions += 3;  // Flows I/II only
  other.merlin.bubble.candidates.max_candidates = 3;  // overwritten by Flow III
  ObsSink sink;
  other.obs = &sink;
  EXPECT_TRUE(net_memo_key(net, lib, other, GuardConfig{}) == base);
}

TEST(NetMemo, AnIdenticalNetUnderAnotherIdHitsItsEntry) {
  if (cache_env_off()) GTEST_SKIP() << "MERLIN_CACHE=off disables sharing";
  const Net a = sample_net(5, 11);
  const Net b = sample_net(4, 12);
  const Net c = sample_net(4, 13);
  SubproblemCache shared(memo_cache_config());
  const BatchResult cold =
      BatchRunner(lib_ref(), memo_options(&shared, 2)).run_nets({a, b});

  // Net a again, now as net 1 of another batch.
  ObsSink sink;
  const BatchResult warm =
      BatchRunner(lib_ref(), memo_options(&shared, 2, &sink)).run_nets({c, a});
  EXPECT_EQ(sink.counters.get(Counter::kNetMemoHits), 1u);
  EXPECT_EQ(warm.nets[1].net_id, 1u);
  EXPECT_EQ(warm.nets[1].result.merlin_loops, cold.nets[0].result.merlin_loops);
  EXPECT_EQ(warm.nets[1].result.cache_misses, 0u);

  // Bit-identical to computing it there.
  const BatchResult off =
      BatchRunner(lib_ref(), memo_options(nullptr, 2)).run_nets({c, a});
  EXPECT_TRUE(batch_results_equivalent(off, warm));
  EXPECT_EQ(batch_result_digest(off), batch_result_digest(warm));
}

TEST(NetMemo, DigestIsTheSameColdWarmOffRestoredAndAtAnyThreadCount) {
  if (cache_env_off()) GTEST_SKIP() << "MERLIN_CACHE=off disables sharing";
  const Circuit ckt = memo_circuit();
  const std::uint64_t off =
      batch_result_digest(BatchRunner(lib_ref(), memo_options(nullptr, 1)).run(ckt));

  SubproblemCache serial(memo_cache_config());
  SubproblemCache parallel(memo_cache_config());
  const BatchResult cold1 = BatchRunner(lib_ref(), memo_options(&serial, 1)).run(ckt);
  const BatchResult cold4 = BatchRunner(lib_ref(), memo_options(&parallel, 4)).run(ckt);
  EXPECT_EQ(batch_result_digest(cold1), off);
  EXPECT_EQ(batch_result_digest(cold4), off);
  // The serial publish makes the stores equal too, memo entries included.
  EXPECT_EQ(serial.entry_count(), parallel.entry_count());
  EXPECT_EQ(serial.node_cost(), parallel.node_cost());

  for (const std::size_t threads : {1u, 4u}) {
    ObsSink sink;
    const BatchResult warm =
        BatchRunner(lib_ref(), memo_options(&serial, threads, &sink)).run(ckt);
    EXPECT_EQ(batch_result_digest(warm), off) << threads << " threads";
    EXPECT_EQ(sink.counters.get(Counter::kNetMemoHits), searched_nets(warm));
    EXPECT_EQ(sink.counters.get(Counter::kMerlinIterations), 0u);
  }

  // A snapshot carries the memo entries: a restored store answers warm.
  char tmpl[] = "/tmp/merlin_netmemo_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/cache.snap";
  ASSERT_TRUE(save_cache_snapshot(serial, path));
  SubproblemCache restored(memo_cache_config());
  const SnapshotLoadResult loaded = load_cache_snapshot(restored, path);
  std::remove(path.c_str());
  ::rmdir(dir);
  ASSERT_TRUE(loaded.loaded()) << loaded.detail;
  EXPECT_EQ(restored.entry_count(), serial.entry_count());
  ObsSink sink;
  const BatchResult again =
      BatchRunner(lib_ref(), memo_options(&restored, 2, &sink)).run(ckt);
  EXPECT_EQ(batch_result_digest(again), off);
  EXPECT_EQ(sink.counters.get(Counter::kNetMemoHits), searched_nets(again));
}

TEST(NetMemo, EcoResubmissionMissesOnlyTheEditedNet) {
  if (cache_env_off()) GTEST_SKIP() << "MERLIN_CACHE=off disables sharing";
  std::vector<Net> nets;
  for (std::uint64_t s = 0; s < 6; ++s) nets.push_back(sample_net(3 + s % 4, 40 + s));
  SubproblemCache shared(memo_cache_config());
  (void)BatchRunner(lib_ref(), memo_options(&shared, 2)).run_nets(nets);

  // The ECO: one sink of net 2 gets a later required time.  Its candidate
  // set is unchanged, so the groups that leave that sink out keep their
  // keys and come from the group store.
  std::vector<Net> eco = nets;
  eco[2].sinks[0].req_time += 40.0;
  ObsSink sink;
  const BatchResult warm =
      BatchRunner(lib_ref(), memo_options(&shared, 2, &sink)).run_nets(eco);
  EXPECT_EQ(sink.counters.get(Counter::kNetMemoHits), nets.size() - 1);
  EXPECT_EQ(sink.counters.get(Counter::kMerlinIterations),
            warm.nets[2].result.merlin_loops);
  EXPECT_GT(sink.counters.get(Counter::kCacheSharedHits), 0u);
  for (std::size_t i = 0; i < warm.nets.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(warm.nets[i].result.cache_misses, 0u) << i;
  }

  const BatchResult off =
      BatchRunner(lib_ref(), memo_options(nullptr, 2)).run_nets(eco);
  EXPECT_EQ(batch_result_digest(warm), batch_result_digest(off));
}

TEST(NetMemo, AnArmedInjectorBypassesTheMemo) {
  if (cache_env_off()) GTEST_SKIP() << "MERLIN_CACHE=off disables sharing";
  const Circuit ckt = memo_circuit();
  SubproblemCache shared(memo_cache_config());
  const BatchResult cold = BatchRunner(lib_ref(), memo_options(&shared, 2)).run(ckt);

  // Armed but never firing: the chaos path without its faults.  Every net
  // runs the DP again and ends where the cold run did.
  FaultPlan plan;
  plan.kind = FaultKind::kThrow;
  plan.rate = 0.0;
  const FaultInjector quiet(plan);
  ObsSink sink;
  BatchOptions opts = memo_options(&shared, 2, &sink);
  opts.inject = &quiet;
  const BatchResult armed = BatchRunner(lib_ref(), opts).run(ckt);
  EXPECT_EQ(sink.counters.get(Counter::kNetMemoHits), 0u);
  EXPECT_GT(sink.counters.get(Counter::kMerlinIterations), 0u);
  EXPECT_EQ(batch_result_digest(armed), batch_result_digest(cold));
}

TEST(NetMemo, FlowsOneAndTwoNeitherReadNorWriteIt) {
  if (cache_env_off()) GTEST_SKIP() << "MERLIN_CACHE=off disables sharing";
  const Circuit ckt = memo_circuit();
  for (const FlowKind flow : {FlowKind::kFlow1, FlowKind::kFlow2}) {
    SubproblemCache shared(memo_cache_config());
    BatchOptions opts = memo_options(&shared, 2);
    opts.flow = flow;
    (void)BatchRunner(lib_ref(), opts).run(ckt);
    ObsSink sink;
    opts.obs = &sink;
    (void)BatchRunner(lib_ref(), opts).run(ckt);
    EXPECT_EQ(shared.entry_count(), 0u);
    EXPECT_EQ(sink.counters.get(Counter::kNetMemoHits), 0u);
  }
}

}  // namespace
}  // namespace merlin
