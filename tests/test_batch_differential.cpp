// The batch engine's headline invariant, enforced: for randomized circuits,
// 1-thread and N-thread batch runs of every flow produce bit-identical
// results, and repeated N-thread runs agree with each other.  Determinism
// under concurrency is a contract here, not a hope.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "buflib/library.h"
#include "cache/shard.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "net/generator.h"
#include "obs/sink.h"

namespace merlin {
namespace {

// Small budgets: the differential property is independent of solution
// quality, so the 63 batch runs below stay fast.
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

Circuit random_circuit(std::size_t i, const BufferLibrary& lib) {
  CircuitSpec spec;
  spec.name = "diff" + std::to_string(i);
  spec.n_gates = 14 + (i * 5) % 12;  // 14..25 gates
  spec.n_primary_inputs = 4;
  spec.max_fanout = 7;
  spec.seed = 1000 + 77 * i;
  return make_random_circuit(spec, lib);
}

BatchResult run_batch(const Circuit& ckt, const BufferLibrary& lib,
                      FlowKind flow, std::size_t threads) {
  BatchOptions opts;
  opts.threads = threads;
  opts.flow = flow;
  opts.scaled_config = false;
  opts.config = cheap_cfg();
  return BatchRunner(lib, opts).run(ckt);
}

TEST(BatchDifferential, SerialVsParallelBitIdenticalAcrossFlows) {
  const BufferLibrary lib = make_standard_library();
  // >= 20 randomized circuits; flows I/II/III cycle across them so each
  // flow sees 7 different circuits.
  for (std::size_t i = 0; i < 21; ++i) {
    const Circuit ckt = random_circuit(i, lib);
    const auto flow = static_cast<FlowKind>(1 + i % 3);
    const BatchResult serial = run_batch(ckt, lib, flow, 1);
    ASSERT_GT(serial.stats.det.net_count, 0u);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const BatchResult parallel = run_batch(ckt, lib, flow, threads);
      EXPECT_EQ(parallel.stats.threads_used, threads);
      EXPECT_TRUE(batch_results_identical(serial, parallel))
          << "circuit " << i << " flow " << static_cast<int>(flow) << " at "
          << threads << " threads diverged from the serial run";
    }
  }
}

TEST(BatchDifferential, ArmedTracerPreservesBitIdentity) {
  // Instruments are purely observational: a run with an ObsSink attached
  // and the span ring armed, and a run under a NetGuard armed with budgets
  // it never reaches, must both be bit-identical to the bare run, serial
  // and parallel alike.
  const BufferLibrary lib = make_standard_library();
  for (std::size_t i = 0; i < 3; ++i) {
    const Circuit ckt = random_circuit(i, lib);
    const auto flow = static_cast<FlowKind>(1 + i % 3);
    const BatchResult bare = run_batch(ckt, lib, flow, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      ObsSink sink;
      sink.set_span_capacity(ObsSink::kDefaultSpanCapacity);
      BatchOptions opts;
      opts.threads = threads;
      opts.flow = flow;
      opts.scaled_config = false;
      opts.config = cheap_cfg();
      opts.obs = &sink;
      const BatchResult traced = BatchRunner(lib, opts).run(ckt);
      EXPECT_TRUE(batch_results_identical(bare, traced))
          << "circuit " << i << " flow " << static_cast<int>(flow) << " at "
          << threads << " threads changed under an armed tracer";
      EXPECT_GT(sink.spans().size(), 0u);

      opts.obs = nullptr;
      opts.guard.step_budget = std::uint64_t{1} << 40;
      opts.guard.arena_node_cap = ~std::uint32_t{0};
      const BatchResult guarded = BatchRunner(lib, opts).run(ckt);
      EXPECT_TRUE(batch_results_identical(bare, guarded))
          << "circuit " << i << " flow " << static_cast<int>(flow) << " at "
          << threads << " threads changed under an untripped guard";
    }
  }
}

TEST(BatchDifferential, SharedCacheSerialVsParallelBitIdentical) {
  // The cross-net SubproblemCache must not perturb the headline invariant:
  // with a shared store armed, serial and parallel Flow III runs stay
  // bit-identical — on the cold pass, on the warm pass, and in the store's
  // own end state (entries are published serially in net-id order).
  const BufferLibrary lib = make_standard_library();
  for (std::size_t i = 0; i < 3; ++i) {
    const Circuit ckt = random_circuit(i, lib);
    const auto run = [&](SubproblemCache* cache, std::size_t threads) {
      BatchOptions opts;
      opts.threads = threads;
      opts.flow = FlowKind::kFlow3;
      opts.scaled_config = false;
      opts.config = cheap_cfg();
      opts.cache = cache;
      return BatchRunner(lib, opts).run(ckt);
    };
    SubproblemCache serial_cache(CacheConfig{1u << 22});
    const BatchResult serial_cold = run(&serial_cache, 1);
    const std::size_t serial_entries = serial_cache.entry_count();
    const std::uint64_t serial_nodes = serial_cache.node_cost();
    const BatchResult serial_warm = run(&serial_cache, 1);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      SubproblemCache par_cache(CacheConfig{1u << 22});
      const BatchResult par_cold = run(&par_cache, threads);
      EXPECT_TRUE(batch_results_identical(serial_cold, par_cold))
          << "circuit " << i << ": cold cached run diverged at " << threads
          << " threads";
      EXPECT_EQ(par_cache.entry_count(), serial_entries);
      EXPECT_EQ(par_cache.node_cost(), serial_nodes);
      const BatchResult par_warm = run(&par_cache, threads);
      EXPECT_TRUE(batch_results_identical(serial_warm, par_warm))
          << "circuit " << i << ": warm cached run diverged at " << threads
          << " threads";
    }
  }
}

TEST(BatchDifferential, RepeatedParallelRunsAgree) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = random_circuit(3, lib);
  for (const FlowKind flow :
       {FlowKind::kFlow1, FlowKind::kFlow2, FlowKind::kFlow3}) {
    const BatchResult a = run_batch(ckt, lib, flow, 8);
    const BatchResult b = run_batch(ckt, lib, flow, 8);
    EXPECT_TRUE(batch_results_identical(a, b))
        << "flow " << static_cast<int>(flow)
        << ": two 8-thread runs disagreed";
  }
}

TEST(BatchDifferential, StepBudgetsPreserveBitIdentity) {
  // Budgets are part of the determinism contract: a deterministic step
  // budget trips the same nets at the same point under every thread count,
  // so budget-enabled runs must still be bit-identical.
  const BufferLibrary lib = make_standard_library();
  for (std::size_t i : {std::size_t{1}, std::size_t{4}}) {
    const Circuit ckt = random_circuit(i, lib);
    BatchOptions opts;
    opts.flow = FlowKind::kFlow2;
    opts.scaled_config = false;
    opts.config = cheap_cfg();
    opts.guard.step_budget = 800;  // tight enough to trip the larger nets
    opts.threads = 1;
    const BatchResult serial = BatchRunner(lib, opts).run(ckt);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      opts.threads = threads;
      const BatchResult parallel = BatchRunner(lib, opts).run(ckt);
      EXPECT_TRUE(batch_results_identical(serial, parallel))
          << "circuit " << i << " with step budget diverged at " << threads
          << " threads";
    }
  }
}

TEST(BatchDifferential, BudgetTrippedNetDegradesToAValidTreeEverywhere) {
  // A net the configured flow cannot finish inside the budget must end
  // `degraded` with a legal tree — and identically so at 1, 2 and 8 threads.
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = random_circuit(2, lib);
  BatchOptions opts;
  opts.flow = FlowKind::kFlow3;
  opts.scaled_config = false;
  opts.config = cheap_cfg();
  opts.guard.step_budget = 60;  // far below what flow III needs on any net

  BatchResult runs[3];
  const std::size_t thread_counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    opts.threads = thread_counts[t];
    runs[t] = BatchRunner(lib, opts).run(ckt);
  }
  const BatchStatsDet& d = runs[0].stats.det;
  EXPECT_GT(d.nets_degraded, 0u) << "the budget must trip some net";
  EXPECT_EQ(d.nets_failed, 0u);
  EXPECT_GT(d.budget_trips, 0u);
  for (const BatchNetResult& n : runs[0].nets) {
    EXPECT_GT(n.result.tree.size(), 1u) << "net " << n.net_id;
    if (n.status == NetStatus::kDegraded) {
      EXPECT_GE(n.attempts, 2u);
      EXPECT_FALSE(n.error.empty());
    }
  }
  EXPECT_TRUE(batch_results_identical(runs[0], runs[1]));
  EXPECT_TRUE(batch_results_identical(runs[0], runs[2]));
}

TEST(BatchDifferential, RawNetListsAreDeterministicToo) {
  const BufferLibrary lib = make_standard_library();
  std::vector<Net> nets;
  for (std::size_t i = 0; i < 12; ++i) {
    NetSpec spec;
    spec.name = "raw" + std::to_string(i);
    spec.n_sinks = 1 + (i * 3) % 7;
    spec.seed = 500 + i;
    nets.push_back(make_random_net(spec, lib));
  }
  BatchOptions opts;
  opts.scaled_config = false;
  opts.config = cheap_cfg();
  opts.threads = 1;
  const BatchResult serial = BatchRunner(lib, opts).run_nets(nets);
  opts.threads = 8;
  const BatchResult parallel = BatchRunner(lib, opts).run_nets(nets);
  ASSERT_EQ(serial.nets.size(), nets.size());
  EXPECT_TRUE(batch_results_identical(serial, parallel));
}

}  // namespace
}  // namespace merlin
