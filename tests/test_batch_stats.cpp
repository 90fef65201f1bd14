// The batch runner's aggregate observability report is itself under test:
// net counts, per-net wall-time aggregates, cache totals, buffer totals and
// the circuit-level merge must all be consistent with the per-net results.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "net/generator.h"
#include "runtime/faultinject.h"

namespace merlin {
namespace {

FlowConfig tiny_cfg() {
  FlowConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 1.0;
  cfg.candidates.max_candidates = 10;
  cfg.merlin.bubble.alpha = 3;
  cfg.merlin.bubble.inner_prune.max_solutions = 3;
  cfg.merlin.bubble.group_prune.max_solutions = 3;
  cfg.merlin.bubble.buffer_stride = 6;
  cfg.merlin.max_iterations = 2;
  cfg.engine_prune.max_solutions = 4;
  return cfg;
}

Circuit small_circuit(const BufferLibrary& lib) {
  CircuitSpec spec;
  spec.name = "stats";
  spec.n_gates = 20;
  spec.n_primary_inputs = 4;
  spec.seed = 9001;
  return make_random_circuit(spec, lib);
}

// Every construction attempt throws: a rate-1.0 throw fault at the start of
// each attempt (batch.net), before any flow runs.
FaultInjector always_throw() {
  FaultPlan plan;
  plan.kind = FaultKind::kThrow;
  plan.rate = 1.0;
  plan.site = FaultSite::kBatchNet;
  return FaultInjector(plan);
}

BatchResult run(const Circuit& ckt, const BufferLibrary& lib, FlowKind flow) {
  BatchOptions opts;
  opts.threads = 2;
  opts.flow = flow;
  opts.scaled_config = false;
  opts.config = tiny_cfg();
  return BatchRunner(lib, opts).run(ckt);
}

TEST(BatchStats, CountsAndOrderingMatchPerNetResults) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = small_circuit(lib);
  const BatchResult r = run(ckt, lib, FlowKind::kFlow3);

  EXPECT_EQ(r.stats.det.net_count, r.nets.size());
  EXPECT_EQ(r.stats.det.net_count, extract_circuit_nets(ckt, lib).size());
  EXPECT_EQ(r.stats.threads_used, 2u);

  std::size_t trivial = 0;
  for (std::size_t i = 0; i < r.nets.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(r.nets[i - 1].net_id, r.nets[i].net_id);  // sorted
    }
    if (r.nets[i].trivial) ++trivial;
  }
  EXPECT_EQ(r.stats.det.trivial_nets, trivial);
}

TEST(BatchStats, WallTimeAggregatesAreConsistent) {
  const BufferLibrary lib = make_standard_library();
  const BatchResult r = run(small_circuit(lib), lib, FlowKind::kFlow3);

  double total = 0.0, max_ms = 0.0;
  for (const BatchNetResult& n : r.nets) {
    EXPECT_GE(n.wall_ms, 0.0);
    total += n.wall_ms;
    max_ms = std::max(max_ms, n.wall_ms);
  }
  EXPECT_DOUBLE_EQ(r.stats.total_net_ms, total);
  EXPECT_DOUBLE_EQ(r.stats.max_net_ms, max_ms);
  EXPECT_NEAR(r.stats.mean_net_ms,
              total / static_cast<double>(r.stats.det.net_count), 1e-12);
  EXPECT_GE(r.stats.max_net_ms, r.stats.mean_net_ms);
  EXPECT_GE(r.stats.wall_ms, 0.0);
}

TEST(BatchStats, CacheAndBufferTotalsSumPerNetFields) {
  const BufferLibrary lib = make_standard_library();
  const BatchResult r = run(small_circuit(lib), lib, FlowKind::kFlow3);

  std::size_t hits = 0, misses = 0, buffers = 0;
  double area = 0.0;
  for (const BatchNetResult& n : r.nets) {
    hits += n.result.cache_hits;
    misses += n.result.cache_misses;
    buffers += n.result.eval.buffer_count;
    area += n.result.eval.buffer_area;
  }
  EXPECT_EQ(r.stats.det.cache_hits, hits);
  EXPECT_EQ(r.stats.det.cache_misses, misses);
  EXPECT_EQ(r.stats.det.buffers_inserted, buffers);
  EXPECT_DOUBLE_EQ(r.stats.det.buffer_area, area);
  // Flow III with subproblem reuse on a multi-net circuit touches the cache.
  EXPECT_GT(hits + misses, 0u);
}

TEST(BatchStats, CircuitMergeMatchesStats) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = small_circuit(lib);
  const BatchResult r = run(ckt, lib, FlowKind::kFlow2);

  EXPECT_EQ(r.circuit.nets_routed, r.stats.det.net_count);
  EXPECT_EQ(r.circuit.buffers_inserted, r.stats.det.buffers_inserted);
  // Circuit area = inserted buffer area + gate area (trivial nets add none).
  EXPECT_NEAR(r.circuit.area, r.stats.det.buffer_area + ckt.gate_area(lib), 1e-9);
  EXPECT_GT(r.circuit.delay_ps, 0.0);
}

TEST(BatchStats, FlowsWithoutCacheReportZeroTotals) {
  const BufferLibrary lib = make_standard_library();
  const BatchResult r = run(small_circuit(lib), lib, FlowKind::kFlow1);
  EXPECT_EQ(r.stats.det.cache_hits, 0u);
  EXPECT_EQ(r.stats.det.cache_misses, 0u);
}

TEST(BatchStats, WorkerExceptionsPropagateToTheCallerUnderAbortPolicy) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = small_circuit(lib);
  BatchOptions opts;
  opts.threads = 4;
  opts.fail_policy = FailPolicy::kAbort;
  const FaultInjector throws = always_throw();
  opts.inject = &throws;
  EXPECT_THROW(BatchRunner(lib, opts).run(ckt), std::runtime_error);
}

TEST(BatchStats, DefaultPolicyRescuesThrowingConstructorsWithStarTrees) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = small_circuit(lib);
  BatchOptions opts;
  opts.threads = 4;
  const FaultInjector throws = always_throw();
  opts.inject = &throws;
  const BatchResult r = BatchRunner(lib, opts).run(ckt);
  EXPECT_EQ(r.stats.det.nets_ok + r.stats.det.nets_degraded,
            r.stats.det.net_count);
  for (const BatchNetResult& n : r.nets) {
    if (n.trivial) continue;
    EXPECT_EQ(n.status, NetStatus::kDegraded) << "net " << n.net_id;
    EXPECT_FALSE(n.error.empty());
    EXPECT_GT(n.result.tree.size(), 1u);
  }
  EXPECT_TRUE(std::isfinite(r.circuit.delay_ps));
}

TEST(BatchStats, ToStringMentionsTheHeadlineNumbers) {
  const BufferLibrary lib = make_standard_library();
  const BatchResult r = run(small_circuit(lib), lib, FlowKind::kFlow3);
  const std::string s = r.stats.to_string();
  EXPECT_NE(s.find("nets=" + std::to_string(r.stats.det.net_count)), std::string::npos);
  EXPECT_NE(s.find("threads=2"), std::string::npos);
  EXPECT_NE(s.find("cache"), std::string::npos);
}

}  // namespace
}  // namespace merlin
