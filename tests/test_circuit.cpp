// Unit + integration tests: the synthetic circuit substrate and its static
// timing analysis (the Table-2 full-flow harness).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"

namespace merlin {
namespace {

CircuitSpec small_spec(std::uint64_t seed = 1) {
  CircuitSpec spec;
  spec.name = "tiny";
  spec.n_gates = 40;
  spec.n_primary_inputs = 5;
  spec.seed = seed;
  return spec;
}

// A cheap stand-in for the optimizers: a throw fault at every net's first
// fault site, under the skip policy, leaves each multi-sink net with the
// unbuffered star (source wired straight to every sink).  Keeps circuit
// tests fast and independent of the optimizers.
CircuitFlowResult run_star(const Circuit& ckt, const BufferLibrary& lib) {
  FaultPlan plan;
  plan.kind = FaultKind::kThrow;
  plan.rate = 1.0;
  plan.site = FaultSite::kBatchNet;
  const FaultInjector inject(plan);
  BatchOptions opts;
  opts.fail_policy = FailPolicy::kSkip;
  opts.inject = &inject;
  return BatchRunner(lib, opts).run(ckt).circuit;
}

// Small Flow II budgets: these tests check the harness, not route quality.
BatchOptions cheap_flow2() {
  BatchOptions opts;
  opts.flow = FlowKind::kFlow2;
  opts.scaled_config = false;
  opts.config.candidates.policy = CandidatePolicy::kReducedHanan;
  opts.config.candidates.budget_factor = 1.0;
  opts.config.candidates.max_candidates = 10;
  opts.config.engine_prune.max_solutions = 4;
  return opts;
}

TEST(Circuit, GeneratorIsDeterministic) {
  const BufferLibrary lib = make_standard_library();
  const Circuit a = make_random_circuit(small_spec(), lib);
  const Circuit b = make_random_circuit(small_spec(), lib);
  ASSERT_EQ(a.gates.size(), b.gates.size());
  for (std::size_t i = 0; i < a.gates.size(); ++i) {
    EXPECT_EQ(a.gates[i].pos, b.gates[i].pos);
    EXPECT_EQ(a.gates[i].cell, b.gates[i].cell);
    EXPECT_EQ(a.gates[i].fanins, b.gates[i].fanins);
  }
}

TEST(Circuit, TopologicalAndInsideDie) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = make_random_circuit(small_spec(3), lib);
  for (std::size_t gi = 0; gi < ckt.gates.size(); ++gi) {
    for (std::uint32_t f : ckt.gates[gi].fanins) EXPECT_LT(f, gi);
    EXPECT_GE(ckt.gates[gi].pos.x, 0);
    EXPECT_LE(ckt.gates[gi].pos.x, ckt.die_side);
    EXPECT_GE(ckt.gates[gi].pos.y, 0);
    EXPECT_LE(ckt.gates[gi].pos.y, ckt.die_side);
  }
}

TEST(Circuit, PrimaryStructure) {
  const BufferLibrary lib = make_standard_library();
  const CircuitSpec spec = small_spec(5);
  const Circuit ckt = make_random_circuit(spec, lib);
  std::size_t pos = 0, pis = 0;
  for (std::size_t gi = 0; gi < ckt.gates.size(); ++gi) {
    if (ckt.gates[gi].is_primary_output) ++pos;
    if (ckt.gates[gi].fanins.empty()) ++pis;
  }
  EXPECT_GE(pis, spec.n_primary_inputs);
  EXPECT_GE(pos, 1u);
  // Logic gates always have at least one fanin.
  for (std::size_t gi = spec.n_primary_inputs; gi < ckt.gates.size(); ++gi)
    EXPECT_GE(ckt.gates[gi].fanins.size(), 1u) << gi;
}

TEST(Circuit, FanoutCapRespected) {
  const BufferLibrary lib = make_standard_library();
  CircuitSpec spec = small_spec(7);
  spec.n_gates = 120;
  spec.max_fanout = 6;
  const Circuit ckt = make_random_circuit(spec, lib);
  std::vector<std::size_t> fanout(ckt.gates.size(), 0);
  for (const Gate& g : ckt.gates)
    for (std::uint32_t f : g.fanins) ++fanout[f];
  for (std::size_t c : fanout) EXPECT_LE(c, 6u);
}

TEST(Circuit, GateAreaSumsCells) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = make_random_circuit(small_spec(), lib);
  double a = 0;
  for (const Gate& g : ckt.gates) a += lib[g.cell].area;
  EXPECT_DOUBLE_EQ(ckt.gate_area(lib), a);
}

TEST(CircuitFlow, StaProducesPositiveDelay) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = make_random_circuit(small_spec(), lib);
  const CircuitFlowResult r = run_star(ckt, lib);
  EXPECT_GT(r.delay_ps, 0.0);
  EXPECT_GT(r.area, ckt.gate_area(lib) - 1e-9);  // >= gate area
  EXPECT_GT(r.nets_routed, 0u);
}

TEST(CircuitFlow, DeterministicAcrossRuns) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = make_random_circuit(small_spec(11), lib);
  const CircuitFlowResult a = run_star(ckt, lib);
  const CircuitFlowResult b = run_star(ckt, lib);
  EXPECT_DOUBLE_EQ(a.delay_ps, b.delay_ps);
  EXPECT_DOUBLE_EQ(a.area, b.area);
}

TEST(CircuitFlow, BufferedFlowReducesCircuitDelay) {
  // Inserting buffers on multi-sink nets must not slow the circuit down
  // dramatically; here we just verify the harness reacts to the flow choice.
  const BufferLibrary lib = make_standard_library();
  CircuitSpec spec = small_spec(13);
  spec.n_gates = 60;
  const Circuit ckt = make_random_circuit(spec, lib);

  const CircuitFlowResult plain = run_star(ckt, lib);
  const CircuitFlowResult buf = BatchRunner(lib, cheap_flow2()).run(ckt).circuit;
  EXPECT_GT(buf.buffers_inserted, 0u);
  EXPECT_GT(buf.area, plain.area);
  // Both are valid implementations of the same circuit.
  EXPECT_GT(buf.delay_ps, 0.0);
}

TEST(CircuitFlow, ReqCompressionReachesTheBatch) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = make_random_circuit(small_spec(17), lib);

  // Compression halves each net's required-time spread toward its maximum.
  const std::vector<CircuitNet> raw = extract_circuit_nets(ckt, lib);
  const std::vector<CircuitNet> half = extract_circuit_nets(ckt, lib, 0.5);
  ASSERT_EQ(raw.size(), half.size());
  std::size_t spread_nets = 0;
  for (std::size_t n = 0; n < raw.size(); ++n) {
    const std::vector<Sink>& rs = raw[n].net.sinks;
    const std::vector<Sink>& hs = half[n].net.sinks;
    ASSERT_EQ(raw[n].driver_gate, half[n].driver_gate);
    ASSERT_EQ(rs.size(), hs.size());
    double max_req = rs[0].req_time;
    for (const Sink& s : rs) max_req = std::max(max_req, s.req_time);
    bool spread = false;
    for (std::size_t k = 0; k < rs.size(); ++k) {
      EXPECT_DOUBLE_EQ(hs[k].req_time,
                       max_req - (max_req - rs[k].req_time) * 0.5)
          << "net " << raw[n].driver_gate << " sink " << k;
      EXPECT_EQ(hs[k].pos, rs[k].pos);
      spread = spread || rs[k].req_time != max_req;
    }
    if (spread) ++spread_nets;
  }
  ASSERT_GT(spread_nets, 0u) << "no net has a required-time spread to halve";

  // BatchOptions::req_compression reaches the extraction: the compressed
  // run differs from the raw one and equals a run of the extracted nets.
  // The explicit never-firing injector keeps MERLIN_INJECT out, since it
  // decides by net id and run_nets numbers nets by index.
  const FaultInjector never(FaultPlan{});
  BatchOptions opts = cheap_flow2();
  opts.inject = &never;
  const BatchResult plain = BatchRunner(lib, opts).run(ckt);
  opts.req_compression = 0.5;
  const BatchResult compressed = BatchRunner(lib, opts).run(ckt);
  EXPECT_NE(batch_result_digest(compressed), batch_result_digest(plain));

  std::vector<Net> nets;
  for (const CircuitNet& cn : half) nets.push_back(cn.net);
  const BatchResult extracted = BatchRunner(lib, opts).run_nets(nets);
  ASSERT_EQ(extracted.nets.size(), compressed.nets.size());
  for (std::size_t n = 0; n < nets.size(); ++n)
    EXPECT_TRUE(flow_results_identical(extracted.nets[n].result,
                                       compressed.nets[n].result))
        << "net " << compressed.nets[n].net_id;
}

TEST(Circuit, RejectsDegenerateSpecs) {
  const BufferLibrary lib = make_standard_library();
  CircuitSpec spec;
  spec.n_gates = 3;
  spec.n_primary_inputs = 4;
  EXPECT_THROW(make_random_circuit(spec, lib), std::invalid_argument);
  EXPECT_THROW(make_random_circuit(small_spec(), BufferLibrary{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace merlin
