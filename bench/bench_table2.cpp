// Table 2 reproduction: circuit-level ("post-layout") area, delay, and
// runtime for the three flows over 15 benchmark circuits.
//
// SIS, the benchmark netlists, placement and detailed routing are replaced
// by the synthetic circuit substrate (flow/circuit.h; substitution table in
// DESIGN.md): random mapped DAGs, a fake placement, per-net buffered routing
// by each flow, and a full static timing analysis over the realized trees.
// Circuits are named after the paper's and sized to the same rough ordering.
// The paper reports, relative to flow I: flow II ~1.02x area / 1.05x delay,
// flow III ~1.07x area / 0.85x delay at ~1.85x runtime.
//
//   usage: bench_table2 [--quick]   (--quick runs the 5 smallest circuits)

#include <cstdio>
#include <cstring>
#include <string>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/flows.h"
#include "flow/report.h"
#include "obs/sink.h"

namespace {

struct CktRow {
  const char* name;
  std::size_t gates;
};

// Names and relative sizes follow the paper's Table 2 (scaled down ~20x so
// the whole exhibit runs on a laptop; the per-circuit flow comparison is the
// reproduction target, not absolute gate counts).
constexpr CktRow kCircuits[] = {
    {"C1355", 64}, {"C1908", 78},  {"C2670", 92},  {"C3540", 120},
    {"C432", 44},  {"C6288", 156}, {"C7552", 170}, {"Alu4", 86},
    {"B9", 30},    {"Dalu", 100},  {"Desa", 164},  {"Duke2", 72},
    {"K2", 128},   {"Rot", 78},    {"T481", 86},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace merlin;
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const BufferLibrary lib = make_standard_library();
  std::printf("Table 2: post-layout area, delay, and runtime per circuit\n");
  std::printf("(flow I absolute; flows II/III as ratios over flow I)\n\n");

  // The paper's Table-2 MERLIN setup: reduced Hanan candidates, iteration
  // count bounded by 3, alpha = 10 (we use a leaner alpha per DESIGN.md).
  FlowConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 2.0;
  cfg.candidates.max_candidates = 24;
  cfg.merlin.bubble.alpha = 4;
  cfg.merlin.bubble.inner_prune.max_solutions = 4;
  cfg.merlin.bubble.group_prune.max_solutions = 6;
  cfg.merlin.bubble.buffer_stride = 3;
  cfg.merlin.bubble.extension_neighbors = 10;
  cfg.merlin.max_iterations = 3;
  cfg.engine_prune.max_solutions = 8;

  // One sink per flow, accumulated over every circuit: the closing summary
  // compares how hard each flow's DP prunes.  One thread, so the time
  // ratios compare single-threaded runs.
  ObsSink obs1, obs2, obs3;
  const auto run = [&](const Circuit& ckt, FlowKind flow, ObsSink& obs) {
    BatchOptions opts;
    opts.threads = 1;
    opts.flow = flow;
    opts.scaled_config = false;
    opts.config = cfg;
    // Pre-layout required-time estimates are stale by construction;
    // compress their spread as production flows do (extract_circuit_nets).
    opts.req_compression = 0.5;
    opts.obs = &obs;
    return BatchRunner(lib, opts).run(ckt).circuit;
  };

  TextTable t({"circuit", "gates", "I:area", "I:delay(ns)", "I:time(s)",
               "II:area", "II:delay", "II:time",
               "III:area", "III:delay", "III:time"});

  double s2a = 0, s2d = 0, s2t = 0, s3a = 0, s3d = 0, s3t = 0;
  std::size_t rows = 0;
  std::uint64_t seed = 7000;
  for (const CktRow& row : kCircuits) {
    ++seed;
    if (quick && row.gates > 80) continue;
    CircuitSpec spec;
    spec.name = row.name;
    spec.n_gates = row.gates;
    spec.n_primary_inputs = std::max<std::size_t>(4, row.gates / 10);
    spec.seed = seed;
    const Circuit ckt = make_random_circuit(spec, lib);

    const CircuitFlowResult r1 = run(ckt, FlowKind::kFlow1, obs1);
    const CircuitFlowResult r2 = run(ckt, FlowKind::kFlow2, obs2);
    const CircuitFlowResult r3 = run(ckt, FlowKind::kFlow3, obs3);

    const double t1 = std::max(r1.runtime_ms, 1e-3);
    t.begin_row();
    t.cell(std::string(row.name));
    t.cell(row.gates);
    t.cell(r1.area, 0);
    t.cell(r1.delay_ps / 1000.0, 2);
    t.cell(t1 / 1000.0, 2);
    t.cell(r2.area / r1.area, 2);
    t.cell(r2.delay_ps / r1.delay_ps, 2);
    t.cell(r2.runtime_ms / t1, 2);
    t.cell(r3.area / r1.area, 2);
    t.cell(r3.delay_ps / r1.delay_ps, 2);
    t.cell(r3.runtime_ms / t1, 2);

    s2a += r2.area / r1.area;
    s2d += r2.delay_ps / r1.delay_ps;
    s2t += r2.runtime_ms / t1;
    s3a += r3.area / r1.area;
    s3d += r3.delay_ps / r1.delay_ps;
    s3t += r3.runtime_ms / t1;
    ++rows;
    std::fflush(stdout);
  }
  const double n = static_cast<double>(rows);
  t.begin_row();
  t.cell(std::string("Average"));
  t.cell(std::string(""));
  t.cell(std::string(""));
  t.cell(std::string(""));
  t.cell(std::string(""));
  t.cell(s2a / n, 2);
  t.cell(s2d / n, 2);
  t.cell(s2t / n, 2);
  t.cell(s3a / n, 2);
  t.cell(s3d / n, 2);
  t.cell(s3t / n, 2);

  std::printf("%s\n", t.render().c_str());
  std::printf("paper averages: II 1.02 area / 1.05 delay / 0.91 time;"
              " III 1.07 area / 0.85 delay / 1.85 time\n");

  std::printf("\nDP pruning summary (all circuits, per flow):\n");
  TextTable p({"flow", "pts_pushed", "pts_pruned", "prune_rate",
               "peak_width", "cache_hit_rate", "buffers"});
  const char* names[] = {"I", "II", "III"};
  const ObsSink* sinks[] = {&obs1, &obs2, &obs3};
  for (int f = 0; f < 3; ++f) {
    const Counters& c = sinks[f]->counters;
    const std::uint64_t pushed = c.get(Counter::kCurvePointsPushed);
    const std::uint64_t pruned = c.get(Counter::kCurvePointsPruned);
    const std::uint64_t hits = c.get(Counter::kGammaCacheHits);
    const std::uint64_t lookups = hits + c.get(Counter::kGammaCacheMisses);
    p.begin_row();
    p.cell(std::string(names[f]));
    p.cell(pushed);
    p.cell(pruned);
    p.cell(pushed > 0 ? static_cast<double>(pruned) / static_cast<double>(pushed) : 0.0, 2);
    p.cell(sinks[f]->gauges.get(Gauge::kCurvePeakWidth));
    p.cell(lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0, 2);
    p.cell(c.get(Counter::kBuffersInserted));
  }
  std::printf("%s\n", p.render().c_str());
  return 0;
}
