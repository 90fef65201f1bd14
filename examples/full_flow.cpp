// Circuit-level demo (a miniature Table 2): synthesize a random mapped
// circuit, implement every net with each of the three flows, and compare
// the post-"layout" circuit delay and area via static timing analysis.

#include <cstdio>
#include <utility>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/flows.h"
#include "flow/report.h"

int main() {
  using namespace merlin;
  const BufferLibrary lib = make_standard_library();

  CircuitSpec spec;
  spec.name = "demo_ckt";
  spec.n_gates = 80;
  spec.n_primary_inputs = 8;
  spec.seed = 99;
  const Circuit ckt = make_random_circuit(spec, lib);

  std::size_t pos = 0, multi = 0;
  std::vector<std::size_t> fanout(ckt.gates.size(), 0);
  for (const Gate& g : ckt.gates)
    for (std::uint32_t f : g.fanins) ++fanout[f];
  for (std::size_t i = 0; i < ckt.gates.size(); ++i) {
    if (ckt.gates[i].is_primary_output) ++pos;
    if (fanout[i] >= 2) ++multi;
  }
  std::printf("circuit '%s': %zu gates (%zu outputs), %zu multi-sink nets, "
              "die %d x %d um\n\n",
              ckt.name.c_str(), ckt.gates.size(), pos, multi, ckt.die_side,
              ckt.die_side);

  FlowConfig cfg;
  cfg.candidates.budget_factor = 1.5;
  cfg.candidates.max_candidates = 18;
  cfg.merlin.bubble.alpha = 3;
  cfg.merlin.bubble.inner_prune.max_solutions = 3;
  cfg.merlin.bubble.group_prune.max_solutions = 4;
  cfg.merlin.bubble.buffer_stride = 4;
  cfg.merlin.max_iterations = 3;

  TextTable t({"flow", "area (x1000 lambda^2)", "delay (ns)", "buffers",
               "routing time (s)"});
  const std::pair<const char*, FlowKind> flows[] = {
      {"I: LTTREE+PTREE", FlowKind::kFlow1},
      {"II: PTREE+vanGin", FlowKind::kFlow2},
      {"III: MERLIN", FlowKind::kFlow3},
  };
  for (const auto& [name, flow] : flows) {
    BatchOptions opts;
    opts.threads = 1;
    opts.flow = flow;
    opts.scaled_config = false;
    opts.config = cfg;
    const CircuitFlowResult r = BatchRunner(lib, opts).run(ckt).circuit;
    t.begin_row();
    t.cell(std::string(name));
    t.cell(r.area, 0);
    t.cell(r.delay_ps / 1000.0, 2);
    t.cell(r.buffers_inserted);
    t.cell(r.runtime_ms / 1000.0, 1);
    std::fflush(stdout);
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
