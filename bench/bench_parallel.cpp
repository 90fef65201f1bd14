// Parallel batch engine scaling exhibit: per-thread-count wall time and
// speedup for a circuit-scale Flow III run, plus per-net latency
// percentiles, plus a differential check that every thread count produced
// bit-identical results (the invariant tests/test_batch_differential.cpp
// enforces).
//
//   bench_parallel [--quick] [--gates N] [--seed S] [--flow 1|2|3]
//                  [--stats-json FILE]
//
// Speedup is hardware-dependent; on a single-core container every
// configuration degenerates to ~1x while the differential and counters
// columns must stay "identical"/"yes" regardless.  --stats-json writes the
// observability export of the last (widest) run.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/report.h"
#include "obs/hist.h"
#include "obs/json.h"

namespace {

/// Histogram value (us) in ms — the percentiles quantize like every other
/// latency report in the repo (obs/hist.h).
double us_to_ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

}  // namespace

int main(int argc, char** argv) {
  using namespace merlin;

  std::size_t n_gates = 90;  // ~50+ driven nets
  std::uint64_t seed = 7;
  int flow = 3;
  bool quick = false;
  std::string stats_json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--gates") == 0 && i + 1 < argc)
      n_gates = std::strtoul(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--flow") == 0 && i + 1 < argc)
      flow = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc)
      stats_json_path = argv[++i];
  }
  if (quick) n_gates = std::min<std::size_t>(n_gates, 40);

  const BufferLibrary lib = make_standard_library();
  CircuitSpec spec;
  spec.name = "par" + std::to_string(n_gates);
  spec.n_gates = n_gates;
  spec.seed = seed;
  const Circuit ckt = make_random_circuit(spec, lib);

  std::printf("bench_parallel: circuit %s, %zu gates, %zu nets, flow %d, "
              "%u hardware threads\n\n",
              ckt.name.c_str(), ckt.gates.size(),
              extract_circuit_nets(ckt, lib).size(), flow,
              std::thread::hardware_concurrency());

  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (quick) thread_counts = {1, 2, 4};

  TextTable table({"threads", "wall_ms", "speedup", "p50_ms", "p90_ms",
                   "p99_ms", "max_ms", "steals", "identical", "counters"});
  double wall_1t = 0.0;
  BatchResult baseline;
  ObsSink baseline_sink;
  std::string last_json;
  for (const std::size_t threads : thread_counts) {
    ObsSink sink;
    BatchOptions opts;
    opts.threads = threads;
    opts.flow = static_cast<FlowKind>(flow);
    opts.obs = &sink;
    const BatchResult r = BatchRunner(lib, opts).run(ckt);

    LatencyHistogram lat;  // per-net job wall time, us
    for (const BatchNetResult& n : r.nets)
      lat.record(static_cast<std::uint64_t>(n.wall_ms * 1000.0));

    if (threads == 1) {
      wall_1t = r.stats.wall_ms;
      baseline = r;
      baseline_sink.merge_from(sink);
    }
    // The obs invariant on top of the result invariant: aggregate counters
    // must not depend on the thread count either.
    const bool counters_ok = sink.counters == baseline_sink.counters;
    table.begin_row();
    table.cell(threads);
    table.cell(r.stats.wall_ms, 1);
    table.cell(wall_1t > 0.0 ? wall_1t / r.stats.wall_ms : 1.0, 2);
    table.cell(us_to_ms(lat.quantile(50)), 2);
    table.cell(us_to_ms(lat.quantile(90)), 2);
    table.cell(us_to_ms(lat.quantile(99)), 2);
    table.cell(us_to_ms(lat.max_value()), 2);
    table.cell(r.stats.steals);
    table.cell(std::string(
        threads == 1 ? "-" : batch_results_identical(baseline, r) ? "yes" : "NO"));
    table.cell(std::string(threads == 1 ? "-" : counters_ok ? "yes" : "NO"));

    if (!stats_json_path.empty()) {
      RuntimeInfo rt;
      rt.threads = r.stats.threads_used;
      rt.steals = r.stats.steals;
      rt.wall_ms = r.stats.wall_ms;
      rt.worker_tasks = r.stats.worker_tasks;
      last_json = stats_to_json(sink, rt);
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("per-net latency percentiles are job wall times as scheduled;\n"
              "'identical' compares every scheduling-independent field "
              "against the 1-thread run,\n'counters' the aggregate "
              "observability counters.\n");
  if (!stats_json_path.empty()) {
    std::ofstream out(stats_json_path, std::ios::binary);
    out << last_json << '\n';
    std::printf("wrote %s\n", stats_json_path.c_str());
  }
  return 0;
}
