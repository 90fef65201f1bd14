// merlin_perfbench — the repository benchmark.
//
//   merlin_perfbench --workload circuit|nets|daemon_eco --seed N --seconds S
//                    --trace 0|1 [--daemon PATH] [--run-dir DIR]
//
// Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
// (--trace 1) interleave untraced and traced repetitions of the same input
// and report the per-layer metrics, the span and per-L tables, the layer
// probes and the tracing overhead.  Every result is checked (see check.cpp).
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 on a correctness failure, 2 on a
// usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

/// The end-to-end metric names; every other metric a run reports is a
/// per-layer metric.
const std::set<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "op_p50_ms", "op_tail_ms",
    "ops_per_s", "delay_ps", "area"};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: merlin_perfbench --workload circuit|nets|daemon_eco "
               "--seed N --seconds S --trace 0|1 [--daemon PATH] "
               "[--run-dir DIR]\n");
  std::exit(2);
}

void print_result(const Report& rep, bool trace) {
  std::string out = "{\"correct\": ";
  out += rep.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted());
  out += ", \"failed\": " + std::to_string(rep.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : rep.metrics()) {
    if ((kEndToEnd.count(name) != 0) == trace) continue;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::atoi(v);
      have_seconds = a.seconds > 0;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      have_trace = a.trace || std::strcmp(v, "0") == 0;
    } else if (k == "--daemon") {
      a.daemon_bin = v;
    } else if (k == "--run-dir") {
      a.run_dir = v;
    } else {
      usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage();

  Report rep;
  try {
    if (a.workload == "circuit") {
      run_circuit(a, rep);
    } else if (a.workload == "nets") {
      run_nets(a, rep);
    } else if (a.workload == "daemon_eco") {
      if (a.daemon_bin.empty() || a.run_dir.empty()) usage();
      run_daemon_eco(a, rep);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    rep.wrong(std::string("exception: ") + e.what());
  }
  if (rep.attempted() == 0) rep.wrong("no operation was attempted");
  for (const auto& [name, m] : rep.metrics())
    if (!std::isfinite(m.value)) rep.wrong("metric " + name + " is not finite");

  for (const std::string& p : rep.problems())
    std::fprintf(stderr, "merlin_perfbench: %s\n", p.c_str());
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(rep.attempted()),
              static_cast<unsigned long long>(rep.failed()),
              rep.correct() ? "yes" : "NO");
  print_result(rep, a.trace);
  return rep.correct() ? 0 : 1;
}
