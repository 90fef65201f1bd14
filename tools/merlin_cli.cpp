// merlin_cli: command-line buffered routing tree generation.
//
//   merlin_cli <net-file> [options]
//     --flow 1|2|3        flow to run (default 3 = MERLIN)
//     --alpha N           Ca_Tree fanout bound (default 4)
//     --area-limit A      variant I: max total buffer area
//     --req-target T      variant II: minimize area subject to req >= T (ps)
//     --candidates K      max candidate locations (default 2.5x terminals)
//     --svg FILE          write the resulting tree as SVG
//     --print-tree        dump the tree structure
//     --random N SEED     ignore <net-file> and generate a random N-sink net
//     --circuit G SEED    circuit mode: generate a random G-gate circuit and
//                         run the chosen flow on every net (batch engine)
//     --threads N         circuit mode: worker threads (0 = all cores)
//     --cache-mb N        circuit mode: shared cross-net sub-problem cache
//                         budget in MB (default 64; 0 disables the store,
//                         as does MERLIN_CACHE=off in the environment)
//     --stats-json FILE   write observability stats (counters, per-net
//                         traces, latency percentiles) as JSON to FILE
//     --trace-out FILE    write a Chrome trace-event timeline (open in
//                         Perfetto / chrome://tracing) to FILE
//     --progress          circuit mode: live net progress line on stderr
//     --net-step-budget N circuit mode: deterministic DP-step budget per net
//     --net-deadline-ms T circuit mode: wall-clock deadline per net attempt
//                         (non-deterministic; see docs/ROBUSTNESS.md)
//     --fail-policy P     circuit mode: abort | skip | degrade (default)
//     --inject SPEC       circuit mode: arm the deterministic fault injector,
//                         SPEC = KIND:RATE:SEED[:SITE] (docs/ROBUSTNESS.md)
//     --digest            circuit mode: print the 64-bit result digest
//                         (batch_result_digest) — the daemon-vs-CLI
//                         differential's transport (docs/SERVING.md)
//
// Exit codes (each failure prints one line to stderr):
//   0  success
//   1  internal error (unexpected exception)
//   2  usage error (bad flags or numeric operands / missing arguments)
//   3  input or output file error
//   4  invalid configuration (bad --inject spec, bad --fail-policy, ...)
//   5  guard abort: a net tripped its budget/deadline under --fail-policy abort

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>

#include "buflib/library.h"
#include "cache/shard.h"
#include "flags.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/flows.h"
#include "io/netfile.h"
#include "io/svg.h"
#include "net/generator.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "runtime/faultinject.h"
#include "runtime/guard.h"
#include "tree/evaluate.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitConfig = 4;
constexpr int kExitGuardAbort = 5;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: merlin_cli <net-file>|--random N SEED [--flow 1|2|3] "
               "[--alpha N] [--area-limit A] [--req-target T] "
               "[--candidates K] [--svg FILE] [--print-tree] "
               "[--stats-json FILE] [--trace-out FILE]\n"
               "       merlin_cli --circuit G SEED [--flow 1|2|3] [--threads N] "
               "[--cache-mb N] "
               "[--stats-json FILE] [--trace-out FILE] [--progress] "
               "[--net-step-budget N] [--net-deadline-ms T] "
               "[--fail-policy abort|skip|degrade] "
               "[--inject KIND:RATE:SEED[:SITE]] [--digest]\n");
  std::exit(kExitUsage);
}

/// File-level failures, mapped to exit code 3 (vs 1 for internal errors).
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Writes `json` to `path`; throws IoError on I/O failure.
void write_stats_file(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot open " + path + " for writing");
  out << json << '\n';
  if (!out) throw IoError("failed writing " + path);
}

/// Fails fast on an unwritable output path (--stats-json / --trace-out)
/// BEFORE the construction runs, so a typo'd path costs an instant exit-3
/// diagnostic instead of minutes of discarded work.  Opens in append mode:
/// an existing file is probed without being truncated (the real write
/// replaces it later anyway).
void probe_writable(const std::string& path) {
  if (path.empty()) return;
  std::ofstream probe(path, std::ios::binary | std::ios::app);
  if (!probe) throw IoError("cannot open " + path + " for writing");
}

int fail(const std::exception& e, int code) {
  std::fprintf(stderr, "merlin_cli: %s\n", e.what());
  return code;
}

/// The shared exception → exit-code taxonomy of both run modes.
int classify_and_report(std::exception_ptr ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const merlin::GuardError& e) {
    return fail(e, kExitGuardAbort);
  } catch (const IoError& e) {
    return fail(e, kExitIo);
  } catch (const std::invalid_argument& e) {
    return fail(e, kExitConfig);
  } catch (const std::exception& e) {
    return fail(e, kExitInternal);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace merlin;
  if (argc < 2) usage();

  std::string net_path;
  unsigned flow = 3;
  std::size_t alpha = 4;
  double area_limit = -1.0, req_target = -1e300;
  std::size_t max_candidates = 0;
  std::string svg_path;
  bool print_tree = false;
  std::size_t random_n = 0;
  std::uint64_t random_seed = 1;
  std::size_t circuit_gates = 0;
  std::uint64_t circuit_seed = 1;
  std::size_t threads = 1;
  std::size_t cache_mb = 64;
  std::string stats_json_path;
  std::string trace_out_path;
  bool show_progress = false;
  std::uint64_t net_step_budget = 0;
  double net_deadline_ms = 0.0;
  std::string fail_policy = "degrade";
  std::string inject_spec;
  bool print_digest = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int more) {
      if (i + more >= argc) usage();
    };
    auto count = [&](auto& out) {
      need(1);
      if (!flags::parse_count(argv[++i], out)) usage();
    };
    auto real = [&](double& out) {
      need(1);
      if (!flags::parse_real(argv[++i], out)) usage();
    };
    if (a == "--flow") {
      count(flow);
    } else if (a == "--alpha") {
      count(alpha);
    } else if (a == "--area-limit") {
      real(area_limit);
    } else if (a == "--req-target") {
      real(req_target);
    } else if (a == "--candidates") {
      count(max_candidates);
    } else if (a == "--svg") {
      need(1);
      svg_path = argv[++i];
    } else if (a == "--print-tree") {
      print_tree = true;
    } else if (a == "--random") {
      count(random_n);
      count(random_seed);
    } else if (a == "--circuit") {
      count(circuit_gates);
      count(circuit_seed);
    } else if (a == "--threads") {
      count(threads);
    } else if (a == "--cache-mb") {
      count(cache_mb);
    } else if (a == "--stats-json") {
      need(1);
      stats_json_path = argv[++i];
    } else if (a == "--trace-out") {
      need(1);
      trace_out_path = argv[++i];
    } else if (a == "--progress") {
      show_progress = true;
    } else if (a == "--net-step-budget") {
      count(net_step_budget);
    } else if (a == "--net-deadline-ms") {
      real(net_deadline_ms);
    } else if (a == "--fail-policy") {
      need(1);
      fail_policy = argv[++i];
    } else if (a == "--inject") {
      need(1);
      inject_spec = argv[++i];
    } else if (a == "--digest") {
      print_digest = true;
    } else if (!a.empty() && a[0] == '-') {
      usage();
    } else {
      net_path = a;
    }
  }
  if (net_path.empty() && random_n == 0 && circuit_gates == 0) usage();
  if (flow < 1 || flow > 3) usage();

  const BufferLibrary lib = make_standard_library();

  if (circuit_gates > 0) {
    // Circuit mode: batch-run the chosen flow over every net of a random
    // circuit on the parallel engine.
    try {
      probe_writable(stats_json_path);
      probe_writable(trace_out_path);
      const Circuit ckt =
          make_random_circuit(circuit_job_spec(circuit_gates, circuit_seed), lib);

      ObsSink sink;
      BatchOptions opts;
      opts.threads = threads;
      opts.flow = static_cast<FlowKind>(flow);
      if (!stats_json_path.empty() || !trace_out_path.empty()) opts.obs = &sink;
      if (!trace_out_path.empty())
        sink.set_span_capacity(ObsSink::kDefaultSpanCapacity);
      opts.guard.step_budget = net_step_budget;
      opts.guard.deadline_ms = net_deadline_ms;
      if (fail_policy == "abort") {
        opts.fail_policy = FailPolicy::kAbort;
      } else if (fail_policy == "skip") {
        opts.fail_policy = FailPolicy::kSkip;
      } else if (fail_policy == "degrade") {
        opts.fail_policy = FailPolicy::kDegrade;
      } else {
        throw std::invalid_argument("unknown --fail-policy '" + fail_policy +
                                    "' (expected abort, skip or degrade)");
      }
      std::optional<FaultInjector> injector;
      if (!inject_spec.empty()) {
        injector.emplace(FaultInjector::parse(inject_spec));
        opts.inject = &*injector;
      }
      // Shared cross-net sub-problem cache (src/cache/).  Budgeted in
      // provenance nodes; results are bit-identical with it on or off.
      SubproblemCache cache(cache_config_mb(cache_mb));
      opts.cache = &cache;
      // One live stderr line, rewritten in place as nets retire.  The
      // callback runs on pool workers; the mutex serializes the ticker and
      // the max-done check drops out-of-order updates.
      std::mutex progress_mu;
      std::size_t progress_max = 0;
      const auto progress_t0 = std::chrono::steady_clock::now();
      if (show_progress) {
        opts.progress = [&](std::size_t done, std::size_t total) {
          std::lock_guard<std::mutex> lk(progress_mu);
          if (done <= progress_max) return;
          progress_max = done;
          const double secs =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            progress_t0)
                  .count();
          const double rate =
              secs > 0.0 ? static_cast<double>(done) / secs : 0.0;
          std::fprintf(stderr, "\r%zu/%zu nets (%.1f nets/s)%s", done, total,
                       rate, done == total ? "\n" : "");
        };
      }
      const BatchResult r = BatchRunner(lib, opts).run(ckt);
      std::printf("circuit=%s gates=%zu flow=%u  delay=%.1fps area=%.1f "
                  "construct=%.0fms\n",
                  ckt.name.c_str(), ckt.gates.size(), flow, r.circuit.delay_ps,
                  r.circuit.area, r.circuit.runtime_ms);
      std::printf("batch: %s\n", r.stats.to_string().c_str());
      if (print_digest)
        std::printf("digest=%016llx\n", static_cast<unsigned long long>(
                                            batch_result_digest(r)));
      if (cache.enabled()) {
        std::printf("cache: entries=%zu nodes=%llu budget=%lluMB%s\n",
                    cache.entry_count(),
                    static_cast<unsigned long long>(cache.node_cost()),
                    static_cast<unsigned long long>(cache_mb),
                    cache_env_off() ? " (detached: MERLIN_CACHE=off)" : "");
      }
      if (!stats_json_path.empty()) {
        write_stats_file(stats_json_path,
                         stats_to_json(sink, r.stats.runtime_info()));
        std::printf("wrote %s\n", stats_json_path.c_str());
      }
      if (!trace_out_path.empty()) {
        write_stats_file(trace_out_path, trace_to_json(sink));
        std::printf("wrote %s\n", trace_out_path.c_str());
      }
    } catch (...) {
      return classify_and_report(std::current_exception());
    }
    return kExitOk;
  }

  Net net;
  try {
    probe_writable(stats_json_path);
    probe_writable(trace_out_path);
    if (random_n > 0) {
      NetSpec spec;
      spec.name = "random" + std::to_string(random_n);
      spec.n_sinks = random_n;
      spec.seed = random_seed;
      net = make_random_net(spec, lib);
    } else {
      try {
        net = read_net_file(net_path);
      } catch (const std::runtime_error& e) {
        throw IoError(e.what());  // netfile failures are exit-code-3 events
      }
    }

    ObsSink sink;
    FlowConfig cfg = scaled_flow_config(net.fanout());
    if (!stats_json_path.empty() || !trace_out_path.empty()) cfg.obs = &sink;
    if (!trace_out_path.empty()) {
      sink.set_span_capacity(ObsSink::kDefaultSpanCapacity);
      sink.begin_net(0);  // single net: attribute every span to net 0
    }
    cfg.merlin.bubble.alpha = alpha;
    if (max_candidates > 0) cfg.candidates.max_candidates = max_candidates;
    if (area_limit >= 0.0) {
      cfg.merlin.bubble.objective.mode = ObjectiveMode::kMaxReqTime;
      cfg.merlin.bubble.objective.area_limit = area_limit;
    }
    if (req_target > -1e299) {
      cfg.merlin.bubble.objective.mode = ObjectiveMode::kMinArea;
      cfg.merlin.bubble.objective.req_target = req_target;
    }

    FlowResult r;
    switch (flow) {
      case 1: r = run_flow1(net, lib, cfg); break;
      case 2: r = run_flow2(net, lib, cfg); break;
      default: r = run_flow3(net, lib, cfg); break;
    }

    std::printf(
        "net=%s sinks=%zu flow=%u  driver_req=%.1fps delay=%.1fps "
        "buffer_area=%.1f buffers=%zu wirelength=%.0fum runtime=%.0fms%s\n",
        net.name.c_str(), net.fanout(), flow, r.eval.driver_req_time,
        r.eval.table_delay(net), r.eval.buffer_area, r.eval.buffer_count,
        r.eval.wirelength, r.runtime_ms,
        flow == 3 ? (" loops=" + std::to_string(r.merlin_loops)).c_str() : "");

    if (!stats_json_path.empty()) {
      // Single-net runs get one trace row; the flow's own recording already
      // filled the counters/gauges/spans while it ran.
      sink.add(Counter::kNetsProcessed);
      TraceRecord t;
      t.sinks = net.fanout();
      t.wall_us = static_cast<std::uint64_t>(r.runtime_ms * 1000.0);
      t.peak_curve_width = sink.net_peak_curve_width();
      t.merlin_loops = r.merlin_loops;
      t.buffers = r.eval.buffer_count;
      sink.record_trace(t);
      RuntimeInfo rt;
      rt.wall_ms = r.runtime_ms;
      write_stats_file(stats_json_path, stats_to_json(sink, rt));
      std::printf("wrote %s\n", stats_json_path.c_str());
    }
    if (!trace_out_path.empty()) {
      write_stats_file(trace_out_path, trace_to_json(sink));
      std::printf("wrote %s\n", trace_out_path.c_str());
    }

    if (print_tree) std::printf("%s", r.tree.to_string(net, lib).c_str());
    if (!svg_path.empty()) {
      try {
        write_svg_file(svg_path, net, r.tree, lib);
      } catch (const std::runtime_error& e) {
        throw IoError(e.what());
      }
      std::printf("wrote %s\n", svg_path.c_str());
    }
  } catch (...) {
    return classify_and_report(std::current_exception());
  }
  return kExitOk;
}
