// merlin_d: the long-running buffered-routing optimization daemon.
//
//   merlin_d --socket PATH [options]
//     --socket PATH       unix socket to listen on (required; a stale
//                         socket file from a killed daemon is replaced, but
//                         a LIVE daemon's socket is never clobbered — the
//                         second daemon refuses to start, exit 6)
//     --threads N         batch workers (0 = all cores; default 1)
//     --cache-mb N        shared cross-net sub-problem cache budget in MB
//                         (default 64; 0 disables the store, as does
//                         MERLIN_CACHE=off in the environment)
//     --queue-depth N     admission-queue bound (default 64); a submit
//                         against a full queue earns err.queue_full plus a
//                         retry-after hint instead of blocking
//     --net-step-budget N deterministic DP-step budget per net
//     --fail-policy P     abort | skip | degrade (default)
//     --trace-spans       arm per-job span rings (serve.queue/serve.request
//                         land in each job's stats JSON)
//     --snapshot PATH     warm-cache snapshot file: loaded at startup (a
//                         missing/torn/corrupt file cold-starts, never
//                         crashes), rewritten atomically at drain, on
//                         req.snapshot frames and on the cadence below
//     --snapshot-every S  snapshot cadence in seconds, served by the
//                         scheduler between jobs (0 = drain/req.snapshot
//                         only; default 0)
//     --io-timeout-ms N   per-connection socket recv/send timeout (default
//                         30000; 0 disables) — bounds how long a stalled
//                         peer pins a connection thread mid-frame
//     --shed-queue-depth N  arm overload shedding when the queue holds >= N
//                         jobs (0 = off)
//     --shed-lane-cap N   while shedding: cap each client's queued jobs at
//                         N; beyond it submits earn err.overloaded (0 = no
//                         cap)
//     --metrics-out PATH  write the lifetime-telemetry JSON (the
//                         req.metrics document) atomically to PATH on the
//                         --snapshot-every cadence and at drain
//     --flightrec PATH    arm the crash flight recorder: a ring of the
//                         last --flightrec-events structured events in a
//                         file that survives ANY process death (even
//                         kill -9); parse it with merlin_stat --flightrec
//     --flightrec-events N  ring capacity in events (default 1024)
//
// The daemon keeps the buffer library, thread pool, per-worker arenas and
// the shared SubproblemCache warm across requests (flow/batch.h
// BatchContext), so repeat submissions skip all startup and hit the cache
// (perfbench's daemon_eco workload measures the warm path).  Results are
// bit-identical to one-shot `merlin_cli --circuit` runs; docs/SERVING.md
// has the wire protocol and the determinism contract.
//
// SIGINT/SIGTERM begin a graceful drain: admission closes, queued and
// in-flight jobs finish, connections are answered, then the process exits.
//
// Exit codes (the merlin_cli taxonomy plus the server class):
//   0  clean drain (shutdown request or signal)
//   1  internal error (unexpected exception)
//   2  usage error (bad flags or numeric operands / missing --socket)
//   4  invalid configuration (bad --fail-policy, ...)
//   6  server error (socket create/bind/listen failure)

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "flags.h"
#include "serve/server.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitInternal = 1;
constexpr int kExitUsage = 2;
constexpr int kExitConfig = 4;
constexpr int kExitServer = 6;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: merlin_d --socket PATH [--threads N] [--cache-mb N] "
               "[--queue-depth N] [--net-step-budget N] "
               "[--fail-policy abort|skip|degrade] [--trace-spans] "
               "[--snapshot PATH] [--snapshot-every SECONDS] "
               "[--io-timeout-ms N] [--shed-queue-depth N] [--shed-lane-cap N] "
               "[--metrics-out PATH] [--flightrec PATH] "
               "[--flightrec-events N]\n");
  std::exit(kExitUsage);
}

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

merlin::FlightRecorder* g_flightrec = nullptr;

// SIGSEGV/SIGABRT: flush the flight-recorder pages (one msync — async-
// signal-safe), then re-raise with the default disposition so the crash
// still produces its core/abort.  SIGKILL needs no handler at all: the
// ring lives in a MAP_SHARED file mapping, which the kernel writes back
// regardless of how the process died.
void on_crash(int sig) {
  if (g_flightrec != nullptr) g_flightrec->sigsync();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace merlin;

  std::string socket_path;
  std::size_t threads = 1;
  std::size_t cache_mb = 64;
  std::size_t queue_depth = 64;
  std::uint64_t net_step_budget = 0;
  std::string fail_policy = "degrade";
  bool trace_spans = false;
  std::string snapshot_path;
  std::uint32_t snapshot_every_s = 0;
  std::uint32_t io_timeout_ms = 30000;
  std::size_t shed_queue_depth = 0;
  std::size_t shed_lane_cap = 0;
  std::string metrics_out;
  std::string flightrec_path;
  std::uint32_t flightrec_events = 1024;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int more) {
      if (i + more >= argc) usage();
    };
    auto count = [&](auto& out) {
      need(1);
      if (!flags::parse_count(argv[++i], out)) usage();
    };
    if (a == "--socket") {
      need(1);
      socket_path = argv[++i];
    } else if (a == "--threads") {
      count(threads);
    } else if (a == "--cache-mb") {
      count(cache_mb);
    } else if (a == "--queue-depth") {
      count(queue_depth);
    } else if (a == "--net-step-budget") {
      count(net_step_budget);
    } else if (a == "--fail-policy") {
      need(1);
      fail_policy = argv[++i];
    } else if (a == "--trace-spans") {
      trace_spans = true;
    } else if (a == "--snapshot") {
      need(1);
      snapshot_path = argv[++i];
    } else if (a == "--snapshot-every") {
      count(snapshot_every_s);
    } else if (a == "--io-timeout-ms") {
      count(io_timeout_ms);
    } else if (a == "--shed-queue-depth") {
      count(shed_queue_depth);
    } else if (a == "--shed-lane-cap") {
      count(shed_lane_cap);
    } else if (a == "--metrics-out") {
      need(1);
      metrics_out = argv[++i];
    } else if (a == "--flightrec") {
      need(1);
      flightrec_path = argv[++i];
    } else if (a == "--flightrec-events") {
      count(flightrec_events);
    } else {
      usage();
    }
  }
  if (socket_path.empty()) usage();

  try {
    ServeOptions opts;
    opts.threads = threads;
    opts.cache_mb = cache_mb;
    opts.queue_capacity = queue_depth;
    opts.guard.step_budget = net_step_budget;
    opts.trace_spans = trace_spans;
    opts.snapshot_path = snapshot_path;
    opts.snapshot_every_s = snapshot_every_s;
    opts.io_timeout_ms = io_timeout_ms;
    opts.shed_queue_depth = shed_queue_depth;
    opts.shed_lane_cap = shed_lane_cap;
    opts.metrics_out = metrics_out;
    opts.flightrec_path = flightrec_path;
    opts.flightrec_events = flightrec_events;
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

    // Graceful drain on SIGINT/SIGTERM; SIGPIPE must not kill the daemon
    // when a client hangs up mid-reply (sends also pass MSG_NOSIGNAL, this
    // is the belt to that suspender).
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);

    ServerCore core(opts);
    if (!core.snapshot_note().empty())
      std::fprintf(stderr, "merlin_d: snapshot %s\n",
                   core.snapshot_note().c_str());
    if (!core.flightrec_note().empty())
      std::fprintf(stderr, "merlin_d: %s\n", core.flightrec_note().c_str());
    if (core.flight_recorder().armed()) {
      g_flightrec = &core.flight_recorder();
      std::signal(SIGSEGV, on_crash);
      std::signal(SIGABRT, on_crash);
    }
    // The socket layer throws std::runtime_error on create/bind/listen
    // failure — mapped to the server exit code, not the internal one.
    int exit_code = kExitOk;
    try {
      SocketServer server(core, socket_path);
      std::fprintf(stderr,
                   "merlin_d: serving on %s (threads=%zu cache=%zuMB "
                   "queue=%zu)\n",
                   socket_path.c_str(), core.threads(), cache_mb, queue_depth);
      server.run_until_shutdown(&g_stop);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "merlin_d: %s\n", e.what());
      return kExitServer;
    }
    std::fprintf(stderr, "merlin_d: drained, %llu job(s) served\n",
                 static_cast<unsigned long long>(core.jobs_completed()));
    g_flightrec = nullptr;  // core (and its recorder) is about to destruct
    return exit_code;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "merlin_d: %s\n", e.what());
    return kExitConfig;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "merlin_d: %s\n", e.what());
    return kExitInternal;
  }
}
