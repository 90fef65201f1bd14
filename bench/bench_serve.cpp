// Daemon load driver: submits one deterministic circuit to a merlin_d
// cold, then warm, and checks the daemon's determinism contract on the
// way — cache state may speed a daemon up, never change its answers.  CI's
// serve and chaos-recovery jobs drive their daemons with it; throughput
// and latency are measured by perfbench's daemon_eco workload.
//
// Legs:
//   cold  — the daemon's first submission of the workload circuit: every
//           sub-problem is a miss, the store gets populated;
//   warm  — repeat submissions of the same circuit (min over reps): the
//           ECO / re-optimization scenario the daemon exists for.  The
//           result digest must equal the cold run's;
//   recovery — (--daemon mode only) drain the daemon (which writes its
//           warm-cache snapshot), restart it on the same snapshot path and
//           measure exec-to-first-result.  The restarted daemon's digest
//           must equal the cold run's.
//
// Exits 0 only if both digests match and the warm leg beat the cold one.
//
// Usage: bench_serve (--daemon BIN | --socket PATH)
//                    [--smoke] [--json FILE] [--reps N] [--gates N]
//                    [--seed N] [--shutdown]
//   --daemon BIN  fork/exec BIN (a merlin_d build) on a private socket
//                 with a private --snapshot file; the daemon is shut down
//                 at the end and its exit status must be 0 — a daemon that
//                 cannot drain fails the run.
//   --socket PATH attach to an already-running daemon instead (the
//                 recovery leg is skipped — the driver cannot restart a
//                 daemon it does not own).
//   --smoke       tiny circuit and fewer reps, for CI sanity legs.
//   --gates/--seed override the workload circuit.
//   --json FILE   write digest_identical, recovery_digest_identical and
//                 daemon_exit, the keys CI checks.
//   --shutdown    with --socket: also shut the daemon down at the end.
//   Numeric operands parse strictly (tools/flags.h); a bad one exits 2.

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "flags.h"
#include "flow/report.h"
#include "serve/client.h"

namespace {

using namespace merlin;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Submit with backoff on err.queue_full (the driver must keep the
/// pipeline loaded, not abandon it at the first backpressure signal).
ResultResp submit_retrying(ServeClient& client, std::uint64_t gates,
                           std::uint64_t seed) {
  for (;;) {
    const SubmitReply r = client.submit_circuit(gates, seed);
    if (r.ok) return r.result;
    if (r.error.code != static_cast<std::uint8_t>(ServeError::kQueueFull)) {
      std::fprintf(stderr, "bench_serve: submit failed: %s\n",
                   r.error.message.c_str());
      std::exit(1);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(r.error.retry_after_ms > 0
                                      ? r.error.retry_after_ms
                                      : 1));
  }
}

/// Fork/exec a merlin_d on `socket_path` with a warm-cache snapshot at
/// `snap_path`.  Returns the child pid (exits the bench on fork failure).
pid_t spawn_daemon(const std::string& bin, const std::string& socket_path,
                   const std::string& snap_path) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_serve: fork");
    std::exit(1);
  }
  if (pid == 0) {
    execl(bin.c_str(), "merlin_d", "--socket", socket_path.c_str(),
          "--threads", "2", "--snapshot", snap_path.c_str(), (char*)nullptr);
    std::perror("bench_serve: exec");
    _exit(127);
  }
  return pid;
}

/// Drain-wait for a spawned daemon; exits the bench unless it exits 0.
void reap_daemon(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_serve: daemon exit %d (want 0)\n",
                 WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string daemon_bin;
  std::string socket_path;
  std::string json_path;
  bool smoke = false;
  bool shutdown_at_end = false;
  unsigned reps = 0;
  std::uint64_t gates_override = 0;
  std::uint64_t seed_override = 0;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: bench_serve (--daemon BIN | --socket PATH) "
                 "[--smoke] [--json FILE] [--reps N] [--gates N] "
                 "[--seed N] [--shutdown]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--daemon") == 0 && i + 1 < argc)
      daemon_bin = argv[++i];
    else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc)
      socket_path = argv[++i];
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      if (!flags::parse_count(argv[++i], reps)) return usage();
    } else if (std::strcmp(argv[i], "--gates") == 0 && i + 1 < argc) {
      if (!flags::parse_count(argv[++i], gates_override)) return usage();
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!flags::parse_count(argv[++i], seed_override)) return usage();
    } else if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--shutdown") == 0)
      shutdown_at_end = true;
    else
      return usage();
  }
  if (daemon_bin.empty() == socket_path.empty()) {
    std::fprintf(stderr,
                 "bench_serve: exactly one of --daemon / --socket needed\n");
    return 2;
  }

  // The workload: one deterministic circuit, chosen so the optimization
  // dominates the per-request constant costs — otherwise warm-vs-cold
  // compares framing, not the cache.
  const std::uint64_t gates = gates_override ? gates_override : (smoke ? 14 : 26);
  const std::uint64_t seed = seed_override ? seed_override : (smoke ? 1000 : 7);
  if (reps == 0) reps = smoke ? 3 : 10;

  pid_t daemon_pid = -1;
  char sockdir[] = "/tmp/bench_serve_XXXXXX";
  std::string snap_path;
  if (!daemon_bin.empty()) {
    if (mkdtemp(sockdir) == nullptr) {
      std::perror("bench_serve: mkdtemp");
      return 1;
    }
    socket_path = std::string(sockdir) + "/d.sock";
    snap_path = std::string(sockdir) + "/cache.snap";
    daemon_pid = spawn_daemon(daemon_bin, socket_path, snap_path);
    shutdown_at_end = true;
  }

  double cold_ms = 0.0;
  double warm_ms = 0.0;
  std::uint64_t cold_digest = 0;
  std::uint64_t warm_digest = 0;
  {
    ServeClient client(socket_path, /*retry_ms=*/10000);

    // cold: the daemon's first contact with this circuit.
    {
      const auto t0 = Clock::now();
      const ResultResp r = submit_retrying(client, gates, seed);
      cold_ms = ms_since(t0);
      cold_digest = r.digest;
    }

    // warm: min over reps (the steady-state re-optimization cost).
    for (unsigned i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      const ResultResp r = submit_retrying(client, gates, seed);
      const double ms = ms_since(t0);
      if (i == 0 || ms < warm_ms) warm_ms = ms;
      warm_digest = r.digest;
    }
  }

  // recovery: drain the daemon (its exit path writes the warm-cache
  // snapshot), restart it on the same snapshot path, and measure
  // exec-to-first-result.  Skipped in --socket mode.
  double recovery_ms = 0.0;
  bool recovery_digest_identical = true;
  if (daemon_pid > 0) {
    ServeClient(socket_path, /*retry_ms=*/10000).shutdown();
    reap_daemon(daemon_pid);
    const auto t0 = Clock::now();
    daemon_pid = spawn_daemon(daemon_bin, socket_path, snap_path);
    ServeClient client(socket_path, /*retry_ms=*/10000);
    const ResultResp r = submit_retrying(client, gates, seed);
    recovery_ms = ms_since(t0);
    recovery_digest_identical = r.digest == cold_digest;
  }

  int daemon_exit = -1;
  if (shutdown_at_end) {
    ServeClient(socket_path, /*retry_ms=*/2000).shutdown();
    if (daemon_pid > 0) {
      int status = 0;
      if (waitpid(daemon_pid, &status, 0) != daemon_pid || !WIFEXITED(status)) {
        std::fprintf(stderr, "bench_serve: daemon did not exit cleanly\n");
        return 1;
      }
      daemon_exit = WEXITSTATUS(status);
      std::remove(socket_path.c_str());
      if (!snap_path.empty()) std::remove(snap_path.c_str());
      std::remove(sockdir);
      if (daemon_exit != 0) {
        std::fprintf(stderr, "bench_serve: daemon exit %d (want 0)\n",
                     daemon_exit);
        return 1;
      }
    }
  }

  const bool digest_identical = cold_digest == warm_digest;
  const bool warm_faster = warm_ms < cold_ms;
  const double warm_speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  TextTable t({"leg", "wall (ms)", "notes"});
  t.begin_row();
  t.cell("cold");
  t.cell(cold_ms, 2);
  t.cell("first submission, store cold");
  t.begin_row();
  t.cell("warm");
  t.cell(warm_ms, 2);
  t.cell("min of " + std::to_string(reps) + " reruns");
  if (daemon_pid > 0) {
    t.begin_row();
    t.cell("recovery");
    t.cell(recovery_ms, 2);
    t.cell("restart from snapshot to first result");
  }
  std::printf("%s\n", t.render().c_str());

  std::printf(
      "digest identical: %s   warm faster: %s   warm speedup: %.2fx   "
      "recovery digest identical: %s\n",
      digest_identical ? "yes" : "NO", warm_faster ? "yes" : "NO",
      warm_speedup, recovery_digest_identical ? "yes" : "NO");

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    out << "{\n"
        << "  \"schema\": \"merlin.bench_serve\",\n"
        << "  \"version\": 4,\n"
        << "  \"gates\": " << gates << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"digest_identical\": " << (digest_identical ? "true" : "false")
        << ",\n"
        << "  \"recovery_digest_identical\": "
        << (recovery_digest_identical ? "true" : "false") << ",\n"
        << "  \"daemon_exit\": " << daemon_exit << "\n"
        << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return digest_identical && warm_faster && recovery_digest_identical ? 0 : 1;
}
