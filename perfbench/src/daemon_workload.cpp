// The `daemon_eco` workload: a real merlin_d on a private socket inside the
// checkout, driven by 2 closed-loop client connections.  Every warm-set
// circuit is warmed before timing starts; then each client re-submits a
// seed-drawn warm-set circuit (cache reads) 4 times in 5 and submits the
// next circuit of its never-seen list (full DP and publish: cache writes)
// every 5th request.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "bench.h"
#include "cache/shard.h"
#include "flow/circuit.h"
#include "layers.h"
#include "net/rng.h"
#include "obs/json.h"
#include "probes.h"
#include "serve/client.h"

namespace perfbench {

using namespace merlin;

namespace {

constexpr std::size_t kGates = 26;     // the circuits merlin_d serves here
constexpr std::size_t kMaxSinks = 6;   // largest net of any circuit submitted
constexpr std::size_t kWarmSet = 4;    // circuits warmed before timing
constexpr int kColdOneIn = 5;          // every 5th request is never-seen
constexpr int kClients = 2;
constexpr int kSetupReps = 3;          // setup_s is the median of these
// Requests each client sends (about 30 s on a 4-CPU machine), whatever
// --seconds allows: a time window made the number of never-seen circuits,
// and which ones, depend on the engine's speed, and the p90 (the middle of
// the never-seen requests, whose cost ranges 0.5-1.6 s) moved with them.
constexpr std::size_t kRequestsPerClient = 80;
constexpr std::size_t kColdPerClient = kRequestsPerClient / kColdOneIn;
// The traced run's per-layer inputs come from each client's first
// kCountedRequests requests (8 warm reads, 2 never-seen), so they describe
// the same work whatever the engine's speed.
constexpr std::size_t kCountedRequests = 10;

std::size_t largest_net(const BufferLibrary& lib, std::uint64_t seed) {
  CircuitSpec spec;
  spec.n_gates = kGates;
  spec.seed = seed;
  std::size_t m = 0;
  for (const CircuitNet& cn : extract_circuit_nets(make_random_circuit(spec, lib), lib))
    m = std::max(m, cn.net.fanout());
  return m;
}

/// The warm set: the first kWarmSet circuit seeds (1, 2, ...) whose largest
/// net has at most kMaxSinks sinks.  Fixed across benchmark seeds — it is
/// the design under ECO; the seed draws which warm-set circuit each read
/// request submits.
std::vector<std::uint64_t> warm_set(const BufferLibrary& lib) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = 1; out.size() < kWarmSet; ++s)
    if (largest_net(lib, s) <= kMaxSinks) out.push_back(s);
  return out;
}

/// The next never-seen circuit seed of a client after its seed `prev`.  A
/// client's candidates step by kClients, so no two clients share a circuit.
std::uint64_t next_never_seen(const BufferLibrary& lib, std::uint64_t prev) {
  for (std::uint64_t s = prev + kClients;; s += kClients)
    if (largest_net(lib, s) <= kMaxSinks) return s;
}

/// The kColdPerClient never-seen circuit seeds of each client: client c
/// takes the qualifying seeds among warm.back() + 1 + c + k * kClients.
/// Fixed across benchmark seeds like the warm set: one never-seen circuit
/// costs 0.5-1.6 s depending on its geometry, so a seed-drawn list would make
/// the write load differ from seed to seed by more than any bound could
/// tolerate.
std::vector<std::vector<std::uint64_t>> never_seen(
    const BufferLibrary& lib, const std::vector<std::uint64_t>& warm) {
  std::vector<std::vector<std::uint64_t>> out(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::uint64_t s = warm.back() + 1 + static_cast<std::uint64_t>(c);
    if (largest_net(lib, s) > kMaxSinks) s = next_never_seen(lib, s);
    out[c].push_back(s);
    while (out[c].size() < kColdPerClient)
      out[c].push_back(next_never_seen(lib, out[c].back()));
  }
  return out;
}

/// A merlin_d child process.  The destructor kills and reaps a daemon that
/// was not shut down cleanly, so no path leaves it running.
class Daemon {
 public:
  Daemon(const std::string& bin, std::string socket, std::size_t threads,
         bool trace_spans)
      : socket_(std::move(socket)) {
    std::remove(socket_.c_str());
    const std::string t = std::to_string(threads);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      dup2(2, 1);  // keep the daemon's chatter off the result stream
      if (trace_spans)
        execl(bin.c_str(), "merlin_d", "--socket", socket_.c_str(), "--threads",
              t.c_str(), "--trace-spans", static_cast<char*>(nullptr));
      else
        execl(bin.c_str(), "merlin_d", "--socket", socket_.c_str(), "--threads",
              t.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    std::remove(socket_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Peak resident set of the daemon (VmHWM), MB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        in >> kb;
        return kb / 1024.0;
      }
      std::getline(in, key);
    }
    return 0.0;
  }

  /// Asks the daemon to drain and waits (bounded) for exit status 0.
  void shutdown(Report& rep) {
    try {
      ServeClient(socket_, 2000).shutdown();
    } catch (const std::exception& e) {
      rep.wrong(std::string("daemon shutdown: ") + e.what());
    }
    int status = 0;
    for (int i = 0; i < 300; ++i) {  // 30 s
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
          rep.wrong("daemon exited uncleanly");
        return;
      }
      usleep(100 * 1000);
    }
    rep.wrong("daemon did not exit after shutdown");
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Submit, retrying err.queue_full (backpressure is not a failure).
SubmitReply submit(ServeClient& c, std::uint64_t seed) {
  for (;;) {
    SubmitReply r = c.submit_circuit(kGates, seed);
    if (r.ok || r.error.code != static_cast<std::uint8_t>(ServeError::kQueueFull))
      return r;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        r.error.retry_after_ms > 0 ? r.error.retry_after_ms : 1));
  }
}

/// One client's view of the timed window.
struct ClientLog {
  LatencyHistogram rtt_us, queue_us, run_us, transport_us;
  std::vector<std::uint64_t> jobs;  ///< job ids of the ok replies, in order
  /// Never-seen circuits submitted: (seed, digest of the window's reply).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cold_seen;
  std::uint64_t sent = 0, failed = 0, cold = 0;
  std::vector<std::string> problems;
};

struct Window {
  std::vector<ClientLog> logs;
  double seconds = 0.0;
  LatencyHistogram rtt_us, queue_us, run_us, transport_us;
  std::uint64_t sent = 0, failed = 0, cold = 0;
};

/// Setup outcome: reference digests of the warm set plus quality totals.
struct Warm {
  std::map<std::uint64_t, std::uint64_t> digest;
  double delay_ps = 0.0, area = 0.0;
};

Warm warm_up(ServeClient& c, const std::vector<std::uint64_t>& warm,
             Report& rep) {
  Warm w;
  for (const std::uint64_t s : warm) {
    const SubmitReply cold = submit(c, s);
    const SubmitReply hot = submit(c, s);
    rep.attempt(2);
    if (!cold.ok || !cold.result.ok || !hot.ok || !hot.result.ok) {
      rep.fail("warm-up request for circuit " + std::to_string(s) + " failed");
      continue;
    }
    check_digest(cold.result.digest, hot.result.digest, "warm rerun", rep);
    w.digest[s] = cold.result.digest;
    w.delay_ps += cold.result.delay_ps;
    w.area += cold.result.area;
  }
  return w;
}

/// Each client sends `requests` requests; a client's never-seen circuits are
/// the first `requests / kColdOneIn` of its list.
Window drive(const std::string& socket, const Args& a, std::size_t requests,
             const std::vector<std::uint64_t>& warm, const Warm& ref,
             const std::vector<std::vector<std::uint64_t>>& cold) {
  Window w;
  w.logs.resize(kClients);
  std::vector<std::unique_ptr<ServeClient>> conns;
  for (int c = 0; c < kClients; ++c)
    conns.push_back(std::make_unique<ServeClient>(socket, 10000));
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = w.logs[c];
      ServeClient& conn = *conns[c];
      Rng rng(a.seed * 0x9E3779B97F4A7C15ULL ^ (0xE0u + c));
      std::size_t next_cold = 0;
      for (std::size_t i = 0; i < requests; ++i) {
        const bool is_cold = i % kColdOneIn == kColdOneIn - 1;
        const std::uint64_t s =
            is_cold ? cold[c].at(next_cold++)
                    : warm[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(warm.size()) - 1))];
        ++log.sent;
        log.cold += is_cold ? 1 : 0;
        const auto t0 = Clock::now();
        SubmitReply r;
        try {
          r = submit(conn, s);
        } catch (const std::exception& e) {
          ++log.failed;
          log.problems.push_back(std::string("transport: ") + e.what());
          return;
        }
        const double rtt_ms = ms_since(t0);
        if (!r.ok || !r.result.ok) {
          ++log.failed;
          log.problems.push_back("circuit " + std::to_string(s) + ": " +
                                 (r.ok ? r.result.error : r.error.message));
          continue;
        }
        if (!is_cold && r.result.digest != ref.digest.at(s)) {
          ++log.failed;
          log.problems.push_back("warm circuit " + std::to_string(s) +
                                 ": digest changed");
        }
        if (is_cold) log.cold_seen.emplace_back(s, r.result.digest);
        log.jobs.push_back(r.result.job_id);
        const double q = r.result.queue_ms, run = r.result.wall_ms;
        log.rtt_us.record(static_cast<std::uint64_t>(rtt_ms * 1000.0));
        log.queue_us.record(static_cast<std::uint64_t>(q * 1000.0));
        log.run_us.record(static_cast<std::uint64_t>(run * 1000.0));
        log.transport_us.record(
            static_cast<std::uint64_t>(std::max(0.0, rtt_ms - q - run) * 1000.0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  w.seconds = ms_since(start) / 1000.0;
  for (const ClientLog& log : w.logs) {
    w.rtt_us.merge_from(log.rtt_us);
    w.queue_us.merge_from(log.queue_us);
    w.run_us.merge_from(log.run_us);
    w.transport_us.merge_from(log.transport_us);
    w.sent += log.sent;
    w.failed += log.failed;
    w.cold += log.cold;
  }
  return w;
}

void account(const Window& w, Report& rep) {
  rep.attempt(w.sent);
  for (const ClientLog& log : w.logs) {
    for (const std::string& p : log.problems) rep.fail(p);
    for (std::uint64_t i = log.problems.size(); i < log.failed; ++i)
      rep.fail("request failed");
  }
}

/// Never-seen circuits submitted during the window, resubmitted twice now
/// that they are warm: the cache may speed them up, never change the answer
/// the window's cold run returned.
void recheck_cold(ServeClient& c, const Window& w, Report& rep) {
  int checked = 0;
  for (const ClientLog& log : w.logs)
    for (std::size_t i = 0; i < log.cold_seen.size() && i < 2; ++i) {
      const auto [s, digest] = log.cold_seen[i];
      for (int k = 0; k < 2; ++k) {
        const SubmitReply r = submit(c, s);
        rep.attempt();
        if (!r.ok || !r.result.ok)
          rep.fail("recheck of circuit " + std::to_string(s) + " failed");
        else
          check_digest(digest, r.result.digest, "never-seen rerun", rep);
      }
      ++checked;
    }
  if (checked == 0) rep.wrong("no never-seen circuit was submitted");
}

/// Per-layer inputs rebuilt from the stats documents of the counted jobs
/// (each client's first kCountedRequests requests of the traced window):
/// counts, per-L stats and span times are totals over those jobs.
struct JobStatsAgg {
  ObsSink sink;
  SpanTimes times;
  std::vector<double> critical, parallelism, steals;

  void add(const JsonValue& doc) {
    const JsonValue& counters = doc.at("counters");
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const auto c = static_cast<Counter>(i);
      if (counters.has(counter_name(c)))
        sink.add(c, static_cast<std::uint64_t>(counters.at(counter_name(c)).number));
    }
    const JsonValue& gauges = doc.at("gauges");
    for (std::size_t i = 0; i < kGaugeCount; ++i) {
      const auto g = static_cast<Gauge>(i);
      if (gauges.has(gauge_name(g)))
        sink.maximize(g, static_cast<std::uint64_t>(gauges.at(gauge_name(g)).number));
    }
    for (const JsonValue& l : doc.at("layers").array) {
      const auto L = static_cast<std::size_t>(l.at("layer").number);
      const auto calls = static_cast<std::uint64_t>(l.at("calls").number);
      // record_layer counts one call per invocation: book the totals once,
      // then the remaining calls empty.
      sink.record_layer(L, static_cast<std::uint64_t>(l.at("pushed").number),
                        static_cast<std::uint64_t>(l.at("pruned").number),
                        static_cast<std::uint64_t>(l.at("kept").number));
      for (std::uint64_t k = 1; k < calls; ++k) sink.record_layer(L, 0, 0, 0);
    }
    const JsonValue& rt = doc.at("runtime");
    for (const JsonValue& s : rt.at("spans").array)
      for (std::size_t i = 0; i < kSpanNameCount; ++i)
        if (s.at("name").string == span_name(static_cast<SpanName>(i))) {
          times.total_ms[i] += s.at("total_ns").number / 1e6;
          times.count[i] += static_cast<std::uint64_t>(s.at("count").number);
        }
    const double wall = rt.at("wall_ms").number;
    double sum = 0.0, max = 0.0;
    for (const JsonValue& n : doc.at("nets").array) {
      const double ms = n.at("wall_us").number / 1000.0;
      sum += ms;
      max = std::max(max, ms);
    }
    if (wall > 0) {
      critical.push_back(max / wall);
      parallelism.push_back(sum / wall);
    }
    steals.push_back(rt.at("steals").number);
  }

  /// Self times from the rollups' known nesting (Flow III): batch.net holds
  /// flow.search, which holds merlin.iteration, which holds bubble.construct
  /// and merlin.compact; bubble.construct holds bubble.layer.  Per-L times
  /// are not in the rollups.
  void finish() {
    const auto total = [&](SpanName n) {
      return times.total_ms[static_cast<std::size_t>(n)];
    };
    const auto minus = [&](SpanName n, double children) {
      times.self_ms[static_cast<std::size_t>(n)] = total(n) - children;
    };
    times.self_ms = times.total_ms;
    minus(SpanName::kBatchNet, total(SpanName::kFlowSearch));
    minus(SpanName::kFlowSearch, total(SpanName::kMerlinIteration));
    minus(SpanName::kMerlinIteration, total(SpanName::kBubbleConstruct) +
                                          total(SpanName::kMerlinCompact));
    minus(SpanName::kBubbleConstruct, total(SpanName::kBubbleLayer));
  }
};

void print_window(const char* what, const Window& w) {
  std::printf("%s window: %.3f s, %llu requests (%llu never-seen), %llu "
              "failed\n",
              what, w.seconds, static_cast<unsigned long long>(w.sent),
              static_cast<unsigned long long>(w.cold),
              static_cast<unsigned long long>(w.failed));
}

}  // namespace

void run_daemon_eco(const Args& a, Report& rep) {
  const std::size_t threads = available_cpus();
  print_env(a, threads);
  std::printf("clients=%d\n", kClients);
  BenchSpans spans;
  const std::string sock_base =
      a.run_dir + "/d" + std::to_string(getpid()) + "_";

  // Set-up (library, the input circuits, daemon spawn and the warm set),
  // repeated for a median; the last repetition's daemon serves the window.
  std::vector<double> setup_s;
  std::optional<BufferLibrary> lib;
  std::vector<std::uint64_t> warm;
  std::vector<std::vector<std::uint64_t>> cold;
  std::unique_ptr<Daemon> daemon;
  Warm ref;
  for (int i = 0; i < kSetupReps; ++i) {
    if (daemon) {
      daemon->shutdown(rep);
      daemon.reset();
    }
    const auto t0 = Clock::now();
    {
      BenchSpan s(spans, "setup.inputs");
      lib.emplace(make_standard_library());
      warm = warm_set(*lib);
      cold = never_seen(*lib, warm);
    }
    daemon = std::make_unique<Daemon>(a.daemon_bin, sock_base + "u.sock",
                                      threads, false);
    {
      BenchSpan s(spans, "setup.warm_set");
      ServeClient c(daemon->socket(), 10000);
      if (i == 0) {
        ref = warm_up(c, warm, rep);
      } else {
        Report again_rep;  // a repeated warm-up: checked, not re-counted
        const Warm again = warm_up(c, warm, again_rep);
        if (!again_rep.correct() || again.digest != ref.digest)
          rep.wrong("repeated set-up: warm set changed");
      }
    }
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  // The daemon must agree with an in-process BatchRunner on one circuit.
  std::unique_ptr<SubproblemCache> ref_cache;
  {
    BenchSpan s(spans, "check.in_process_digest");
    ref_cache = std::make_unique<SubproblemCache>(cli_cache_config());
    BatchOptions opts;
    opts.threads = threads;
    opts.cache = ref_cache.get();
    CircuitSpec spec;
    spec.name = "ckt" + std::to_string(kGates);
    spec.n_gates = kGates;
    spec.seed = warm.front();
    const BatchResult r = BatchRunner(*lib, opts).run(make_random_circuit(spec, *lib));
    check_digest(ref.digest[warm.front()], batch_result_digest(r),
                 "daemon vs in-process BatchRunner", rep);
  }

  // Untraced: every request.  Traced: the first half untraced, then the same
  // request sequence against a fresh daemon with span rings armed.
  const std::size_t half = kRequestsPerClient / 2;
  Window w;
  {
    BenchSpan s(spans, "window.untraced");
    w = drive(daemon->socket(), a, a.trace ? half : kRequestsPerClient, warm,
              ref, cold);
  }
  account(w, rep);
  print_window("untraced", w);
  {
    ServeClient c(daemon->socket(), 10000);
    recheck_cold(c, w, rep);
  }
  const double rss = daemon->peak_rss_mb();
  daemon->shutdown(rep);
  daemon.reset();

  const double p50 = percentile_ms(w.rtt_us, 50.0, "req_ms");
  const double p90 = percentile_ms(w.rtt_us, 90.0, "req_ms");
  const double rate = w.seconds > 0 ? static_cast<double>(w.sent - w.failed) / w.seconds : 0.0;
  const double q50 = percentile_ms(w.queue_us, 50.0, "serve.queue_ms");
  const double q90 = percentile_ms(w.queue_us, 90.0, "serve.queue_ms");
  const double run50 = percentile_ms(w.run_us, 50.0, "serve.run_ms");
  const double tr50 = percentile_ms(w.transport_us, 50.0, "serve.transport_ms");
  std::printf("  req_p50_ms = %.3f ms\n  req_p90_ms = %.3f ms\n"
              "  req_per_s = %.3f 1/s\n  daemon peak RSS = %.1f MB\n",
              p50, p90, rate, rss);

  rep.set("setup_s", median(setup_s), "s");
  rep.set("peak_rss_mb", rss, "MB");
  rep.set("op_p50_ms", p50, "ms");
  rep.set("op_tail_ms", p90, "ms");
  rep.set("ops_per_s", rate, "1/s");
  rep.set("delay_ps", ref.delay_ps, "ps");
  rep.set("area", ref.area, "area");

  if (!a.trace) return;

  Daemon traced(a.daemon_bin, sock_base + "t.sock", threads, true);
  {
    ServeClient c(traced.socket(), 10000);
    Report setup_rep;  // a second warm-up: checked, not re-counted
    const Warm again = warm_up(c, warm, setup_rep);
    if (again.digest != ref.digest) rep.wrong("traced daemon: warm set changed");
  }
  Window tw;
  {
    BenchSpan s(spans, "window.traced");
    tw = drive(traced.socket(), a, half, warm, ref, cold);
  }
  account(tw, rep);
  print_window("traced", tw);
  JobStatsAgg agg;
  {
    BenchSpan s(spans, "ServeClient::stats");
    ServeClient c(traced.socket(), 10000);
    for (const ClientLog& log : tw.logs) {
      if (log.jobs.size() < kCountedRequests)
        rep.wrong("traced window: a client finished fewer than " +
                  std::to_string(kCountedRequests) + " requests");
      for (std::size_t i = 0; i < std::min(log.jobs.size(), kCountedRequests); ++i)
        agg.add(json_parse(c.stats(log.jobs[i]).json));
    }
  }
  traced.shutdown(rep);
  agg.finish();

  LayerInputs in;
  in.sink = &agg.sink;
  in.times = agg.times;
  in.critical_path_ratio = median(agg.critical);
  in.parallelism = median(agg.parallelism);
  in.steals = median(agg.steals);
  report_layers(in, rep);
  run_probes(*ref_cache, *lib, spans, rep);

  const double tp50 = percentile_ms(tw.rtt_us, 50.0, "traced req_ms");
  const double overhead = p50 > 0 ? (tp50 - p50) / p50 * 100.0 : 0.0;
  std::printf("trace overhead: %.2f%% (traced req p50 %.3f ms, untraced "
              "%.3f ms)\n",
              overhead, tp50, p50);
  rep.set("trace.overhead_pct", overhead, "%");
  rep.set("serve.queue_ms.p50", q50, "ms");
  rep.set("serve.queue_ms.p90", q90, "ms");
  rep.set("serve.run_ms.p50", run50, "ms");
  rep.set("serve.transport_ms.p50", tr50, "ms");
  spans.print();
}

}  // namespace perfbench
