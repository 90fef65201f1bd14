#pragma once
// Shared vocabulary of the repository benchmark: the report every workload
// fills, the benchmark's own spans, timing helpers and the correctness
// checks.  Everything here sits *outside* the engine: the benchmark times its
// own calls into public functions and reads what ObsSink already exposes.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "cache/shard.h"
#include "flow/batch.h"
#include "obs/hist.h"
#include "obs/sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  std::string daemon_bin;  ///< merlin_d executable (daemon_eco only)
  std::string run_dir;     ///< directory for run files (the daemon socket)
};

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus();

/// Prints the run's environment line (workload, seed, nproc, threads).
void print_env(const Args& a, std::size_t threads);

/// The shared-cache budget of merlin_cli --circuit and merlin_d (64 MB).
merlin::CacheConfig cli_cache_config();

/// Peak resident set of this process, MB.
double self_peak_rss_mb();

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

/// One named value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run measured and whether its outputs were right.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }

  /// Counts `n` operations (a net, a circuit run or a request).
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// One operation failed (net status != ok, request error, check failure).
  void fail(const std::string& why);
  /// A correctness check failed outside any single operation (self-test,
  /// probe replay, cross-check).
  void wrong(const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && !wrong_; }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool wrong_ = false;
  std::vector<std::string> problems_;
};

/// The benchmark's own spans: wall time per name around setup, the public
/// calls it makes and the probes (count and total), printed in traced runs.
class BenchSpans {
 public:
  void add(const std::string& name, double ms) {
    Row& r = rows_[name];
    ++r.count;
    r.total_ms += ms;
  }
  void print() const;

 private:
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
  };
  std::map<std::string, Row> rows_;
};

/// RAII timer feeding a BenchSpans row.
class BenchSpan {
 public:
  BenchSpan(BenchSpans& spans, std::string name)
      : spans_(spans), name_(std::move(name)), t0_(Clock::now()) {}
  ~BenchSpan() { spans_.add(name_, ms_since(t0_)); }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  BenchSpans& spans_;
  std::string name_;
  Clock::time_point t0_;
};

/// Percentile `p` of a microsecond histogram, in ms, printed as
/// "label pXX = v ms (n=count, beyond=k)" so every percentile carries its
/// sample count.
double percentile_ms(const merlin::LatencyHistogram& h, double p,
                     const char* label);

// -- correctness -------------------------------------------------------------

/// The input net of every result, indexed by BatchNetResult::net_id.
using NetIndex = std::map<std::uint32_t, const merlin::Net*>;

/// Checks every net of `r`: status ok, the tree re-evaluated by
/// evaluate_tree equals the reported eval field for field, the tree is
/// well-formed (analyze_structure), and is a Ca_Tree (is_ca_tree) wherever
/// the net's configuration promises one.  Each failing net is one failed
/// operation in `rep`.  Returns the number of failing nets.
std::size_t verify_batch(const merlin::BatchResult& r, const NetIndex& nets,
                         const merlin::BufferLibrary& lib, Report& rep);

/// Digest check: `got` must equal `want`; a mismatch is a failed operation.
bool check_digest(std::uint64_t want, std::uint64_t got, const char* what,
                  Report& rep);

/// Shows that the checks bite: a copy of `r` with one tree corrupted must
/// fail verify_batch and change the digest, and a flipped digest must fail
/// check_digest.  A check that lets the corruption through marks `rep`
/// wrong.
void self_test(const merlin::BatchResult& r, const NetIndex& nets,
               const merlin::BufferLibrary& lib, Report& rep);

// -- workloads -----------------------------------------------------------------

void run_circuit(const Args& args, Report& rep);
void run_nets(const Args& args, Report& rep);
void run_daemon_eco(const Args& args, Report& rep);

}  // namespace perfbench
