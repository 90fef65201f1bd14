#pragma once
// Parallel circuit-scale flow execution.
//
// Table 2 of the paper evaluates the flows over whole benchmark circuits —
// hundreds of independent per-net constructions — which is embarrassingly
// parallel.  BatchRunner shards a circuit's nets across a work-stealing
// thread pool (runtime/pool.h), runs one of the paper's Flows I/II/III on
// each, and merges deterministically:
//
//   * results are keyed by driver-gate id and each job writes its own
//     pre-allocated slot, so nothing depends on completion order;
//   * the reduction (areas, stats, STA) is a serial sweep in ascending net
//     id, so floating-point sums are bit-identical run to run;
//   * no flow draws a random number, so a net's result is a function of
//     the net and the options alone, never of a worker id or the schedule;
//   * Flow III's sub-problem caching runs through a per-worker CacheSession
//     (cleared per net).  When BatchOptions::cache attaches a shared
//     SubproblemCache, the shared store is read-only during the parallel
//     phase and every staged write is published serially in ascending net
//     id at reduction — so even the cache's end state is bit-identical at
//     any thread count (cache/shard.h has the full contract).
//
// tests/test_batch_differential.cpp enforces the resulting invariant:
// 1-thread and N-thread runs are bit-identical.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "cache/signature.h"
#include "flow/circuit.h"
#include "flow/flows.h"
#include "runtime/guard.h"

namespace merlin {

class SubproblemCache;  // cache/shard.h
struct RuntimeInfo;     // obs/json.h

/// Which of the paper's flows the batch runs on every net.
enum class FlowKind { kFlow1 = 1, kFlow2 = 2, kFlow3 = 3 };

/// The per-net memo key of a Flow III net: its full input signature under
/// `cfg` (the per-net FlowConfig run_flow3 would get) and the deterministic
/// caps of `guard`.  It covers the source, the driver's delay model, every
/// sink (position, load, required time) in index order, the wire model,
/// the library cells, the realized candidate set, every FlowConfig field
/// Flow III reads (the objective and max_iterations included) and
/// step_budget / arena_node_cap, so a warm run trips exactly where a cold
/// one would; the wall-clock deadline is left out.  The net id is not in
/// the key (Flow III draws no RNG), so the same net inside another circuit
/// keys the same.  A domain tag keeps it apart from every Gamma group key.
///
/// With a shared SubproblemCache attached, BatchRunner looks each Flow III
/// net's key up before running it: a hit rebuilds the net's result from
/// the stored chosen solution and skips MERLIN; a miss runs the flow and
/// stages the result for the serial publish.  The memo is bypassed on
/// degradation-ladder rungs, for Flows I/II, and while a FaultInjector is
/// armed.
CacheKey net_memo_key(const Net& net, const BufferLibrary& lib,
                      const FlowConfig& cfg, const GuardConfig& guard);

/// What the batch does when a net's construction fails (throws, trips its
/// budget, or exhausts its arena).  See docs/ROBUSTNESS.md for the full
/// policy table.
enum class FailPolicy : std::uint8_t {
  /// Record the failure, let every other in-flight net finish (all futures
  /// are joined), then rethrow the failed net with the lowest id — a
  /// deterministic abort for callers that want fail-fast semantics.
  kAbort,
  /// Classify the net (failed / over_budget / deadline), give it a star
  /// fallback tree so the circuit STA stays well-defined, and continue.
  kSkip,
  /// Walk the degradation ladder: retry with a tightened config, then
  /// Flow I (tightened), then the star tree.  The net ends `degraded` (or
  /// `ok` if the first attempt succeeded).  The terminal rung cannot fail,
  /// so the batch always completes.  The default.
  kDegrade,
};

[[nodiscard]] constexpr const char* fail_policy_name(FailPolicy p) {
  switch (p) {
    case FailPolicy::kAbort: return "abort";
    case FailPolicy::kSkip: return "skip";
    case FailPolicy::kDegrade: return "degrade";
  }
  return "unknown";
}

/// Warm, reusable batch execution state: a ThreadPool plus per-worker
/// SolutionArenas and CacheSessions that survive from one run to the next,
/// so a long-lived caller (merlin_d, repeated benchmarking legs) pays the
/// thread spawn and slab/bucket allocation once instead of per run.
///
/// Attach via BatchOptions::context.  When set:
///   * the context's pool decides the worker count (BatchOptions::threads is
///     ignored), and the context's cache wins over BatchOptions::cache
///     (MERLIN_CACHE=off is honored once, at context construction);
///   * per-run state (ObsSinks, flush slots, result vectors) stays per-run,
///     so results are bit-identical to a context-free run at the same thread
///     count — the daemon-vs-CLI differential in tests/test_serve.cpp holds
///     the two paths to that;
///   * pool idle/steal spans are unavailable (a PoolObserver must be
///     installed before the pool's first task, which a warm pool has long
///     since run); net-attributed spans are unaffected.
///
/// A context serves ONE run at a time — concurrent run_jobs calls sharing a
/// context throw std::logic_error.  Serialize externally (the daemon's
/// scheduler thread does exactly that).
class BatchContext {
 public:
  /// `threads` as in BatchOptions::threads (0 = hardware concurrency).
  /// `cache` may be null: runs reduce to per-worker scratch caching.
  explicit BatchContext(std::size_t threads, SubproblemCache* cache = nullptr);
  ~BatchContext();
  BatchContext(const BatchContext&) = delete;
  BatchContext& operator=(const BatchContext&) = delete;

  /// Resolved worker count (never 0).
  [[nodiscard]] std::size_t threads() const;
  /// The attached shared cache after the MERLIN_CACHE gate (may be null).
  [[nodiscard]] SubproblemCache* cache() const;
  /// Runs completed through this context since construction.
  [[nodiscard]] std::uint64_t runs() const;

  /// Opaque warm state (pool, arenas, sessions); defined in batch.cpp.
  struct Impl;

 private:
  friend class BatchRunner;
  std::unique_ptr<Impl> impl_;
};

/// Batch execution knobs.
struct BatchOptions {
  std::size_t threads = 1;  ///< worker count; 0 = hardware concurrency
  FlowKind flow = FlowKind::kFlow3;

  /// When true (default) each net gets scaled_flow_config(fanout); when
  /// false, `config` is used verbatim for every net.
  bool scaled_config = true;
  FlowConfig config{};

  /// Spread of the estimated pin required times handed to each net,
  /// applied by run(Circuit) during net extraction; see
  /// extract_circuit_nets.
  double req_compression = 1.0;

  /// Optional aggregate observability sink.  The runner gives every pool
  /// worker a private ObsSink (same ownership discipline as the per-worker
  /// CacheSession/SolutionArena), then merges them into this sink serially
  /// after the pool drains: counters/gauges/layer stats are commutative, and
  /// per-net trace rows are re-sorted by net id and capped at this sink's
  /// trace_capacity() — so everything except wall times and the `runtime`
  /// facts is identical across thread counts.
  ObsSink* obs = nullptr;

  /// Per-net execution limits (all disabled by default).  The step and
  /// arena caps are deterministic; deadline_ms is wall-clock and forfeits
  /// the 1-vs-N-thread identity (docs/ROBUSTNESS.md).
  GuardConfig guard{};

  /// Optional shared cross-net sub-problem cache (cache/shard.h), used by
  /// Flow III.  Read-only during the parallel phase: workers stage writes
  /// in private CacheSessions and the runner publishes them serially in
  /// ascending net id at reduction, so per-net results AND the cache's end
  /// state stay bit-identical at any thread count.  Only nets whose first
  /// attempt succeeds publish (degraded/failed nets' partial stagings are
  /// discarded — they may depend on where an attempt was interrupted).
  /// Null (or capacity 0, or MERLIN_CACHE=off in the environment) reduces
  /// to per-worker scratch caching, the pre-cache-subsystem behavior.
  SubproblemCache* cache = nullptr;

  /// What to do when a net's construction fails; see FailPolicy.
  FailPolicy fail_policy = FailPolicy::kDegrade;

  /// Optional deterministic fault injector (chaos testing; default off).
  /// When null, the process-wide MERLIN_INJECT injector (if the environment
  /// variable is set) is used instead, so an unmodified test suite can run
  /// under injection.  Decisions are pure functions of (seed, net id, site)
  /// — thread-count-independent by construction.
  const FaultInjector* inject = nullptr;

  /// Optional progress callback, invoked with (nets completed, nets total)
  /// each time a net's slot retires.  Calls come from pool worker threads in
  /// completion order (a scheduling fact, like everything the reduce later
  /// re-sorts away), possibly concurrently — the callee must be
  /// thread-safe.  Purely observational: results never depend on it.
  /// merlin_cli --progress hangs its stderr ticker here.
  std::function<void(std::size_t done, std::size_t total)> progress;

  /// Optional warm execution state (pool + per-worker arenas/sessions)
  /// reused across runs; see BatchContext.  When set, `threads` and `cache`
  /// above are ignored in favor of the context's.  The context must outlive
  /// every run that uses it.
  BatchContext* context = nullptr;
};

/// Outcome of one net of the batch.
struct BatchNetResult {
  std::uint32_t net_id = 0;  ///< driver-gate id (or index, for raw net lists)
  bool trivial = false;      ///< two-pin net routed as a direct wire
  FlowResult result;
  double wall_ms = 0.0;  ///< job wall time as scheduled (not deterministic)

  /// Terminal classification (deterministic under step budgets).
  NetStatus status = NetStatus::kOk;
  /// Construction attempts consumed (1 = first try succeeded; each further
  /// degradation-ladder rung adds one).
  std::uint32_t attempts = 1;
  /// BudgetExceeded trips across this net's attempts (deterministic).
  std::uint32_t budget_trips = 0;
  /// First failure's message (empty for status == ok).
  std::string error;
};

/// The scheduling-independent aggregates of a batch run.  A substruct so
/// the serial-vs-parallel differential tests can compare it *structurally*
/// (defaulted operator==) rather than by the comment convention that used
/// to mark which BatchStats fields were safe to diff; wall-time and
/// scheduling facts live in the enclosing BatchStats and cannot leak into
/// the comparison.
struct BatchStatsDet {
  std::size_t net_count = 0;    ///< nets processed (including trivial)
  std::size_t trivial_nets = 0;
  std::size_t cache_hits = 0;   ///< CacheSession totals (Flow III only)
  std::size_t cache_misses = 0;
  std::size_t buffers_inserted = 0;
  double buffer_area = 0.0;

  // Robustness outcome counts (deterministic under step budgets; a run with
  // a wall-clock deadline enabled forfeits the identity — docs/ROBUSTNESS.md).
  std::size_t nets_ok = 0;
  std::size_t nets_degraded = 0;
  std::size_t nets_failed = 0;
  std::size_t nets_over_budget = 0;
  std::size_t nets_deadline = 0;
  std::size_t retries = 0;       ///< ladder rungs attempted beyond the first
  std::size_t budget_trips = 0;  ///< BudgetExceeded raised across all attempts
  friend bool operator==(const BatchStatsDet&, const BatchStatsDet&) = default;
};

/// Aggregate observability report of a batch run.  Everything outside `det`
/// depends on scheduling (thread count, steal luck, machine load) and is
/// excluded from differential comparisons by construction.
struct BatchStats {
  BatchStatsDet det;

  std::size_t threads_used = 1;
  std::size_t steals = 0;  ///< pool tasks executed off a foreign queue
  std::vector<std::uint64_t> worker_tasks;  ///< tasks executed per worker
  /// CPU time each pool worker thread spent in this batch: its tasks, the
  /// forks it helped, and its spinning (ThreadPool::worker_cpu_ns deltas).
  std::vector<double> worker_cpu_ms;

  double wall_ms = 0.0;          ///< end-to-end batch wall time
  double total_net_ms = 0.0;     ///< sum of per-net job wall times
  double mean_net_ms = 0.0;
  double max_net_ms = 0.0;

  /// One-line human-readable summary.
  [[nodiscard]] std::string to_string() const;
  /// The `runtime` section of the run's stats document (stats_to_json), as
  /// merlin_cli --stats-json and merlin_d's per-job stats both report it.
  [[nodiscard]] RuntimeInfo runtime_info() const;
};

/// Result of a batch run.
struct BatchResult {
  std::vector<BatchNetResult> nets;  ///< ascending net_id
  BatchStats stats;
  /// Full circuit-level outcome (STA included); only populated by
  /// BatchRunner::run(Circuit), zero for raw net lists.
  CircuitFlowResult circuit;
};

/// Shards nets across a thread pool and merges deterministically.
///
/// Fault isolation: a net whose construction throws, trips its budget, or
/// exhausts its arena is handled per BatchOptions::fail_policy — by default
/// the degradation ladder rescues it and the batch always completes with a
/// valid circuit STA.  Only FailPolicy::kAbort rethrows (deterministically:
/// every net still runs, every future is joined, and the failure with the
/// lowest net id propagates).
class BatchRunner {
 public:
  BatchRunner(const BufferLibrary& lib, BatchOptions opts = {});

  /// Runs the configured flow on every driven net of `ckt` and closes with
  /// the circuit-level STA.
  [[nodiscard]] BatchResult run(const Circuit& ckt) const;

  /// Runs the configured flow on an explicit net list; net ids are indices.
  [[nodiscard]] BatchResult run_nets(const std::vector<Net>& nets) const;

 private:
  BatchResult run_jobs(const std::vector<CircuitNet>& jobs,
                       const Circuit* ckt) const;

  const BufferLibrary& lib_;
  BatchOptions opts_;
};

// The comparators and the digest read one list of identity fields
// (batch_identity in batch.cpp; flow_results_identical reads its per-net
// flow part).  Doubles compare as IEEE bit patterns.

/// True iff two flow results are identical in every scheduling-independent
/// field: the full routing tree, the evaluation, loop count and cache
/// counters.  Wall times are excluded by design.
bool flow_results_identical(const FlowResult& a, const FlowResult& b);

/// batch_results_equivalent plus the cache counters, per net and in
/// `stats.det`.
bool batch_results_identical(const BatchResult& a, const BatchResult& b);

/// Everything batch_result_digest hashes, plus the error strings and
/// `stats.det` without its cache counters: trees, evals, statuses and the
/// circuit outcome must match, but cache hits/misses may differ.  The
/// warm-vs-cold comparisons (tests/test_cache.cpp) need this form — a warm
/// rerun serves sub-problems from the shared store, turning misses into
/// hits without changing any structure.
bool batch_results_equivalent(const BatchResult& a, const BatchResult& b);

/// 64-bit FNV-1a digest of every scheduling-independent, cache-blind field
/// of a batch result: per net — id, trivial flag, status, attempts, budget
/// trips, the full tree (kind/position/idx/parent/wire width/child list),
/// the evaluation's double bit patterns and the loop count — plus the
/// circuit-level outcome.  Wall times and cache hit/miss counters are
/// excluded, so a warm rerun digests identically to a cold one.  Equal
/// digests are the daemon-vs-CLI differential's cheap transport: merlin_cli
/// --digest prints it, merlin_d returns it with every result.
std::uint64_t batch_result_digest(const BatchResult& r);

}  // namespace merlin
