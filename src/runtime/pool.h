#pragma once
// Work-stealing thread pool for circuit-scale batch execution.
//
// Each worker owns a deque; `submit` deals tasks round-robin across the
// worker queues (or onto the submitting worker's own queue when called from
// inside the pool).  A worker pops from the back of its own queue (LIFO, hot
// in cache) and, when empty, steals from the front of the longest other
// queue (FIFO, oldest first) so an imbalanced shard distribution still keeps
// every core busy.  All queues hang off one mutex: per-net flow work is
// milliseconds-scale, so queue contention is irrelevant next to the tasks
// themselves, and a single lock keeps the pool trivially ThreadSanitizer-
// clean.
//
// Exceptions thrown by a task are captured in the task's future and rethrown
// from `future::get()` on the caller's thread.  Destruction drains: every
// task already submitted runs to completion before the workers join, so
// dropping a pool with queued work loses nothing.
//
// `parallel_for` is the pool's fork-join: a task that has many independent
// items (one BUBBLE_CONSTRUCT phase over candidate locations) runs them on
// itself plus whichever workers are idle.  Helpers are not tasks — they never
// touch the queues, the futures or the executed/steal counts — and a worker
// that has just helped spins briefly before parking, because the next fork
// of the same net usually follows within microseconds.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace merlin {

/// Scheduling callbacks for timeline observers (the batch engine bridges
/// these into its per-worker ObsSinks; the pool itself knows nothing about
/// the obs layer).  Both fire on the worker's own thread, and always BEFORE
/// the task they annotate runs — so every write a callback makes
/// happens-before that task's future completes, and an observer writing
/// per-worker state needs no synchronization beyond the future join.  (An
/// idle gap that ends in helping a parallel_for is reported before the
/// helper joins; the forking task returns only after the helper leaves, so
/// the same holds for that task's future.)
/// Timestamps are steady-clock nanoseconds since the clock epoch.
struct PoolObserver {
  /// A worker waited for work: the gap from first going idle to picking up
  /// the next task or joining a parallel_for as a helper.  (Trailing
  /// idleness before shutdown is not reported.)
  std::function<void(std::size_t worker, std::uint64_t idle_begin_ns,
                     std::uint64_t idle_end_ns)>
      on_idle;
  /// The task the worker is about to run was stolen from another queue.
  std::function<void(std::size_t worker, std::uint64_t now_ns)> on_steal;
};

class ThreadPool {
 public:
  /// Sentinel returned by worker_index() on threads outside this pool.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `n_threads` = 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);

  /// Drains every already-submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `task`.  The returned future completes when the task has run;
  /// `get()` rethrows any exception the task threw.  Throws
  /// std::runtime_error if the pool is already shutting down.
  std::future<void> submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Index of the calling thread within this pool, or `npos` when called
  /// from a thread this pool does not own.  Stable for the pool's lifetime —
  /// batch runners key per-worker scratch state (e.g. CacheSession) off it.
  [[nodiscard]] std::size_t worker_index() const;

  /// Number of tasks a worker executed out of another worker's queue.
  /// Purely informational (load-balance observability).
  [[nodiscard]] std::size_t steal_count() const;

  /// Tasks executed so far, per worker.  Like steal_count this is a
  /// scheduling fact: the per-worker split varies run to run (only the sum
  /// is stable), so it belongs in the non-deterministic `runtime` section
  /// of any stats export, never in differential comparisons.
  [[nodiscard]] std::vector<std::uint64_t> executed_counts() const;

  /// Each worker thread's CPU time so far (CLOCK_THREAD_CPUTIME_ID through
  /// pthread_getcpuclockid), in nanoseconds; 0 where the clock cannot be
  /// read.  Like executed_counts a scheduling fact: callers report deltas
  /// over a batch in the non-deterministic `runtime` section.
  [[nodiscard]] std::vector<std::uint64_t> worker_cpu_ns() const;

  /// Workers idle right now (parked or spinning for work): the ones a
  /// parallel_for would ask to help.  A scheduling hint, stale at once.
  [[nodiscard]] std::size_t idle_workers() const {
    return parked_.load(std::memory_order_relaxed) +
           spinning_.load(std::memory_order_relaxed);
  }

  /// Fork-join over items [0, n): calls `body(i)` exactly once per item and
  /// returns when every item has run.  The caller claims items from an
  /// atomic counter in ascending order; the fork stays listed while it has
  /// unclaimed items, so workers that are idle, or go idle while it runs,
  /// join it (queued tasks first), and the caller waits only for items
  /// already claimed, so a fork can never deadlock on a busy pool — with no
  /// idle worker the caller simply finishes alone.  It is a plain loop on a
  /// one-worker pool, for n < 2, and when called from inside an item (a
  /// nested fork runs inline).  If items throw, no further item is claimed
  /// and, once the claimed items have drained, the exception of the lowest
  /// throwing index is rethrown — the one a serial loop would have raised.
  /// `body` runs concurrently on several threads: items must touch disjoint
  /// state.
  template <typename F>
  void parallel_for(std::size_t n, F&& body) {
    using Fn = std::remove_reference_t<F>;
    run_fork(n, [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
             const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// Installs the scheduling observer.  Must be called before any task is
  /// submitted (workers read the callbacks outside the lock once they have
  /// work; before the first submit every worker is parked on the condition
  /// variable, so the handoff is race-free).
  void set_observer(PoolObserver obs);

 private:
  struct Fork;
  using ForkFn = void (*)(void*, std::size_t);

  void worker_loop(std::size_t wi);
  void run_fork(std::size_t n, ForkFn fn, void* ctx);
  /// An open fork with unclaimed items, or nullptr.  Caller holds `mu_`.
  Fork* open_fork_with_work() const;
  /// Spins (lock released) until a fork opens, a task arrives or the spin
  /// budget runs out.
  void spin_for_work(std::unique_lock<std::mutex>& lk);

  /// Pops the next task for worker `wi` (own queue first, else steal the
  /// oldest task of the longest other queue).  Caller holds `mu_`.
  /// `stolen` reports whether the task came off a foreign queue.
  bool pop_task(std::size_t wi, std::packaged_task<void()>& out, bool& stolen);

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  ///< task available / stopping
  std::condition_variable cv_idle_;  ///< in-flight count reached zero
  std::vector<std::deque<std::packaged_task<void()>>> queues_;
  std::vector<std::thread> workers_;
  std::size_t next_queue_ = 0;  ///< round-robin submit cursor
  std::size_t in_flight_ = 0;   ///< queued + currently running tasks
  std::size_t steals_ = 0;
  std::vector<std::uint64_t> executed_;  ///< tasks run, per worker
  PoolObserver observer_;  ///< immutable once tasks are in flight
  bool stop_ = false;
  std::vector<Fork*> forks_;  ///< open forks (parallel_for callers)
  /// Workers parked on cv_work_ / spinning for work: the idle workers a
  /// fork may ask for help.  Written under mu_ (parked_) or by the spinner
  /// itself (spinning_); read lock-free by parallel_for's fast path.
  std::atomic<std::size_t> parked_{0};
  std::atomic<std::size_t> spinning_{0};
  /// Bumped whenever a fork opens or a task is queued: what spinners watch.
  std::atomic<std::uint64_t> wake_epoch_{0};
};

}  // namespace merlin
