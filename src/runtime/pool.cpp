#include "runtime/pool.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <utility>

namespace merlin {

namespace {

// Which pool (if any) owns the current thread, and the thread's index in it.
// Written once per worker thread at startup, before any task can observe it.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_index = ThreadPool::npos;
// Whether the current thread is running a parallel_for item (of any pool):
// a fork opened from inside an item runs inline.
thread_local bool tl_in_fork = false;

// Marks the current thread as running fork items for the scope's lifetime.
struct InForkScope {
  bool outer = tl_in_fork;
  InForkScope() { tl_in_fork = true; }
  ~InForkScope() { tl_in_fork = outer; }
  InForkScope(const InForkScope&) = delete;
  InForkScope& operator=(const InForkScope&) = delete;
};

// How long a worker that has just helped a fork keeps polling for the next
// one before it parks.  One net's forks follow each other within
// microseconds (range after range of one layer call); waking a parked
// worker through the condition variable costs about as much as a small
// fork's items, so a helper that parked at once would miss most of them.
constexpr std::chrono::microseconds kHelperSpin{200};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Observer timestamps: same steady clock (and epoch) as the obs layer's
// span records, so pool events land on the same timeline.
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// One open parallel_for.  Lives on the caller's stack: the caller unlists it
// under mu_ (so no helper can join afterwards) and then waits for `helpers`
// to drop to zero before returning.
struct ThreadPool::Fork {
  ForkFn fn;
  void* ctx;
  std::size_t n;
  std::atomic<std::size_t> next{0};      ///< next unclaimed item
  std::atomic<std::size_t> helpers{0};   ///< workers inside drain()
  std::atomic<bool> failed{false};       ///< an item threw: stop claiming
  std::mutex err_mu;
  std::size_t err_index = npos;          ///< lowest throwing item so far
  std::exception_ptr err;

  Fork(ForkFn f, void* c, std::size_t count) : fn(f), ctx(c), n(count) {}

  [[nodiscard]] bool has_work() const {
    return !failed.load(std::memory_order_relaxed) &&
           next.load(std::memory_order_relaxed) < n;
  }

  // Claims and runs items until none are left.  Claims are contiguous, so
  // every item below the highest claimed one runs: the lowest throwing item
  // is always the one a serial loop would have stopped at.
  void drain() {
    const InForkScope scope;
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(ctx, i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(err_mu);
        if (i < err_index) {
          err_index = i;
          err = std::current_exception();
        }
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0)
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  queues_.resize(n_threads);
  executed_.assign(n_threads, 0);
  workers_.reserve(n_threads);
  try {
    for (std::size_t wi = 0; wi < n_threads; ++wi)
      workers_.emplace_back([this, wi] { worker_loop(wi); });
  } catch (...) {
    // std::thread creation can throw (resource_unavailable_try_again).  The
    // workers already started must be joined before the exception unwinds
    // this half-built pool, or their loops would touch freed members.
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;  // drain mode: workers exit once every queue is empty
    wake_epoch_.fetch_add(1, std::memory_order_release);  // end spins now
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) throw std::runtime_error("ThreadPool::submit: pool is shutting down");
    // A worker submitting from inside a task keeps its child local; external
    // submitters deal round-robin so the initial shard is even.
    const std::size_t wi = tl_pool == this ? tl_index : next_queue_++ % queues_.size();
    queues_[wi].push_back(std::move(pt));
    ++in_flight_;
    wake_epoch_.fetch_add(1, std::memory_order_release);
    // Notify while still holding the lock.  With the unlocked notify this
    // used to do, a worker could pick up the task and finish it, and the
    // owner could destroy the pool, all between our unlock and the notify —
    // which then touched a destroyed condition_variable.  Holding mu_ means
    // the destructor (which must take mu_ to set stop_) cannot have
    // completed while we are signalling.
    cv_work_.notify_one();
  }
  return fut;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::worker_index() const {
  return tl_pool == this ? tl_index : npos;
}

std::size_t ThreadPool::steal_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return steals_;
}

std::vector<std::uint64_t> ThreadPool::executed_counts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return executed_;
}

std::vector<std::uint64_t> ThreadPool::worker_cpu_ns() const {
  std::vector<std::uint64_t> ns(workers_.size(), 0);
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    clockid_t clock;
    timespec ts;
    if (pthread_getcpuclockid(
            const_cast<std::thread&>(workers_[wi]).native_handle(), &clock) == 0 &&
        clock_gettime(clock, &ts) == 0)
      ns[wi] = static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
               static_cast<std::uint64_t>(ts.tv_nsec);
  }
  return ns;
}

void ThreadPool::set_observer(PoolObserver obs) {
  std::lock_guard<std::mutex> lk(mu_);
  if (in_flight_ != 0)
    throw std::logic_error(
        "ThreadPool::set_observer: tasks already in flight");
  observer_ = std::move(obs);
}

bool ThreadPool::pop_task(std::size_t wi, std::packaged_task<void()>& out,
                          bool& stolen) {
  stolen = false;
  if (!queues_[wi].empty()) {  // own work: newest first (LIFO)
    out = std::move(queues_[wi].back());
    queues_[wi].pop_back();
    ++executed_[wi];
    return true;
  }
  // Steal the oldest task of the longest other queue.
  std::size_t victim = npos, best = 0;
  for (std::size_t qi = 0; qi < queues_.size(); ++qi)
    if (qi != wi && queues_[qi].size() > best) {
      best = queues_[qi].size();
      victim = qi;
    }
  if (victim == npos) return false;
  out = std::move(queues_[victim].front());
  queues_[victim].pop_front();
  ++steals_;
  ++executed_[wi];
  stolen = true;
  return true;
}

void ThreadPool::run_fork(std::size_t n, ForkFn fn, void* ctx) {
  // Plain loop: nothing to split, nobody to split it with, or already inside
  // an item.  Otherwise the fork is listed even when no worker is idle now:
  // a wide fork outlives the tasks around it, and a worker that goes idle
  // while it runs joins it.
  if (n < 2 || workers_.size() < 2 || tl_in_fork) {
    const InForkScope scope;  // an item's own forks stay inline here too
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }
  Fork fork(fn, ctx, n);
  {
    std::lock_guard<std::mutex> lk(mu_);
    forks_.push_back(&fork);
    wake_epoch_.fetch_add(1, std::memory_order_release);
    // Spinners see the epoch move; wake parked workers for the rest, at
    // most one helper per item beyond the caller's own.
    const std::size_t spin = spinning_.load(std::memory_order_relaxed);
    std::size_t wake = std::min(parked_.load(std::memory_order_relaxed),
                                n - 1 > spin ? n - 1 - spin : 0);
    for (; wake > 0; --wake) cv_work_.notify_one();
  }
  fork.drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    forks_.erase(std::find(forks_.begin(), forks_.end(), &fork));
  }
  // Unlisted: no helper can join any more.  Wait out the ones inside; their
  // release decrement publishes every item they ran.
  for (unsigned spins = 1; fork.helpers.load(std::memory_order_acquire) != 0;
       ++spins) {
    if (spins % 64 == 0)
      std::this_thread::yield();
    else
      cpu_relax();
  }
  if (fork.err) std::rethrow_exception(fork.err);
}

ThreadPool::Fork* ThreadPool::open_fork_with_work() const {
  for (Fork* f : forks_)
    if (f->has_work()) return f;
  return nullptr;
}

void ThreadPool::spin_for_work(std::unique_lock<std::mutex>& lk) {
  // The epoch is read under mu_, in the same critical section that found no
  // task and no fork, so anything that arrives later moves it.
  const std::uint64_t epoch = wake_epoch_.load(std::memory_order_acquire);
  spinning_.fetch_add(1, std::memory_order_relaxed);
  lk.unlock();
  const auto deadline = std::chrono::steady_clock::now() + kHelperSpin;
  for (unsigned spins = 1;
       wake_epoch_.load(std::memory_order_acquire) == epoch; ++spins) {
    cpu_relax();
    if (spins % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
  }
  spinning_.fetch_sub(1, std::memory_order_relaxed);
  lk.lock();
}

void ThreadPool::worker_loop(std::size_t wi) {
  tl_pool = this;
  tl_index = wi;
  std::unique_lock<std::mutex> lk(mu_);
  std::uint64_t idle_begin = 0;
  bool helped = false;  // just helped a fork: spin before parking
  // Observer callbacks fire before the work they annotate: every write they
  // make happens-before that task's future completes (see PoolObserver) —
  // for a fork, before the helper's release of Fork::helpers, which the
  // forking task acquires before it completes.
  const auto end_idle = [&] {
    if (idle_begin != 0 && observer_.on_idle)
      observer_.on_idle(wi, idle_begin, mono_ns());
    idle_begin = 0;
  };
  for (;;) {
    std::packaged_task<void()> task;
    bool stolen = false;
    if (pop_task(wi, task, stolen)) {
      lk.unlock();
      end_idle();
      if (stolen && observer_.on_steal) observer_.on_steal(wi, mono_ns());
      task();  // packaged_task captures exceptions into the future
      lk.lock();
      if (--in_flight_ == 0) cv_idle_.notify_all();
      continue;
    }
    // Tasks first: helping a fork never delays a queued net.
    if (Fork* fork = open_fork_with_work()) {
      fork->helpers.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      end_idle();
      fork->drain();
      fork->helpers.fetch_sub(1, std::memory_order_release);
      lk.lock();
      helped = true;
      continue;
    }
    if (stop_) return;  // drained and shutting down
    if (observer_.on_idle && idle_begin == 0) idle_begin = mono_ns();
    if (helped) {
      helped = false;
      spin_for_work(lk);
      continue;
    }
    parked_.fetch_add(1, std::memory_order_relaxed);
    cv_work_.wait(lk);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace merlin
