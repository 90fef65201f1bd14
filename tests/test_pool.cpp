// Unit tests of the work-stealing thread pool: completion, exception
// propagation from workers, stealing under imbalanced loads, clean
// shutdown with work still queued, and the parallel_for fork-join (every
// item once, no deadlock on a busy pool, nested forks inline, serial
// exception semantics, helpers invisible to the task accounting).

#include <gtest/gtest.h>

#include <ctime>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "obs/sink.h"
#include "runtime/pool.h"

namespace merlin {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i)
    futs.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitIdleDrains) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("boom from worker"); });
  EXPECT_NO_THROW(ok.get());
  try {
    bad.get();
    FAIL() << "expected the worker exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from worker");
  }
  // The pool survives a throwing task and keeps executing.
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); }).get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, StealsUnderImbalancedLoad) {
  // Two workers, each pinned by one blocker task; 40 small tasks are dealt
  // round-robin (20 per queue) behind them.  Releasing only blocker A leaves
  // one worker free: it must drain its own 20 and steal the other queue's 20
  // — the blocked worker cannot run them.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release_a{false}, release_b{false};
  std::vector<std::future<void>> blockers;
  blockers.push_back(pool.submit([&started, &release_a] {
    started.fetch_add(1);
    while (!release_a.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }));
  blockers.push_back(pool.submit([&started, &release_b] {
    started.fetch_add(1);
    while (!release_b.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }));
  // Both workers must be pinned before the small tasks are dealt, or a
  // worker could drain its own share early without ever stealing.
  while (started.load() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::atomic<int> small_ran{0};
  std::vector<std::future<void>> smalls;
  for (int i = 0; i < 40; ++i)
    smalls.push_back(pool.submit([&small_ran] { small_ran.fetch_add(1); }));

  release_a.store(true);
  for (auto& f : smalls) f.get();  // all smalls ran with B still blocked
  EXPECT_EQ(small_ran.load(), 40);
  EXPECT_GE(pool.steal_count(), 20u);  // the foreign queue's share

  release_b.store(true);
  for (auto& f : blockers) f.get();
}

TEST(ThreadPool, WorkerIndexIsStableAndScoped) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_index(), ThreadPool::npos);  // caller is not a worker
  std::mutex mu;
  std::set<std::size_t> seen;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 60; ++i)
    futs.push_back(pool.submit([&] {
      const std::size_t wi = pool.worker_index();
      std::lock_guard<std::mutex> lk(mu);
      seen.insert(wi);
    }));
  for (auto& f : futs) f.get();
  for (std::size_t wi : seen) EXPECT_LT(wi, pool.size());
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i)
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    // Destroy immediately: all 100 queued tasks must still run.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, RapidDestroyAfterConcurrentSubmitsIsClean) {
  // Hammers the window the submit() fix closed: two threads submit
  // concurrently, and the pool is destroyed the moment the work is handed
  // over.  With the old notify-after-unlock, one submitter's delayed
  // notify_one could land on the destroyed condition_variable after a peer's
  // notify already let the workers drain everything (TSan catches the
  // use-after-free; without TSan this still exercises the interleaving).
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    auto pool = std::make_unique<ThreadPool>(2);
    std::thread submitter([&] {
      for (int i = 0; i < 8; ++i) pool->submit([&ran] { ran.fetch_add(1); });
    });
    for (int i = 0; i < 8; ++i) pool->submit([&ran] { ran.fetch_add(1); });
    submitter.join();
    pool.reset();  // destructor drains everything that was accepted
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(ThreadPool, SubmitFromWorkerRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] {
        // A task submitted from inside a worker lands on that worker's own
        // queue and still completes.
        pool.submit([&ran] { ran.fetch_add(1); });
      })
      .get();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

// Spins until `flag` holds or ~10 s pass; false on timeout, so a broken
// pool fails the test instead of hanging it.
template <typename Pred>
bool wait_for(Pred&& pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, ParallelForRunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kItems = 1000;
  // From outside the pool (every worker idle and asked to help) and from
  // inside a task (the caller is a worker itself).
  for (const bool from_task : {false, true}) {
    SCOPED_TRACE(from_task ? "from a task" : "from outside");
    std::vector<std::atomic<int>> runs(kItems);
    const auto fork = [&] {
      pool.parallel_for(kItems, [&](std::size_t i) { runs[i].fetch_add(1); });
    };
    if (from_task)
      pool.submit(fork).get();
    else
      fork();
    for (std::size_t i = 0; i < kItems; ++i) ASSERT_EQ(runs[i].load(), 1) << i;
  }
  // Degenerate sizes.
  int ran = 0;
  pool.parallel_for(0, [&](std::size_t) { ++ran; });
  pool.parallel_for(1, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, ParallelForIdleWorkersHelp) {
  // Every worker is parked, so the fork asks them in: slow items end up on
  // more than one thread.
  ThreadPool pool(4);
  ASSERT_TRUE(wait_for([&] { return pool.idle_workers() == 4; }));
  std::mutex mu;
  std::set<std::thread::id> threads;
  pool.parallel_for(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lk(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GT(threads.size(), 1u);
}

TEST(ThreadPool, ParallelForCallerFinishesAloneWhenEveryWorkerIsBusy) {
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::vector<std::future<void>> blockers;
  for (int w = 0; w < 2; ++w)
    blockers.push_back(pool.submit([&] {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }));
  ASSERT_TRUE(wait_for([&] { return started.load() == 2; }));
  // No worker is idle: the caller runs every item itself, and returns.
  std::vector<std::thread::id> ran_on(100);
  pool.parallel_for(ran_on.size(),
                    [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
  release.store(true);
  for (auto& f : blockers) f.get();
}

TEST(ThreadPool, ParallelForEveryWorkerInsideItsOwnForkCannotDeadlock) {
  // Every worker forks at once, and item 0 of each fork waits until all
  // three forks are open: no fork can rely on another worker's help, so
  // each caller must finish its own items.
  ThreadPool pool(3);
  std::atomic<bool> go{false};
  std::atomic<int> inside{0};
  std::atomic<int> items{0};
  std::atomic<bool> timed_out{false};
  std::vector<std::future<void>> tasks;
  for (int w = 0; w < 3; ++w)
    tasks.push_back(pool.submit([&] {
      while (!go.load()) std::this_thread::yield();
      pool.parallel_for(50, [&](std::size_t i) {
        if (i == 0) {
          inside.fetch_add(1);
          if (!wait_for([&] { return inside.load() == 3; })) timed_out.store(true);
        }
        items.fetch_add(1);
      });
    }));
  go.store(true);
  for (auto& f : tasks) f.get();
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(items.load(), 150);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8, kInner = 32;
  std::vector<std::thread::id> outer_on(kOuter);
  std::vector<std::thread::id> inner_on(kOuter * kInner);
  pool.submit([&] {
        pool.parallel_for(kOuter, [&](std::size_t o) {
          outer_on[o] = std::this_thread::get_id();
          pool.parallel_for(kInner, [&](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            inner_on[o * kInner + i] = std::this_thread::get_id();
          });
        });
      })
      .get();
  for (std::size_t o = 0; o < kOuter; ++o)
    for (std::size_t i = 0; i < kInner; ++i)
      EXPECT_EQ(inner_on[o * kInner + i], outer_on[o]) << o << "/" << i;
}

TEST(ThreadPool, ParallelForRethrowsTheLowestIndexAfterDraining) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> running{0};
    try {
      pool.parallel_for(200, [&](std::size_t i) {
        running.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        running.fetch_sub(1);
        if (i == 37 || i == 38 || i == 150)
          throw std::runtime_error("item " + std::to_string(i));
      });
      FAIL() << "expected an item's exception";
    } catch (const std::runtime_error& e) {
      // The exception a serial loop raises, and no item still running.
      EXPECT_STREQ(e.what(), "item 37");
      EXPECT_EQ(running.load(), 0);
    }
  }
  // The pool keeps working after a failed fork.
  std::atomic<int> ran{0};
  pool.parallel_for(10, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ForkHelpersLeaveTheTaskAccountingAlone) {
  // A single-net Flow III batch forks its per-candidate loops onto the idle
  // workers; helping is not a task, so pool_tasks and the per-worker task
  // counts still add up to the number of nets.
  const BufferLibrary lib = make_standard_library();
  CircuitSpec cs;
  cs.n_gates = 16;
  cs.seed = 7;
  const Circuit ckt = make_random_circuit(cs, lib);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ObsSink sink;
    BatchOptions opts;
    opts.threads = threads;
    opts.obs = &sink;
    const BatchResult r = BatchRunner(lib, opts).run(ckt);
    const std::uint64_t nets = r.nets.size();
    ASSERT_GT(sink.counters.get(Counter::kLayerCalls), 0u);  // forks ran
    EXPECT_EQ(sink.counters.get(Counter::kPoolTasks), nets) << threads;
    EXPECT_EQ(std::accumulate(r.stats.worker_tasks.begin(),
                              r.stats.worker_tasks.end(), std::uint64_t{0}),
              nets)
        << threads;
    EXPECT_EQ(r.stats.worker_cpu_ms.size(), threads);
  }
}

TEST(ThreadPool, WorkerCpuTimeCountsTheTasksItRan) {
  ThreadPool pool(2);
  const std::vector<std::uint64_t> before = pool.worker_cpu_ns();
  ASSERT_EQ(before.size(), 2u);
  // One task burns 20 ms of its own thread's CPU time.
  pool.submit([] {
    timespec start, now;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
    do {
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    } while ((now.tv_sec - start.tv_sec) * 1'000'000'000L +
                 (now.tv_nsec - start.tv_nsec) <
             20'000'000L);
  }).get();
  const std::vector<std::uint64_t> after = pool.worker_cpu_ns();
  std::uint64_t delta = 0;
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_GE(after[w], before[w]);
    delta += after[w] - before[w];
  }
  EXPECT_GE(delta, 20'000'000u);
}

}  // namespace
}  // namespace merlin
