#include "flow/batch.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cache/shard.h"
#include "obs/json.h"
#include "ptree/range_dp.h"
#include "runtime/pool.h"
#include "tree/evaluate.h"

namespace merlin {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// How one failed construction attempt is classified.
NetStatus classify_failure(const std::exception& e) {
  if (dynamic_cast<const DeadlineExceeded*>(&e)) return NetStatus::kDeadline;
  if (dynamic_cast<const BudgetExceeded*>(&e)) return NetStatus::kOverBudget;
  return NetStatus::kFailed;
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchContext — warm pool + per-worker scratch, reused across runs.

struct BatchContext::Impl {
  // Sessions and arenas before the pool, so the pool's draining destructor
  // (which may still run tasks referencing them) fires first during
  // teardown.  run_jobs builds one for the run when no context is given.
  SubproblemCache* cache = nullptr;
  std::vector<CacheSession> sessions;
  std::vector<SolutionArena> arenas;
  ThreadPool pool;
  std::atomic<bool> in_use{false};
  std::atomic<std::uint64_t> runs{0};

  Impl(std::size_t threads, SubproblemCache* shared)
      : cache(shared != nullptr && shared->enabled() && !cache_env_off()
                  ? shared
                  : nullptr),
        arenas(threads),
        pool(threads) {
    sessions.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) sessions.emplace_back(cache);
  }
};

namespace {

std::size_t resolve_threads(std::size_t requested) {
  return requested > 0
             ? requested
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Exclusive-run RAII for a shared BatchContext: acquired for the duration
/// of run_jobs, released on any exit path (including exceptions).
struct ContextLease {
  explicit ContextLease(BatchContext::Impl* impl) : impl_(impl) {
    if (impl_ != nullptr && impl_->in_use.exchange(true))
      throw std::logic_error(
          "BatchContext: concurrent runs on one context; serialize callers");
  }
  ~ContextLease() {
    if (impl_ != nullptr) {
      impl_->runs.fetch_add(1, std::memory_order_relaxed);
      impl_->in_use.store(false);
    }
  }
  ContextLease(const ContextLease&) = delete;
  ContextLease& operator=(const ContextLease&) = delete;
  BatchContext::Impl* impl_;
};

/// The pool's parallel phase on the shared cache (lookups only), closed on
/// any exit path — the bracket SubproblemCache's apply() asserts against.
struct CacheReadPhase {
  explicit CacheReadPhase(SubproblemCache* cache) : cache_(cache) {
    if (cache_ != nullptr) cache_->open_read_phase();
  }
  ~CacheReadPhase() { close(); }
  void close() noexcept {
    if (cache_ != nullptr) cache_->close_read_phase();
    cache_ = nullptr;
  }
  CacheReadPhase(const CacheReadPhase&) = delete;
  CacheReadPhase& operator=(const CacheReadPhase&) = delete;
  SubproblemCache* cache_;
};

}  // namespace

BatchContext::BatchContext(std::size_t threads, SubproblemCache* cache)
    : impl_(std::make_unique<Impl>(resolve_threads(threads), cache)) {}

BatchContext::~BatchContext() = default;

std::size_t BatchContext::threads() const { return impl_->pool.size(); }

SubproblemCache* BatchContext::cache() const { return impl_->cache; }

std::uint64_t BatchContext::runs() const {
  return impl_->runs.load(std::memory_order_relaxed);
}

namespace {

/// First word of every net-memo key: no Gamma group key starts its stream
/// with it (theirs start from the library size), so the two key families
/// never meet.  "NETMEMO1" in ASCII.
constexpr std::uint64_t kNetMemoTag = 0x4E45544D454D4F31ULL;

// Adding a field to one of these structs changes its size and stops the
// build here until net_memo_key hashes the field (or the comment there says
// why it cannot reach a Flow III result).
static_assert(sizeof(void*) != 8 || sizeof(FlowConfig) == 352);
static_assert(sizeof(void*) != 8 || sizeof(MerlinConfig) == 256);
static_assert(sizeof(void*) != 8 || sizeof(BubbleConfig) == 224);
static_assert(sizeof(PruneConfig) == 32 + sizeof(void*));
static_assert(sizeof(CandidateOptions) == 24);
static_assert(sizeof(Objective) == 24);
static_assert(sizeof(GuardConfig) == 24);
static_assert(sizeof(Sink) == 24);
static_assert(sizeof(DelayParams) == 32);
static_assert(sizeof(WireModel) == 16);

}  // namespace

CacheKey net_memo_key(const Net& net, const BufferLibrary& lib,
                      const FlowConfig& cfg, const GuardConfig& guard) {
  // Not hashed, because no Flow III result depends on them: engine_prune
  // (PTREE, LTTREE and van Ginneken only), merlin.bubble.candidates
  // (run_flow3 overwrites it with cfg.candidates, whose realized set is
  // hashed), the arena/obs/guard/pool/session pointers, the driver's name
  // and output-slew model, and the guard's wall-clock deadline.
  SigHasher h;
  h.mix(kNetMemoTag);
  const MerlinConfig& m = cfg.merlin;
  mix_bubble_context(h, lib, net.wire, route_candidates(net, cfg.candidates).pts,
                     m.bubble);
  h.mix(static_cast<std::uint64_t>(m.bubble.objective.mode));
  h.mix_double(m.bubble.objective.area_limit);
  h.mix_double(m.bubble.objective.req_target);
  h.mix(m.max_iterations);
  h.mix_bool(m.reuse_subproblems);
  h.mix_i32(net.source.x);
  h.mix_i32(net.source.y);
  const DelayParams& d = net.driver.delay;
  for (const double p : {d.p0, d.p1, d.p2, d.p3}) h.mix_double(p);
  h.mix(net.sinks.size());
  for (const Sink& s : net.sinks) {
    h.mix_i32(s.pos.x);
    h.mix_i32(s.pos.y);
    h.mix_double(s.load);
    h.mix_double(s.req_time);
  }
  h.mix(guard.step_budget);
  h.mix(guard.arena_node_cap);
  return h.digest();
}

BatchRunner::BatchRunner(const BufferLibrary& lib, BatchOptions opts)
    : lib_(lib), opts_(std::move(opts)) {}

BatchResult BatchRunner::run(const Circuit& ckt) const {
  const std::vector<CircuitNet> jobs =
      extract_circuit_nets(ckt, lib_, opts_.req_compression);
  return run_jobs(jobs, &ckt);
}

BatchResult BatchRunner::run_nets(const std::vector<Net>& nets) const {
  std::vector<CircuitNet> jobs;
  jobs.reserve(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (nets[i].fanout() == 0)
      throw std::invalid_argument("BatchRunner: net " + std::to_string(i) +
                                  " has no sinks");
    jobs.push_back(CircuitNet{static_cast<std::uint32_t>(i), nets[i]});
  }
  return run_jobs(jobs, nullptr);
}

BatchResult BatchRunner::run_jobs(const std::vector<CircuitNet>& jobs,
                                  const Circuit* ckt) const {
  const auto t0 = Clock::now();

  BatchResult out;
  out.nets.resize(jobs.size());
  // realized[g] = per-consumer path delays of gate g's net (STA input).
  std::vector<std::vector<double>> realized;
  if (ckt) realized.resize(ckt->gates.size());

  {
    // Warm-context runs borrow the context's pool and per-worker scratch;
    // context-free runs build their own below.  The lease makes concurrent
    // runs on one context a hard error instead of a data race.
    BatchContext::Impl* ctx =
        opts_.context != nullptr ? opts_.context->impl_.get() : nullptr;
    ContextLease lease(ctx);
    const std::size_t n_threads =
        ctx != nullptr ? ctx->pool.size() : resolve_threads(opts_.threads);
    std::vector<FlushBatch> flushes(jobs.size());
    std::vector<ObsSink> sinks;
    if (opts_.obs != nullptr) {
      sinks.resize(n_threads);
      // Worker sinks hold every trace; the deterministic cap is applied
      // once, after the post-drain sort by net id.  Spans follow the same
      // plan: worker rings get the aggregate's full capacity (tracing is
      // armed iff the aggregate sink armed it), and the deterministic
      // (net id, seq) sort + cap happens in the reduce below.
      for (std::size_t w = 0; w < sinks.size(); ++w) {
        sinks[w].set_trace_capacity(jobs.size());
        sinks[w].set_worker(static_cast<std::uint32_t>(w));
        sinks[w].set_span_capacity(opts_.obs->span_capacity());
      }
    }
    // Per-worker scratch and the pool: a warm context's, or for a
    // context-free run the same state built for this run only.  Each
    // worker owns one CacheSession, one SolutionArena and (when the caller
    // wants observability) one ObsSink: no provenance allocation, and no
    // stats recording, is ever shared across threads.  The shared
    // SubproblemCache (if any) is only ever *read* during the parallel
    // phase (CacheReadPhase below brackets it) — sessions stage writes
    // privately and the publish happens serially after it.  `local` is
    // declared after `flushes` and `sinks`, and Impl declares its pool
    // after its sessions and arenas, so if an exception unwinds this scope
    // the pool's draining destructor (which may still run tasks
    // referencing all of them) fires first.
    std::optional<BatchContext::Impl> local;
    BatchContext::Impl& state =
        ctx != nullptr ? *ctx : local.emplace(n_threads, opts_.cache);
    SubproblemCache* const shared_cache = state.cache;
    std::vector<CacheSession>& sessions = state.sessions;
    std::vector<SolutionArena>& arenas = state.arenas;
    ThreadPool& pool = state.pool;
    const bool tracing = !sinks.empty() && opts_.obs->spans_armed();
    if (tracing && local.has_value()) {
      // Bridge the pool's scheduling events onto the worker timelines.
      // Callbacks run on worker w's own thread and only touch sinks[w], so
      // they race with nothing; `sinks` outlives the pool by construction
      // (declared before it, destroyed after).  A warm context's pool has
      // already run tasks, so installing an observer there is illegal
      // (ThreadPool::set_observer contract) — context runs trade the pool
      // idle/steal spans away; net-attributed spans are unaffected.
      PoolObserver po;
      po.on_idle = [&sinks](std::size_t w, std::uint64_t b, std::uint64_t e) {
        SpanRecord r;
        r.begin_ns = b;
        r.end_ns = e;
        r.worker = static_cast<std::uint32_t>(w);
        r.name = SpanName::kPoolIdle;
        sinks[w].record_span(r);
      };
      po.on_steal = [&sinks](std::size_t w, std::uint64_t ts) {
        SpanRecord r;
        r.begin_ns = ts;
        r.end_ns = ts;  // instant marker
        r.worker = static_cast<std::uint32_t>(w);
        r.name = SpanName::kPoolSteal;
        sinks[w].record_span(r);
      };
      pool.set_observer(std::move(po));
    }

    // Fault isolation state.  Workers catch per-net failures into their
    // slot; `errors[i]` keeps the original exception (type intact) so the
    // abort policy can rethrow the lowest-net-id failure after the join.
    const FaultInjector* inject =
        opts_.inject ? opts_.inject : FaultInjector::from_env();
    std::vector<std::exception_ptr> errors(jobs.size());
    std::atomic<std::size_t> completed{0};

    const std::vector<std::uint64_t> cpu_before = pool.worker_cpu_ns();
    std::vector<std::future<void>> done;
    done.reserve(jobs.size());
    CacheReadPhase read_phase(shared_cache);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      done.push_back(pool.submit([&, i] {
        const CircuitNet& job = jobs[i];
        BatchNetResult& slot = out.nets[i];  // exclusive to this task
        ObsSink* sink = sinks.empty() ? nullptr : &sinks[pool.worker_index()];
        SolutionArena& arena = arenas[pool.worker_index()];
        if (sink) sink->begin_net(job.driver_gate);
        // The net's root span: closes when this task returns, after every
        // attempt of the ladder, so it is the last (highest-seq) span of
        // the net.
        TraceSpan net_span(sink, SpanName::kBatchNet, job.net.fanout());
        const auto tj = Clock::now();
        slot.net_id = job.driver_gate;
        slot.trivial = job.trivial();

        // A memo hit rebuilds the net's FlowResult from the stored chosen
        // solution, materialized into the worker arena: the tree, its
        // evaluation and the loop count, bit-identical to the run that
        // published it.  The session's touch log records the key, so the
        // publish refreshes its LRU slot.
        const auto memo_hit = [&](CacheSession& ses, const CacheKey& key) {
          const CacheEntry* hit = ses.find(key);
          if (hit == nullptr || hit->curves.size() != 1 ||
              hit->curves[0].size() != 1)
            return false;
          const auto th = Clock::now();
          const std::uint32_t loops = hit->merlin_loops;
          arena.reset();
          const std::vector<SolutionCurve> mat = materialize_entry(*hit, arena);
          FlowResult& r = slot.result;
          r = FlowResult{};
          r.chosen = mat[0][0];
          r.tree = build_routing_tree(job.net, arena, r.chosen.node);
          r.eval = evaluate_tree(job.net, r.tree, lib_);
          r.merlin_loops = loops;
          r.cache_hits = ses.hits();
          r.cache_misses = ses.misses();
          r.runtime_ms = ms_since(th);
          obs_add(sink, Counter::kNetMemoHits);
          obs_add(sink, Counter::kBuffersInserted, r.eval.buffer_count);
          return true;
        };

        const auto run_configured = [&](FlowConfig& cfg, FlowKind flow) {
          switch (flow) {
            case FlowKind::kFlow1: slot.result = run_flow1(job.net, lib_, cfg); break;
            case FlowKind::kFlow2: slot.result = run_flow2(job.net, lib_, cfg); break;
            case FlowKind::kFlow3: {
              // Worker-local cache session: reuses allocation from net to
              // net, owned by exactly one thread, and (when a shared cache
              // is attached) serves published sub-problems from earlier
              // batches while staging this net's writes privately.
              CacheSession& ses = sessions[pool.worker_index()];
              cfg.merlin.cache_session = &ses;
              // The per-net memo (net_memo_key): first attempts only, with
              // a shared store attached and no injector armed, so ladder
              // rungs and chaos runs always exercise the DP.
              const bool memo = slot.attempts == 1 && inject == nullptr &&
                                ses.shared() != nullptr;
              CacheKey key{};
              if (memo) {
                key = net_memo_key(job.net, lib_, cfg, opts_.guard);
                if (memo_hit(ses, key)) break;
              }
              slot.result = run_flow3(job.net, lib_, cfg);
              if (memo) {
                // Staged like the net's group entries; only a kOk net's
                // stagings reach the serial publish.
                SolutionCurve chosen;
                chosen.push(slot.result.chosen);
                ses.insert(key, std::span<const SolutionCurve>(&chosen, 1), arena,
                           static_cast<std::uint32_t>(slot.result.merlin_loops));
              }
              break;
            }
          }
        };

        // One guarded construction attempt of `flow` under `cfg`.  Fresh
        // NetGuard per attempt (budgets reset across ladder rungs);
        // arena-allocation faults are armed on the worker arena for exactly
        // the attempt's duration.  Returns true on success; on failure
        // classifies the attempt into the slot (first failure wins the
        // status/error) and keeps the original exception for the abort
        // policy.
        const bool guarded = opts_.guard.enabled() || inject != nullptr;
        const auto attempt = [&](FlowConfig cfg, FlowKind flow) {
          NetGuard guard(job.driver_gate, opts_.guard, inject);
          NetGuard* g = guarded ? &guard : nullptr;
          if (inject != nullptr && inject->plan().kind == FaultKind::kArenaAlloc &&
              inject->should_fire(job.driver_gate, FaultSite::kArenaAlloc))
            arena.set_alloc_fault(inject->plan().arena_fail_after);
          // Worker-local scratch arena: every flow's provenance goes into
          // it (reset per net), reusing slab capacity from net to net.
          cfg.scratch_arena = &arena;
          cfg.obs = sink;
          cfg.guard = g;
          // Flow III's per-candidate loops borrow whichever workers other
          // nets left idle (ThreadPool::parallel_for); results do not
          // depend on how many do.
          cfg.pool = &pool;
          bool ok = false;
          try {
            guard_point(g, FaultSite::kBatchNet);
            run_configured(cfg, flow);
            ok = true;
          } catch (const std::exception& e) {
            const NetStatus fail = classify_failure(e);
            if (fail == NetStatus::kOverBudget) {
              ++slot.budget_trips;
              obs_add(sink, Counter::kBudgetTrips);
            } else if (fail == NetStatus::kDeadline) {
              obs_add(sink, Counter::kDeadlineTrips);
            }
            if (slot.error.empty()) {
              slot.status = fail;
              slot.error = e.what();
              errors[i] = std::current_exception();
            }
          }
          // FaultInjected throws were already tallied by the guard's
          // fault_point (flushed below); the armed-arena failure never
          // passes through a fault site, so the arena reports it.
          if (arena.clear_alloc_fault()) obs_add(sink, Counter::kFaultsInjected);
          if (g != nullptr) {
            obs_add(sink, Counter::kGuardSteps, guard.steps());
            obs_gauge(sink, Gauge::kGuardPeakNetSteps, guard.steps());
            // kSlow firings charge the guard without throwing; count them.
            obs_add(sink, Counter::kFaultsInjected, guard.injected_fired());
          }
          return ok;
        };

        // The [Gi90]-style guaranteed-feasible terminal rung: an unbuffered
        // star needs no DP, no arena and no guard, so it cannot fail — the
        // batch always ends with a legal tree for every net.
        const auto star_fallback = [&] {
          slot.result = FlowResult{};
          slot.result.tree = star_net_tree(job.net);
          slot.result.eval = evaluate_tree(job.net, slot.result.tree, lib_);
        };

        if (job.trivial()) {
          // Trivial two-pin nets bypass the optimizer, the guard and the
          // injector entirely: there is nothing to bound or degrade.
          slot.result.tree = trivial_net_tree(job.net);
          slot.result.eval = evaluate_tree(job.net, slot.result.tree, lib_);
        } else if (const FlowConfig base =
                       opts_.scaled_config ? scaled_flow_config(job.net.fanout())
                                           : opts_.config;
                   !attempt(base, opts_.flow)) {
          switch (opts_.fail_policy) {
            case FailPolicy::kAbort:
              // No fallback; the original exception propagates after every
              // future is joined (see below).  Every other net still runs,
              // so the set of failures — and hence the exception chosen —
              // is deterministic.
              break;
            case FailPolicy::kSkip:
              // Keep the failure classification; the star stand-in keeps
              // the circuit STA well-defined over every net.
              star_fallback();
              break;
            case FailPolicy::kDegrade: {
              // Rung 1: same flow, strictly cheaper configuration.
              // Rung 2: tightened Flow I (skipped when the configured flow
              //         already is Flow I).
              // Rung 3: the star tree (cannot fail).
              const FlowConfig tight = tightened_flow_config(base);
              ++slot.attempts;
              bool rescued = attempt(tight, opts_.flow);
              if (!rescued && opts_.flow != FlowKind::kFlow1) {
                ++slot.attempts;
                rescued = attempt(tight, FlowKind::kFlow1);
              }
              if (!rescued) {
                ++slot.attempts;
                star_fallback();
              }
              slot.status = NetStatus::kDegraded;
              errors[i] = nullptr;  // rescued: nothing to rethrow
              break;
            }
          }
        }

        if (shared_cache != nullptr) {
          CacheSession& ses = sessions[pool.worker_index()];
          if (slot.status == NetStatus::kOk) {
            // Capture the net's staged cache writes into its own slot; the
            // publish happens serially, in ascending net id, after the pool
            // drains.
            flushes[i] = ses.take_flush();
          } else {
            // Degraded/failed nets may hold partial stagings from an
            // interrupted attempt (where a deadline fired is not
            // deterministic) — discard rather than publish.
            ses.clear();
          }
        }

        const bool has_tree =
            slot.status == NetStatus::kOk || slot.status == NetStatus::kDegraded ||
            opts_.fail_policy != FailPolicy::kAbort;
        if (ckt && has_tree)
          realized[job.driver_gate] =
              sink_path_delays(job.net, slot.result.tree, lib_);
        slot.wall_ms = ms_since(tj);
        if (sink) {
          sink->add(Counter::kNetsProcessed);
          if (slot.trivial) sink->add(Counter::kTrivialNets);
          TraceRecord t;
          t.net_id = job.driver_gate;
          t.sinks = job.net.fanout();
          t.wall_us = static_cast<std::uint64_t>(slot.wall_ms * 1000.0);
          t.peak_curve_width = sink->net_peak_curve_width();
          t.merlin_loops = slot.result.merlin_loops;
          t.buffers = slot.result.eval.buffer_count;
          t.status = slot.status;
          sink->record_trace(t);
        }
        if (opts_.progress)
          opts_.progress(
              completed.fetch_add(1, std::memory_order_relaxed) + 1,
              jobs.size());
      }));
    }

    // Join EVERY future before any error can propagate: the old first-throw
    // rethrow loop abandoned the remaining futures, letting workers outlive
    // the batch and race its destruction.  Worker lambdas catch per-net
    // std::exceptions themselves, so only non-std exceptions surface here.
    std::exception_ptr first_unexpected;
    for (std::future<void>& f : done) {
      try {
        f.get();
      } catch (...) {
        if (!first_unexpected) first_unexpected = std::current_exception();
      }
    }
    read_phase.close();  // every task joined: the serial publish may follow
    if (first_unexpected) std::rethrow_exception(first_unexpected);

    // Abort policy: every net ran, every future joined — now rethrow the
    // recorded failure with the lowest net id (deterministic regardless of
    // scheduling; 1-thread and N-thread runs abort on the same net).
    if (opts_.fail_policy == FailPolicy::kAbort) {
      const std::exception_ptr* chosen = nullptr;
      std::uint32_t chosen_id = 0;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!errors[i]) continue;
        if (chosen == nullptr || jobs[i].driver_gate < chosen_id) {
          chosen = &errors[i];
          chosen_id = jobs[i].driver_gate;
        }
      }
      if (chosen != nullptr) std::rethrow_exception(*chosen);
    }

    out.stats.threads_used = pool.size();
    out.stats.steals = pool.steal_count();
    out.stats.worker_tasks = pool.executed_counts();
    const std::vector<std::uint64_t> cpu_after = pool.worker_cpu_ns();
    for (std::size_t w = 0; w < cpu_after.size(); ++w)
      out.stats.worker_cpu_ms.push_back(
          static_cast<double>(cpu_after[w] - std::min(cpu_before[w], cpu_after[w])) /
          1e6);

    // Publish staged cache writes serially in ascending net id — the same
    // deterministic-merge pattern as the stats reduction below, so the
    // shared store's end state (contents, LRU recency, eviction victims)
    // is a pure function of the workload, identical at any thread count.
    if (shared_cache != nullptr) {
      std::vector<std::size_t> flush_order(jobs.size());
      for (std::size_t i = 0; i < flush_order.size(); ++i) flush_order[i] = i;
      std::sort(flush_order.begin(), flush_order.end(),
                [&](std::size_t a, std::size_t b) {
                  return jobs[a].driver_gate < jobs[b].driver_gate;
                });
      CacheApplyOutcome total;
      for (const std::size_t i : flush_order) {
        const CacheApplyOutcome oc = shared_cache->apply(std::move(flushes[i]));
        total.staged += oc.staged;
        total.inserted += oc.inserted;
        total.duplicates += oc.duplicates;
        total.evicted += oc.evicted;
        total.rejected += oc.rejected;
      }
      obs_add(opts_.obs, Counter::kCacheEntriesStaged, total.staged);
      obs_add(opts_.obs, Counter::kCacheEntriesFlushed, total.inserted);
      obs_add(opts_.obs, Counter::kCacheEntriesEvicted, total.evicted);
      obs_gauge(opts_.obs, Gauge::kCacheStoreEntries,
                shared_cache->entry_count());
      obs_gauge(opts_.obs, Gauge::kCacheStoreNodes, shared_cache->node_cost());
    }

    // Fold the per-worker sinks into the caller's aggregate, serially, in
    // worker order.  Counter sums, gauge maxima and layer totals commute
    // across the worker partition, so the aggregate is identical for any
    // thread count; traces are gathered, sorted by net id, and capped at
    // the aggregate sink's capacity — also scheduling-independent.
    if (!sinks.empty()) {
      TraceSpan reduce_span(opts_.obs, SpanName::kBatchReduce, sinks.size());
      std::vector<TraceRecord> traces;
      traces.reserve(jobs.size());
      std::vector<SpanRecord> spans;
      for (ObsSink& s : sinks) {
        traces.insert(traces.end(), s.traces().begin(), s.traces().end());
        s.traces().clear();
        if (tracing) {
          const std::vector<SpanRecord> ws = s.spans().snapshot();
          spans.insert(spans.end(), ws.begin(), ws.end());
          s.clear_spans();
        }
        opts_.obs->merge_from(s);
      }
      std::sort(traces.begin(), traces.end(),
                [](const TraceRecord& a, const TraceRecord& b) {
                  return a.net_id < b.net_id;
                });
      for (const TraceRecord& t : traces) opts_.obs->record_trace(t);
      // Spans are re-sorted by (net id, per-net seq) before they reach the
      // aggregate ring, so the merged order — and, when worker rings never
      // overflowed, the post-cap content — is scheduling-independent.
      // Scheduling spans (pool idle/steal, net == kNoTraceNet) sort last.
      // Ring-only append: merge_from already summed the worker rollups.
      std::stable_sort(spans.begin(), spans.end(),
                       [](const SpanRecord& a, const SpanRecord& b) {
                         if (a.net_id != b.net_id) return a.net_id < b.net_id;
                         return a.seq < b.seq;
                       });
      for (const SpanRecord& r : spans) opts_.obs->append_span(r);
      obs_add(opts_.obs, Counter::kPoolTasks, jobs.size());
    }
  }
  out.stats.wall_ms = ms_since(t0);

  // Deterministic reduction: ascending net id, serial.
  std::sort(out.nets.begin(), out.nets.end(),
            [](const BatchNetResult& a, const BatchNetResult& b) {
              return a.net_id < b.net_id;
            });
  BatchStats& st = out.stats;
  st.det.net_count = out.nets.size();
  for (const BatchNetResult& r : out.nets) {
    if (r.trivial) ++st.det.trivial_nets;
    st.total_net_ms += r.wall_ms;
    st.max_net_ms = std::max(st.max_net_ms, r.wall_ms);
    st.det.cache_hits += r.result.cache_hits;
    st.det.cache_misses += r.result.cache_misses;
    st.det.buffers_inserted += r.result.eval.buffer_count;
    st.det.buffer_area += r.result.eval.buffer_area;
    // Per-status outcome accounting — every net lands in exactly one bucket,
    // so the five counts always sum to net_count (the chaos-harness checks
    // rely on that).  Recorded into the aggregate sink here, serially, so
    // the obs counters match the det stats exactly.
    switch (r.status) {
      case NetStatus::kOk: ++st.det.nets_ok; break;
      case NetStatus::kDegraded: ++st.det.nets_degraded; break;
      case NetStatus::kFailed: ++st.det.nets_failed; break;
      case NetStatus::kOverBudget: ++st.det.nets_over_budget; break;
      case NetStatus::kDeadline: ++st.det.nets_deadline; break;
    }
    st.det.retries += r.attempts - 1;
    st.det.budget_trips += r.budget_trips;
  }
  if (st.det.net_count > 0)
    st.mean_net_ms = st.total_net_ms / static_cast<double>(st.det.net_count);
  if (opts_.obs != nullptr) {
    obs_add(opts_.obs, Counter::kNetsOk, st.det.nets_ok);
    obs_add(opts_.obs, Counter::kNetsDegraded, st.det.nets_degraded);
    obs_add(opts_.obs, Counter::kNetsFailed, st.det.nets_failed);
    obs_add(opts_.obs, Counter::kNetsOverBudget, st.det.nets_over_budget);
    obs_add(opts_.obs, Counter::kNetsDeadline, st.det.nets_deadline);
    obs_add(opts_.obs, Counter::kNetRetries, st.det.retries);
  }

  if (ckt) {
    CircuitFlowResult& cr = out.circuit;
    cr.nets_routed = out.nets.size();
    for (const BatchNetResult& r : out.nets) {
      if (r.trivial) continue;
      cr.area += r.result.eval.buffer_area;
      cr.buffers_inserted += r.result.eval.buffer_count;
      cr.runtime_ms += r.result.runtime_ms;
    }
    cr.area += ckt->gate_area(lib_);
    cr.delay_ps = circuit_critical_delay(*ckt, lib_, realized);
  }
  return out;
}

std::string BatchStats::to_string() const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "nets=%zu (trivial=%zu) threads=%zu steals=%zu wall=%.1fms "
                "net_ms[total=%.1f mean=%.2f max=%.2f] cache[hit=%zu miss=%zu] "
                "buffers=%zu area=%.1f status[ok=%zu degraded=%zu failed=%zu "
                "over_budget=%zu deadline=%zu] retries=%zu budget_trips=%zu",
                det.net_count, det.trivial_nets, threads_used, steals, wall_ms,
                total_net_ms, mean_net_ms, max_net_ms, det.cache_hits,
                det.cache_misses, det.buffers_inserted, det.buffer_area,
                det.nets_ok, det.nets_degraded, det.nets_failed,
                det.nets_over_budget, det.nets_deadline, det.retries,
                det.budget_trips);
  return buf;
}

RuntimeInfo BatchStats::runtime_info() const {
  RuntimeInfo rt;
  rt.threads = threads_used;
  rt.steals = steals;
  rt.wall_ms = wall_ms;
  rt.worker_tasks = worker_tasks;
  rt.worker_cpu_ms = worker_cpu_ms;
  return rt;
}

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Doubles go in as IEEE bit patterns: bitwise identity is exactly the
/// contract the differentials enforce, so two runs that differ only in
/// -0.0 vs 0.0 or a NaN payload are different results.
void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

// The identity of a result, written once as the byte sequence every
// comparator compares and batch_result_digest hashes.  A field added to
// TreeNode, EvalResult or FlowResult that defines a result goes here.

/// A flow result: every TreeNode field of the routing tree, the seven
/// EvalResult fields and the loop count (no cache counters, no wall time).
void put_flow_identity(std::string& out, const FlowResult& f) {
  const RoutingTree& t = f.tree;
  put_u64(out, t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const TreeNode& tn = t.node(i);
    put_u64(out, static_cast<std::uint64_t>(tn.kind));
    put_u64(out, static_cast<std::uint32_t>(tn.at.x));
    put_u64(out, static_cast<std::uint32_t>(tn.at.y));
    put_u64(out, static_cast<std::uint32_t>(tn.idx));
    put_u64(out, tn.parent);
    put_f64(out, tn.wire_width);
    put_u64(out, tn.children.size());
    for (const std::uint32_t c : tn.children) put_u64(out, c);
  }
  const EvalResult& e = f.eval;
  put_f64(out, e.root_load);
  put_f64(out, e.root_req_time);
  put_f64(out, e.driver_delay);
  put_f64(out, e.driver_req_time);
  put_f64(out, e.buffer_area);
  put_f64(out, e.wirelength);
  put_u64(out, e.buffer_count);
  put_u64(out, f.merlin_loops);
}

/// A batch result: the net count; per net its id, trivial flag, status,
/// attempts, budget trips and flow result; then the circuit outcome.
/// Error strings, cache counters and wall times are not in it.
std::string batch_identity(const BatchResult& r) {
  std::string out;
  put_u64(out, r.nets.size());
  for (const BatchNetResult& n : r.nets) {
    put_u64(out, n.net_id);
    put_u64(out, n.trivial ? 1 : 0);
    put_u64(out, static_cast<std::uint64_t>(n.status));
    put_u64(out, n.attempts);
    put_u64(out, n.budget_trips);
    put_flow_identity(out, n.result);
  }
  put_f64(out, r.circuit.area);
  put_f64(out, r.circuit.delay_ps);
  put_u64(out, r.circuit.nets_routed);
  put_u64(out, r.circuit.buffers_inserted);
  return out;
}

}  // namespace

bool flow_results_identical(const FlowResult& a, const FlowResult& b) {
  std::string x, y;
  put_flow_identity(x, a);
  put_flow_identity(y, b);
  return x == y && a.cache_hits == b.cache_hits &&
         a.cache_misses == b.cache_misses;
}

bool batch_results_equivalent(const BatchResult& a, const BatchResult& b) {
  // Equal identities imply equal net counts.
  if (batch_identity(a) != batch_identity(b)) return false;
  for (std::size_t i = 0; i < a.nets.size(); ++i)
    if (a.nets[i].error != b.nets[i].error) return false;
  BatchStatsDet da = a.stats.det, db = b.stats.det;
  da.cache_hits = db.cache_hits = 0;
  da.cache_misses = db.cache_misses = 0;
  return da == db;
}

bool batch_results_identical(const BatchResult& a, const BatchResult& b) {
  if (!batch_results_equivalent(a, b)) return false;
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    const FlowResult& x = a.nets[i].result;
    const FlowResult& y = b.nets[i].result;
    if (x.cache_hits != y.cache_hits || x.cache_misses != y.cache_misses)
      return false;
  }
  // The deterministic substruct carries exactly the comparable fields, so
  // its defaulted operator== is the whole stats comparison; wall times and
  // scheduling facts are structurally excluded.
  return a.stats.det == b.stats.det;
}

std::uint64_t batch_result_digest(const BatchResult& r) {
  // 64-bit FNV-1a over the identity bytes.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : batch_identity(r)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace merlin
