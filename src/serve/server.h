#pragma once
// merlin_d's engine room.
//
// ServerCore is the socket-free heart of the daemon: it owns the warm state
// (buffer library, shared SubproblemCache, BatchContext with its resident
// ThreadPool and per-worker arenas/sessions), the bounded fair admission
// queue, the job registry, and ONE scheduler thread that dispatches queued
// jobs onto the context strictly one at a time — which is what lets every
// job reuse the warm pool, and what makes results bit-identical to one-shot
// CLI runs (tests/test_serve.cpp holds both paths to that).  Being
// socket-free, the whole admission/fairness/determinism surface is testable
// in-process.
//
// The scheduler is also the only thread that touches the shared store
// outside a batch's parallel phase: between jobs it serves requested
// snapshot saves, then the --snapshot-every cadence (snapshot save and
// metrics dump), then the next queued job; after the drain it makes the
// final save and dump.  So a save never walks the store beside a running
// job, with no lock of its own.  One mutex (mu_) guards the queue, the job
// records, the drain flag and the save requests; it is never held while a
// job or a save runs.
//
// SocketServer is the transport shell: a unix-domain stream listener, one
// thread per connection, length-prefixed frames (serve/protocol.h), strictly
// one response per request.  Malformed framing earns err.bad_frame and the
// connection is closed; a well-framed payload that fails to decode earns
// err.bad_request and the connection lives on.
//
// Lifecycle: warm (construction spawns pool + scheduler) → serving →
// draining (admission closed, queued/in-flight jobs finish, final save) →
// stopped.
// Drain is irreversible.  docs/SERVING.md is the user-facing reference.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "buflib/library.h"
#include "cache/shard.h"
#include "cache/snapshot.h"
#include "flow/batch.h"
#include "obs/flightrec.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "runtime/guard.h"
#include "serve/protocol.h"
#include "serve/queue.h"

namespace merlin {

/// Daemon configuration (merlin_d's flags map 1:1 onto this).
struct ServeOptions {
  std::size_t threads = 1;        ///< batch workers (0 = all cores)
  std::size_t cache_mb = 64;      ///< shared-cache budget (0 disables)
  std::size_t queue_capacity = 64;  ///< admission-queue bound
  GuardConfig guard{};            ///< per-job NetGuard budgets
  FailPolicy fail_policy = FailPolicy::kDegrade;
  bool trace_spans = false;       ///< arm per-job span rings (serve.* spans)
  /// Keep each job's full BatchResult in its outcome — the in-process
  /// differential tests compare them structurally.  Daemons serving real
  /// traffic leave this off (outcomes hold only the summary + stats JSON).
  bool keep_results = false;

  /// Warm-cache snapshot file ("" disables persistence).  Loaded on
  /// construction (corruption cold-starts, never crashes), saved when the
  /// drain completes, on the cadence below, and on a req.snapshot frame.
  std::string snapshot_path;
  /// Snapshot cadence in seconds (0 = only drain/req.snapshot); the
  /// scheduler saves between jobs once a period has passed.
  std::uint32_t snapshot_every_s = 0;

  /// Per-connection socket recv/send timeout in ms (0 disables).  Bounds
  /// how long a half-open peer can pin a connection thread mid-frame or
  /// mid-reply; a connection idling *between* frames is unaffected.
  std::uint32_t io_timeout_ms = 30000;

  /// Overload shedding (docs/SERVING.md, "Overload shedding").  Shedding
  /// arms while queued jobs >= shed_queue_depth (0 = off).  While armed,
  /// retry-after hints double and per-client lanes are capped at
  /// shed_lane_cap queued jobs (0 = no cap; beyond it submits earn
  /// err.overloaded).
  std::size_t shed_queue_depth = 0;
  std::size_t shed_lane_cap = 0;

  /// Flight-recorder ring file ("" disables).  A crash-surviving black box
  /// of the last flightrec_events structured events (obs/flightrec.h);
  /// merlin_d arms SIGSEGV/SIGABRT sync handlers when this is set.
  std::string flightrec_path;
  std::uint32_t flightrec_events = FlightRecorder::kDefaultCapacity;
  /// Lifetime-metrics JSON dump path ("" disables): the req.metrics
  /// document, written atomically (temp + rename) on the snapshot cadence
  /// (snapshot_every_s) and once more when the drain completes.
  std::string metrics_out;
};

/// Terminal record of a finished job.
struct JobOutcome {
  bool ok = false;
  /// The request's deadline_ms was already spent when the scheduler reached
  /// it — the job never ran; the transport replies err.deadline.
  bool deadline_expired = false;
  std::string error;          ///< what() of the failing exception
  double delay_ps = 0.0;
  double area = 0.0;
  std::uint64_t buffers = 0;
  std::uint64_t nets = 0;
  std::uint64_t digest = 0;   ///< batch_result_digest of the full result
  double queue_ms = 0.0;      ///< admission → dispatch wait
  double wall_ms = 0.0;       ///< dispatch → completion
  std::string stats_json;     ///< merlin.stats v8 (request.id = job id)
  /// Full result, only under ServeOptions::keep_results.
  std::shared_ptr<const BatchResult> result;
};

/// Admission verdict of ServerCore::submit.
struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t job_id = 0;          ///< valid when accepted
  ServeError error = ServeError::kInternal;  ///< valid when rejected
  std::uint32_t retry_after_ms = 0;  ///< backpressure hint (err.queue_full)
};

class ServerCore {
 public:
  explicit ServerCore(ServeOptions opts = {});
  /// Drains (admission closed, queued jobs run to completion) and joins.
  ~ServerCore();
  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Admits a job from `client` (a connection id; fairness is per client).
  /// Rejection carries err.queue_full (+ retry-after hint scaled by the
  /// current backlog) or err.draining.
  SubmitOutcome submit(std::uint64_t client, JobSpec spec);

  /// Finished job records kept for status and stats queries; past this the
  /// oldest-finished record is dropped, so the daemon's memory does not
  /// grow with its request count.  A dropped job reads as never admitted.
  static constexpr std::size_t kFinishedJobsKept = 1024;

  /// Blocks until `job_id` completes and returns its outcome (shared, so it
  /// outlives the record); nullptr for a job never admitted or already
  /// dropped from the finished records.
  [[nodiscard]] std::shared_ptr<const JobOutcome> wait(std::uint64_t job_id);

  /// Non-blocking state probe; `position` is filled when queued.
  [[nodiscard]] JobState status(std::uint64_t job_id,
                                std::uint64_t& position) const;

  /// The finished job's stats JSON; nullopt when unknown or not done yet.
  [[nodiscard]] std::optional<std::string> stats_json(
      std::uint64_t job_id) const;

  /// Stops admission.  Queued and in-flight jobs still complete; call
  /// wait_drained() to block until the scheduler retires the last one.
  void begin_drain();
  /// Blocks until the scheduler has retired the last job and made the
  /// final snapshot save and metrics dump.  Must be preceded by
  /// begin_drain().
  void wait_drained();

  [[nodiscard]] bool draining() const;
  [[nodiscard]] std::uint64_t jobs_completed() const {
    return jobs_completed_.load();
  }
  [[nodiscard]] const ServeOptions& options() const { return opts_; }
  /// The warm context's resolved worker count.
  [[nodiscard]] std::size_t threads() const { return ctx_->threads(); }

  /// True when snapshot persistence is configured AND the cache can hold
  /// state worth saving (a path with the cache off is inert, not an error).
  [[nodiscard]] bool snapshot_armed() const {
    return !opts_.snapshot_path.empty() && cache_ && cache_->enabled();
  }
  /// Asks the scheduler for a warm-cache snapshot save and waits until it
  /// has served it: after the running job, if any, has published, and
  /// before the next one dispatches.  Once the scheduler has exited, the
  /// answer is the final save's, at once — the store cannot change after
  /// it.  False with `error` filled when not armed or the write failed —
  /// the previous snapshot on disk survives every failure.
  bool save_snapshot(std::string* error = nullptr);
  /// Human-readable one-liner describing the construction-time snapshot
  /// load ("restored N entries...", "corrupt (cold start): ...", empty when
  /// persistence is off) — merlin_d prints it at startup.
  [[nodiscard]] const std::string& snapshot_note() const {
    return snapshot_note_;
  }

  /// Reply-path send failure accounting (EPIPE, timeouts); the transport
  /// reports each one here and the totals surface in the `serve` stats
  /// section.
  void note_reply_failure() { reply_failures_.fetch_add(1); }

  /// The current survivability rollup (the v5 `serve` stats section shape).
  [[nodiscard]] ServeInfo serve_info() const;

  /// The process-lifetime telemetry registry (every completed job is folded
  /// in by the scheduler; tests read it directly).
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }
  /// The req.metrics JSON: a merlin.stats v8 document whose `lifetime`
  /// section carries the registry snapshot (no per-job sections).
  [[nodiscard]] std::string metrics_json() const;
  /// The same registry snapshot in Prometheus text exposition format.
  [[nodiscard]] std::string metrics_prometheus() const;

  /// The crash black box (armed when ServeOptions::flightrec_path is set);
  /// merlin_d's signal handlers call its sigsync().
  [[nodiscard]] FlightRecorder& flight_recorder() { return flightrec_; }
  /// Start-up note for the flight recorder ("" when armed cleanly or off).
  [[nodiscard]] const std::string& flightrec_note() const {
    return flightrec_note_;
  }

 private:
  struct JobRecord {
    JobState state = JobState::kQueued;
    std::int64_t admit_ns = 0;
    std::shared_ptr<const JobOutcome> outcome;  ///< set once kDone
  };

  void scheduler_loop();
  [[nodiscard]] JobOutcome run_one(const QueuedJob& job, double queue_ms,
                                   std::int64_t admit_ns);
  /// Scheduler-only writers, called with mu_ released.  save_now counts
  /// and rings a successful save; write_periodic is one cadence tick (or
  /// the drain's last act): the snapshot save, then the metrics dump.
  bool save_now(std::string* error);
  bool write_periodic(std::string* error);
  /// Writes metrics_json() to ServeOptions::metrics_out atomically and
  /// durably (io/bytes.h write_file_atomic).  A failure is not fatal; a
  /// previous dump on disk survives it.
  void dump_metrics();
  /// Queued jobs right now (takes mu_).
  [[nodiscard]] std::size_t queued() const;
  /// Shedding predicate: the queue-depth trigger crossed?  mu_ held.
  [[nodiscard]] bool overloaded_now() const;
  /// Backoff hint: recent mean job wall time scaled by the backlog, times
  /// `scale` (2.0 under overload), clamped to [1 ms, 60 s].  mu_ held.
  [[nodiscard]] std::uint32_t retry_hint(double scale) const;

  ServeOptions opts_;
  BufferLibrary lib_;
  std::optional<SubproblemCache> cache_;
  std::unique_ptr<BatchContext> ctx_;

  // Everything below up to the atomics is guarded by mu_.  The scheduler
  // waits on work_cv_ (a submit, a save request or the drain wakes it);
  // wait(), save_snapshot() and wait_drained() wait on done_cv_.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  AdmissionQueue queue_;  ///< closed() is the drain flag
  std::map<std::uint64_t, JobRecord> jobs_;
  std::deque<std::uint64_t> finished_;  ///< done job ids, oldest first
  std::uint64_t next_job_id_ = 1;
  double wall_ewma_ms_ = 0.0;  ///< recent job wall time (retry-after hint)
  /// Save requests: save_snapshot() takes ticket ++saves_requested_ and
  /// waits for saves_served_ to reach it; one save serves every ticket
  /// taken before it started.  last_save_* is that save's answer.
  std::uint64_t saves_requested_ = 0;
  std::uint64_t saves_served_ = 0;
  bool last_save_ok_ = false;
  std::string last_save_error_;
  bool stopped_ = false;  ///< the scheduler made its final save and exited

  std::atomic<std::uint64_t> jobs_completed_{0};
  std::thread scheduler_;

  // Survivability accounting (the v5 `serve` stats section).
  std::atomic<std::uint64_t> jobs_admitted_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> overload_rejections_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> reply_failures_{0};
  std::atomic<std::uint64_t> snapshot_saves_{0};
  std::atomic<std::uint64_t> snapshot_loads_{0};

  // Process-lifetime telemetry (docs/OBSERVABILITY.md, "Lifetime
  // telemetry"): the registry accumulates every completed job; the flight
  // recorder rings the last N structured events in a crash-surviving
  // mmap'd file.
  MetricsRegistry registry_;
  FlightRecorder flightrec_;
  std::string flightrec_note_;
  std::string snapshot_note_;
};

/// Unix-domain transport for a ServerCore.  One accept loop (poll with a
/// 200 ms tick so stop requests and signals are honored promptly), one
/// thread per connection, one response frame per request frame.
class SocketServer {
 public:
  /// Binds and listens on `socket_path`.  An existing socket file is first
  /// probed with connect(2): a live daemon answering means this start-up
  /// REFUSES to clobber it (std::runtime_error → exit code 6); only a dead
  /// socket (ECONNREFUSED — the stale remnant of a killed daemon) is
  /// unlinked.  Throws std::runtime_error on any socket-layer failure; the
  /// daemon maps that to exit code 6.
  SocketServer(ServerCore& core, std::string socket_path);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Serves until a shutdown request arrives or `external_stop` (optional,
  /// e.g. a signal flag) becomes true.  On exit the listener is closed,
  /// every connection thread has joined and the core has fully drained.
  void run_until_shutdown(const std::atomic<bool>* external_stop = nullptr);

  [[nodiscard]] const std::string& socket_path() const { return path_; }

 private:
  void handle_connection(int fd, std::uint64_t client_id);
  /// One request frame → one response frame; false closes the connection.
  bool handle_frame(const Frame& frame, std::uint64_t client_id, int fd);
  /// Reply senders.  A failed send (EPIPE, short write, send timeout) is a
  /// typed event, not a silent drop: it is counted on the core and the
  /// false return closes the connection — a peer that saw only part of a
  /// frame can never be handed a next frame to mis-align against.
  bool reply(int fd, MsgType type, std::string_view payload);
  bool reply_error(int fd, ServeError code, std::string message,
                   std::uint32_t retry_after_ms = 0);
  /// Joins the connection threads whose handlers have returned.
  void reap_finished();
  /// Wakes every connection thread parked in recv (shutdown(2) on the live
  /// fds) and joins them — idle clients must not block a drain forever.
  void close_connections();

  /// One accepted connection; `fd` turns -1 (under conn_mu_) once its
  /// handler has returned and closed it, which makes the thread reapable.
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  ServerCore& core_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::mutex conn_mu_;
  std::list<Connection> connections_;
};

}  // namespace merlin
