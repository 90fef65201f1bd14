#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "flow/circuit.h"
#include "io/bytes.h"
#include "io/netfile.h"
#include "net/generator.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/transport.h"

namespace merlin {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

// -- ServerCore -------------------------------------------------------------

ServerCore::ServerCore(ServeOptions opts)
    : opts_(opts),
      lib_(make_standard_library()),
      queue_(opts.queue_capacity) {
  if (opts_.cache_mb > 0) cache_.emplace(cache_config_mb(opts_.cache_mb));
  if (snapshot_armed()) {
    // Warm restore before the first job can dispatch.  Any defect in the
    // file — missing, torn, corrupted, wrong version — degrades to a cold
    // cache; it never aborts the start-up.
    const SnapshotLoadResult lr = load_cache_snapshot(*cache_, opts_.snapshot_path);
    snapshot_note_ = std::string(snapshot_load_status_name(lr.status)) +
                     (lr.detail.empty() ? "" : ": " + lr.detail);
    if (lr.loaded()) snapshot_loads_.store(1);
  }
  if (!opts_.flightrec_path.empty()) {
    // Arm the crash black box before the scheduler can dispatch anything,
    // so the very first admit is on the ring.  Failure is a printable
    // note, never fatal: telemetry must not take the daemon down.
    std::string err;
    if (!flightrec_.open(opts_.flightrec_path, opts_.flightrec_events, &err))
      flightrec_note_ = err;
  }
  ctx_ = std::make_unique<BatchContext>(opts_.threads,
                                        cache_ ? &*cache_ : nullptr);
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

ServerCore::~ServerCore() {
  begin_drain();
  wait_drained();
  scheduler_.join();
}

SubmitOutcome ServerCore::submit(std::uint64_t client, JobSpec spec) {
  SubmitOutcome out;
  std::unique_lock<std::mutex> lk(mu_);
  if (queue_.closed()) {
    jobs_rejected_.fetch_add(1);
    out.error = ServeError::kDraining;
    return out;
  }
  const bool overloaded = overloaded_now();
  if (overloaded && opts_.shed_lane_cap > 0 &&
      queue_.lane_depth(client) >= opts_.shed_lane_cap) {
    // Under load, a client with a full lane of its own work queued gets
    // shed before admission — it is the fairest place to cut, because every
    // other client's latency is what its backlog is buying.
    out.error = ServeError::kOverloaded;
    out.retry_after_ms = retry_hint(2.0);
    lk.unlock();
    jobs_rejected_.fetch_add(1);
    overload_rejections_.fetch_add(1);
    registry_.note_shed();
    flightrec_.record(FlightEvent::kShed, 0, client);
    return out;
  }
  QueuedJob job;
  job.job_id = next_job_id_;
  job.client = client;
  job.spec = std::move(spec);
  if (!queue_.try_push(std::move(job))) {
    jobs_rejected_.fetch_add(1);
    out.error = ServeError::kQueueFull;
    // Backpressure hint: recent mean job wall time scaled by the backlog a
    // retry would sit behind (doubled while shedding thresholds are
    // crossed).  A hint, not a promise — clients may retry sooner and
    // simply risk another rejection.
    out.retry_after_ms = retry_hint(overloaded ? 2.0 : 1.0);
    return out;
  }
  const std::uint64_t id = next_job_id_++;
  JobRecord rec;
  rec.admit_ns = now_ns();
  jobs_.emplace(id, std::move(rec));
  lk.unlock();
  work_cv_.notify_one();
  jobs_admitted_.fetch_add(1);
  flightrec_.record(FlightEvent::kAdmit, id, client);
  out.accepted = true;
  out.job_id = id;
  return out;
}

std::size_t ServerCore::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

bool ServerCore::overloaded_now() const {
  // Off by default (threshold 0); a backlog at the threshold arms shedding.
  return opts_.shed_queue_depth > 0 && queue_.size() >= opts_.shed_queue_depth;
}

std::uint32_t ServerCore::retry_hint(double scale) const {
  const double per_job = wall_ewma_ms_ > 0.0 ? wall_ewma_ms_ : 50.0;
  const double hint =
      per_job * static_cast<double>(queue_.size() + 1) * scale;
  return static_cast<std::uint32_t>(
      hint < 1.0 ? 1.0 : (hint > 60000.0 ? 60000.0 : hint));
}

ServeInfo ServerCore::serve_info() const {
  ServeInfo s;
  s.enabled = 1;
  s.jobs_admitted = jobs_admitted_.load();
  s.jobs_rejected = jobs_rejected_.load();
  s.overload_rejections = overload_rejections_.load();
  s.deadline_expired = deadline_expired_.load();
  s.reply_failures = reply_failures_.load();
  s.snapshot_saves = snapshot_saves_.load();
  s.snapshot_loads = snapshot_loads_.load();
  std::lock_guard<std::mutex> lk(mu_);
  s.queue_depth = queue_.size();
  s.ewma_ms = wall_ewma_ms_;
  s.overloaded = overloaded_now() ? 1 : 0;
  return s;
}

bool ServerCore::save_snapshot(std::string* error) {
  if (!snapshot_armed()) {
    if (error != nullptr) *error = "no snapshot path configured";
    return false;
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (!stopped_) {
    const std::uint64_t ticket = ++saves_requested_;
    work_cv_.notify_one();
    done_cv_.wait(lk, [&] { return saves_served_ >= ticket; });
  }
  if (!last_save_ok_ && error != nullptr) *error = last_save_error_;
  return last_save_ok_;
}

bool ServerCore::save_now(std::string* error) {
  if (!save_cache_snapshot(*cache_, opts_.snapshot_path, nullptr, error))
    return false;
  flightrec_.record(FlightEvent::kSnapshot, 0,
                    snapshot_saves_.fetch_add(1) + 1);
  return true;
}

bool ServerCore::write_periodic(std::string* error) {
  // Failures are counted facts, not fatal.  The metrics dump shares the
  // snapshot cadence by design (one periodic-writeout rhythm).
  const bool saved = snapshot_armed() && save_now(error);
  if (!opts_.metrics_out.empty()) dump_metrics();
  return saved;
}

std::string ServerCore::metrics_json() const {
  // A merlin.stats v8 document about the PROCESS, not any one job: the
  // per-job sections (counters/nets/latency_us...) come from an empty sink
  // and stay zero; `lifetime` carries the registry and `serve` the
  // survivability rollup.  request.source "serve" with job id 0.
  const ObsSink empty;
  RequestInfo req;
  req.source = "serve";
  const LifetimeSnapshot snap = registry_.snapshot();
  return stats_to_json(empty, {}, req, serve_info(), &snap);
}

std::string ServerCore::metrics_prometheus() const {
  return stats_to_prometheus(registry_.snapshot(), serve_info());
}

void ServerCore::dump_metrics() {
  (void)write_file_atomic(opts_.metrics_out, metrics_json());
}

std::shared_ptr<const JobOutcome> ServerCore::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lk(mu_);
  // Finished records are dropped oldest first, so the record is looked up
  // afresh after every wake-up rather than held across the wait.
  std::shared_ptr<const JobOutcome> out;
  done_cv_.wait(lk, [&] {
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return true;
    out = it->second.outcome;
    return it->second.state == JobState::kDone;
  });
  return out;
}

JobState ServerCore::status(std::uint64_t job_id,
                            std::uint64_t& position) const {
  position = 0;
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return JobState::kUnknown;
  if (it->second.state == JobState::kQueued) {
    if (const auto pos = queue_.position(job_id)) position = *pos;
  }
  return it->second.state;
}

std::optional<std::string> ServerCore::stats_json(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state != JobState::kDone)
    return std::nullopt;
  return it->second.outcome->stats_json;
}

bool ServerCore::draining() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.closed();
}

void ServerCore::begin_drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.close();
  }
  work_cv_.notify_one();
}

void ServerCore::wait_drained() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] { return stopped_; });
}

void ServerCore::scheduler_loop() {
  // One job at a time, strictly in the queue's fair order — the warm
  // BatchContext serves one run at a time by contract, and serial dispatch
  // is also what keeps each job's parallelism (its own nets across the full
  // pool) identical to a one-shot run's.  Between jobs: requested saves
  // first, then the cadence, so a backlog cannot starve either.
  const bool cadence = opts_.snapshot_every_s > 0 &&
                       (snapshot_armed() || !opts_.metrics_out.empty());
  const auto period = std::chrono::seconds(opts_.snapshot_every_s);
  auto next_tick = Clock::now() + period;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (saves_served_ < saves_requested_) {
      // One save answers every request taken before it starts.
      const std::uint64_t serving = saves_requested_;
      lk.unlock();
      std::string err;
      const bool ok = save_now(&err);
      lk.lock();
      last_save_ok_ = ok;
      last_save_error_ = std::move(err);
      saves_served_ = serving;
      done_cv_.notify_all();
    } else if (cadence && Clock::now() >= next_tick) {
      lk.unlock();
      (void)write_periodic(nullptr);
      lk.lock();
      next_tick = Clock::now() + period;
    } else if (std::optional<QueuedJob> job = queue_.pop()) {
      const std::int64_t dispatch_ns = now_ns();
      JobRecord& rec = jobs_.at(job->job_id);
      rec.state = JobState::kRunning;
      const std::int64_t admit_ns = rec.admit_ns;
      const double queue_ms = ns_to_ms(dispatch_ns - admit_ns);
      flightrec_.record(FlightEvent::kDispatch, job->job_id, queue_.size());
      lk.unlock();
      JobOutcome outcome = run_one(*job, queue_ms, admit_ns);
      lk.lock();
      JobRecord& done = jobs_.at(job->job_id);
      const double w = outcome.wall_ms;
      done.outcome = std::make_shared<const JobOutcome>(std::move(outcome));
      done.state = JobState::kDone;
      wall_ewma_ms_ = wall_ewma_ms_ > 0.0 ? 0.7 * wall_ewma_ms_ + 0.3 * w : w;
      // Bounded history: a status or stats query for a dropped job answers
      // unknown.  A waiter picks its outcome up when it wakes, long before
      // kFinishedJobsKept later jobs could finish.
      finished_.push_back(job->job_id);
      if (finished_.size() > kFinishedJobsKept) {
        jobs_.erase(finished_.front());
        finished_.pop_front();
      }
      jobs_completed_.fetch_add(1);
      done_cv_.notify_all();
    } else if (queue_.closed()) {
      break;
    } else if (cadence) {
      work_cv_.wait_until(lk, next_tick);
    } else {
      work_cv_.wait(lk);
    }
  }
  // Drained: the last act is the final save and dump, so they capture
  // every admitted job.  This is the SIGTERM-drain persistence path; a
  // save asked for from now on gets this save's answer.
  lk.unlock();
  std::string err;
  const bool ok = write_periodic(&err);
  lk.lock();
  last_save_ok_ = ok;
  last_save_error_ = std::move(err);
  saves_served_ = saves_requested_;
  stopped_ = true;
  done_cv_.notify_all();
}

JobOutcome ServerCore::run_one(const QueuedJob& job, double queue_ms,
                               std::int64_t admit_ns) {
  JobOutcome out;
  out.queue_ms = queue_ms;
  const std::int64_t t0 = now_ns();
  ObsSink sink;
  if (opts_.trace_spans) sink.set_span_capacity(ObsSink::kDefaultSpanCapacity);
  if (job.spec.deadline_ms > 0 &&
      queue_ms >= static_cast<double>(job.spec.deadline_ms)) {
    // The deadline died in the admission queue: reject without running —
    // burning the pool on a result the client has already given up on only
    // pushes every later job past ITS deadline.  The daemon keeps serving.
    out.ok = false;
    out.deadline_expired = true;
    out.error = "deadline of " + std::to_string(job.spec.deadline_ms) +
                " ms expired after " +
                std::to_string(static_cast<std::uint64_t>(queue_ms)) +
                " ms queued";
    sink.counters.add(Counter::kServeDeadlineExpired);
    deadline_expired_.fetch_add(1);
    flightrec_.record(FlightEvent::kDeadline, job.job_id,
                      static_cast<std::uint64_t>(queue_ms));
    // The job still counts into the lifetime registry (its sink carries
    // serve_deadline_expired); run stage is 0 — it never dispatched work.
    registry_.note_job(sink, queue_ms, 0.0, queue_ms, queued());
    RequestInfo req;
    req.id = job.job_id;
    req.source = "serve";
    req.client = job.client;
    req.queue_ms = queue_ms;
    out.stats_json = stats_to_json(sink, {}, req, serve_info());
    return out;
  }
  try {
    BatchOptions bo;
    bo.flow = static_cast<FlowKind>(job.spec.flow);
    bo.obs = &sink;
    bo.guard = opts_.guard;
    bo.fail_policy = opts_.fail_policy;
    bo.context = ctx_.get();
    if (job.spec.deadline_ms > 0) {
      // Whatever deadline budget survives the queue wait becomes this job's
      // per-net guard deadline — the run degrades down the ladder instead
      // of wedging the (serial) scheduler past the client's patience.
      const double remaining =
          static_cast<double>(job.spec.deadline_ms) - queue_ms;
      bo.guard.deadline_ms = bo.guard.deadline_ms > 0
                                 ? std::min(bo.guard.deadline_ms, remaining)
                                 : remaining;
    }
    const BatchRunner runner(lib_, bo);

    BatchResult r;
    if (job.spec.kind == JobSpec::Kind::kCircuit) {
      const Circuit ckt = make_random_circuit(
          circuit_job_spec(job.spec.gates, job.spec.seed), lib_);
      r = runner.run(ckt);
      out.delay_ps = r.circuit.delay_ps;
      out.area = r.circuit.area;
      out.buffers = r.circuit.buffers_inserted;
      out.nets = r.circuit.nets_routed;
    } else {
      std::istringstream in(job.spec.net_text);
      const Net net = read_net(in);
      r = runner.run_nets({net});
      const BatchNetResult& nr = r.nets.at(0);
      out.delay_ps = nr.result.eval.table_delay(net);
      out.area = nr.result.eval.buffer_area;
      out.buffers = nr.result.eval.buffer_count;
      out.nets = 1;
    }
    out.digest = batch_result_digest(r);
    out.wall_ms = ns_to_ms(now_ns() - t0);

    // The request's own spans: queue wait (admission → dispatch) and the
    // run itself.  Scheduling spans by nature (net == kNoTraceNet), tagged
    // with the job id so a Perfetto track reads per-request.
    SpanRecord queue_span;
    queue_span.begin_ns = static_cast<std::uint64_t>(admit_ns);
    queue_span.end_ns = static_cast<std::uint64_t>(t0);
    queue_span.arg = job.job_id;
    queue_span.name = SpanName::kServeQueue;
    sink.record_span(queue_span);
    SpanRecord run_span = queue_span;
    run_span.begin_ns = queue_span.end_ns;
    run_span.end_ns = static_cast<std::uint64_t>(now_ns());
    run_span.name = SpanName::kServeRequest;
    sink.record_span(run_span);

    RequestInfo req;
    req.id = job.job_id;
    req.source = "serve";
    req.client = job.client;
    req.queue_ms = queue_ms;
    out.stats_json =
        stats_to_json(sink, r.stats.runtime_info(), req, serve_info());
    if (opts_.keep_results)
      out.result = std::make_shared<const BatchResult>(std::move(r));
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.wall_ms = ns_to_ms(now_ns() - t0);
  }
  // Lifetime accounting happens for every job that dispatched, failed or
  // not: the registry folds the merged sink in (counters/gauges/spans,
  // deterministic per-net histograms) plus the three wall-clock stages.
  registry_.note_job(sink, queue_ms, out.wall_ms, queue_ms + out.wall_ms,
                     queued());
  if (const std::uint64_t ev = sink.counters.get(Counter::kCacheEntriesEvicted);
      ev > 0)
    flightrec_.record(FlightEvent::kEvict, job.job_id, ev);
  flightrec_.record(FlightEvent::kComplete, job.job_id, out.ok ? 1 : 0);
  return out;
}

// -- SocketServer -----------------------------------------------------------

namespace {

const char* bad_frame_reason(DecodeStatus st) {
  return st == DecodeStatus::kBadMagic  ? "bad magic"
         : st == DecodeStatus::kOversize ? "payload exceeds kMaxFramePayload"
                                         : "unknown message type";
}

}  // namespace

bool SocketServer::reply(int fd, MsgType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  append_frame(frame, type, payload);
  if (send_all(fd, frame).err == 0) return true;
  core_.note_reply_failure();
  return false;
}

bool SocketServer::reply_error(int fd, ServeError code, std::string message,
                               std::uint32_t retry_after_ms) {
  ErrorResp e;
  e.code = static_cast<std::uint8_t>(code);
  e.retry_after_ms = retry_after_ms;
  e.message = std::move(message);
  return reply(fd, MsgType::kRespError, e.encode());
}

SocketServer::SocketServer(ServerCore& core, std::string socket_path)
    : core_(core), path_(std::move(socket_path)) {
  const sockaddr_un addr = unix_address(path_);
  // A stale socket file from a killed daemon must not block the restart —
  // but blindly unlinking would also clobber a LIVE daemon's socket,
  // stranding it listening on an fd no client can ever reach.  Probe
  // first: a successful connect means someone is serving (refuse to
  // start); ECONNREFUSED means a dead remnant (safe to unlink; Linux
  // answers the same for a non-socket file, equally safe); ENOENT means
  // nothing there.  Any other errno: leave the path alone and let bind
  // report the real problem.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    const int rc = ::connect(
        probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    const int probe_errno = rc == 0 ? 0 : errno;
    ::close(probe);
    if (rc == 0)
      throw std::runtime_error("live daemon already serving on '" + path_ +
                               "' (refusing to clobber its socket)");
    if (probe_errno == ECONNREFUSED) ::unlink(path_.c_str());
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket(AF_UNIX)");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw_errno("bind(" + path_ + ")");
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    ::unlink(path_.c_str());
    throw_errno("listen(" + path_ + ")");
  }
}

SocketServer::~SocketServer() {
  stop_.store(true);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  close_connections();
  ::unlink(path_.c_str());
}

void SocketServer::reap_finished() {
  std::lock_guard<std::mutex> lk(conn_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->fd >= 0) {
      ++it;
      continue;
    }
    // The handler set fd = -1 under this mutex as its last act, so this
    // join cannot deadlock.
    it->thread.join();
    it = connections_.erase(it);
  }
}

void SocketServer::close_connections() {
  std::list<Connection> conns;
  {
    // Half-close every live connection so its thread's blocking recv
    // returns 0 and the handler unwinds.  A handler closes its own fd and
    // marks it -1 under this same mutex, so nothing here can shut down a
    // recycled fd.
    std::lock_guard<std::mutex> lk(conn_mu_);
    for (const Connection& c : connections_)
      if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
    conns.swap(connections_);
  }
  for (Connection& c : conns)
    if (c.thread.joinable()) c.thread.join();  // not if its spawn threw
}

void SocketServer::run_until_shutdown(const std::atomic<bool>* external_stop) {
  std::uint64_t next_client = 0;
  while (!stop_.load() &&
         (external_stop == nullptr || !external_stop->load())) {
    // Join the handlers that have finished, so a stream of short-lived
    // connections (merlin_stat --watch) does not pile up thread stacks.
    reap_finished();
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    // The 200 ms tick bounds how long a stop request (shutdown frame or
    // signal flag) waits before the loop notices it.
    const int pr = ::poll(&pfd, 1, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::uint64_t client_id = ++next_client;
    std::lock_guard<std::mutex> lk(conn_mu_);
    Connection& c = connections_.emplace_back();
    c.fd = fd;
    c.thread = std::thread([this, &c, fd, client_id] {
      handle_connection(fd, client_id);
      // Close and mark done under the mutex, so close_connections never
      // shuts down a recycled fd number.
      std::lock_guard<std::mutex> done(conn_mu_);
      ::close(fd);
      c.fd = -1;
    });
  }
  // Graceful drain: admission closes, queued and in-flight jobs run to
  // completion (their clients get real results), THEN the connections are
  // torn down and joined.
  core_.begin_drain();
  core_.wait_drained();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  close_connections();
}

void SocketServer::handle_connection(int fd, std::uint64_t client_id) {
  if (const std::uint32_t ms = core_.options().io_timeout_ms; ms > 0) {
    // Kernel-level read/write timeouts so one stalled peer (a slow-loris
    // half-frame, or a client that stopped draining its socket) cannot pin
    // this connection thread forever.  recv then fails EAGAIN; a mid-frame
    // stall hangs up below, while an idle connection just keeps waiting.
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  std::string buf;
  for (;;) {
    Frame frame;
    const ReadResult r = read_frame(fd, buf, frame);
    if (r.status == ReadStatus::kFrame) {
      if (!handle_frame(frame, client_id, fd)) return;
      continue;
    }
    // SO_RCVTIMEO expired.  A half-delivered frame still buffered means the
    // peer stalled mid-request: hang up.  An empty buffer is just an idle
    // keep-alive connection — keep waiting (unless we're stopping).
    if (r.status == ReadStatus::kTimedOut && buf.empty() && !stop_.load())
      continue;
    // Framing violations are unrecoverable on a stream: the reader can no
    // longer find the next boundary.  One diagnostic, then hang up.
    if (r.status == ReadStatus::kBadFrame)
      reply_error(fd, ServeError::kBadFrame, bad_frame_reason(r.decode));
    return;  // peer closed, stalled, failed, or the server is tearing down
  }
}

bool SocketServer::handle_frame(const Frame& frame, std::uint64_t client_id,
                                int fd) {
  switch (frame.type) {
    case MsgType::kReqPing: {
      if (!frame.payload.empty())
        return reply_error(fd, ServeError::kBadRequest, "ping carries no payload");
      PongResp pong;
      pong.jobs_completed = core_.jobs_completed();
      pong.draining = core_.draining() ? 1 : 0;
      return reply(fd, MsgType::kRespPong, pong.encode());
    }
    case MsgType::kReqSubmitCircuit:
    case MsgType::kReqSubmitNet: {
      JobSpec spec;
      if (frame.type == MsgType::kReqSubmitCircuit) {
        SubmitCircuitReq req;
        if (!req.decode(frame.payload))
          return reply_error(fd, ServeError::kBadRequest,
                             "malformed submit_circuit payload");
        spec.kind = JobSpec::Kind::kCircuit;
        spec.flow = req.flow;
        spec.gates = req.gates;
        spec.seed = req.seed;
        spec.deadline_ms = req.deadline_ms;
      } else {
        SubmitNetReq req;
        if (!req.decode(frame.payload))
          return reply_error(fd, ServeError::kBadRequest,
                             "malformed submit_net payload");
        spec.kind = JobSpec::Kind::kNet;
        spec.flow = req.flow;
        spec.net_text = std::move(req.net_text);
        spec.deadline_ms = req.deadline_ms;
      }
      const SubmitOutcome admitted = core_.submit(client_id, std::move(spec));
      if (!admitted.accepted)
        return reply_error(fd, admitted.error,
                           serve_error_name(admitted.error),
                           admitted.retry_after_ms);
      // Synchronous protocol: the submitting connection blocks until its
      // job retires (concurrency = multiple connections).
      const std::shared_ptr<const JobOutcome> oc = core_.wait(admitted.job_id);
      if (oc == nullptr)
        return reply_error(fd, ServeError::kInternal, "job record vanished");
      if (oc->deadline_expired)
        return reply_error(fd, ServeError::kDeadline, oc->error);
      ResultResp resp;
      resp.job_id = admitted.job_id;
      resp.ok = oc->ok ? 1 : 0;
      resp.delay_ps = oc->delay_ps;
      resp.area = oc->area;
      resp.buffers = oc->buffers;
      resp.nets = oc->nets;
      resp.digest = oc->digest;
      resp.queue_ms = oc->queue_ms;
      resp.wall_ms = oc->wall_ms;
      resp.error = oc->error;
      return reply(fd, MsgType::kRespResult, resp.encode());
    }
    case MsgType::kReqStatus: {
      JobReq req;
      if (!req.decode(frame.payload))
        return reply_error(fd, ServeError::kBadRequest, "malformed status payload");
      std::uint64_t position = 0;
      const JobState st = core_.status(req.job_id, position);
      if (st == JobState::kUnknown)
        return reply_error(fd, ServeError::kUnknownJob,
                           "job " + std::to_string(req.job_id) + " never admitted");
      StatusResp resp;
      resp.job_id = req.job_id;
      resp.state = static_cast<std::uint8_t>(st);
      resp.position = position;
      return reply(fd, MsgType::kRespStatus, resp.encode());
    }
    case MsgType::kReqStats: {
      JobReq req;
      if (!req.decode(frame.payload))
        return reply_error(fd, ServeError::kBadRequest, "malformed stats payload");
      const auto json = core_.stats_json(req.job_id);
      if (!json)
        return reply_error(fd, ServeError::kUnknownJob,
                           "job " + std::to_string(req.job_id) +
                               " unknown or not finished");
      StatsResp resp;
      resp.job_id = req.job_id;
      resp.json = *json;
      return reply(fd, MsgType::kRespStats, resp.encode());
    }
    case MsgType::kReqSnapshot: {
      if (!frame.payload.empty())
        return reply_error(fd, ServeError::kBadRequest,
                           "snapshot carries no payload");
      if (!core_.snapshot_armed())
        return reply_error(fd, ServeError::kNoSnapshot,
                           "daemon has no snapshot path configured");
      std::string err;
      if (!core_.save_snapshot(&err))
        return reply_error(fd, ServeError::kInternal,
                           "snapshot save failed: " + err);
      return reply(fd, MsgType::kRespOk, {});
    }
    case MsgType::kReqMetrics: {
      if (!frame.payload.empty())
        return reply_error(fd, ServeError::kBadRequest,
                           "metrics carries no payload");
      MetricsResp resp;
      resp.json = core_.metrics_json();
      resp.prometheus = core_.metrics_prometheus();
      return reply(fd, MsgType::kRespMetrics, resp.encode());
    }
    case MsgType::kReqDrain: {
      core_.begin_drain();
      return reply(fd, MsgType::kRespOk, {});
    }
    case MsgType::kReqShutdown: {
      // Drain fully BEFORE acknowledging: once the client reads resp.bye,
      // every admitted job has retired and the daemon is about to exit 0.
      core_.begin_drain();
      core_.wait_drained();
      reply(fd, MsgType::kRespBye, {});
      stop_.store(true);
      return false;
    }
    default:
      // A client sending response frames is talking the wrong direction.
      reply_error(fd, ServeError::kBadRequest, "response frame from client");
      return false;
  }
}

}  // namespace merlin
