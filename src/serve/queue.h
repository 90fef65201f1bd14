#pragma once
// Bounded, client-fair admission queue for merlin_d.
//
// Jobs enter per-client FIFO lanes and leave round-robin across the lanes
// (in first-arrival order of the lanes), so one chatty client cannot starve
// the others: with clients A and B enqueued A1 A2 A3 B1, dispatch order is
// A1 B1 A2 A3.  Total occupancy is bounded; a push against a full queue
// fails immediately (the backpressure signal the daemon converts into
// err.queue_full + a retry-after hint).
//
// Thread model: none of its own.  It is a plain data structure; ServerCore
// reads and writes it only under its one mutex, and its scheduler thread
// is the only caller of pop().

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace merlin {

/// What a client asked the daemon to run.  Circuit jobs mirror merlin_cli
/// --circuit; net jobs carry one netfile-text net.
struct JobSpec {
  enum class Kind : std::uint8_t { kCircuit, kNet };
  Kind kind = Kind::kCircuit;
  std::uint8_t flow = 3;
  std::uint64_t gates = 0;   ///< kCircuit
  std::uint64_t seed = 1;    ///< kCircuit
  std::string net_text;      ///< kNet
  /// Whole-request deadline in ms from admission (0 = none).  Checked at
  /// dispatch (expired → the typed err.deadline outcome) and carried into
  /// the job's per-net NetGuard deadline budget when time remains.
  std::uint32_t deadline_ms = 0;
};

/// One admitted job: the spec plus its admission identity.
struct QueuedJob {
  std::uint64_t job_id = 0;
  std::uint64_t client = 0;  ///< submitting connection id
  JobSpec spec;
};

/// See file comment.  Capacity counts queued (not yet dispatched) jobs.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admits a job; false when the queue is at capacity or closed (the
  /// caller replies err.queue_full / err.draining respectively — it knows
  /// which from its own drain flag).
  bool try_push(QueuedJob job);

  /// The next job in round-robin order; std::nullopt when empty.
  std::optional<QueuedJob> pop();

  /// Stops admission (try_push fails from now on) but keeps handing out
  /// queued jobs.
  void close() { closed_ = true; }

  /// 0-based dispatch distance of a queued job (how many pops before it
  /// leaves), simulating the round-robin; std::nullopt when not queued.
  [[nodiscard]] std::optional<std::size_t> position(std::uint64_t job_id) const;

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool closed() const { return closed_; }

  /// Queued jobs currently in `client`'s lane (0 when it has none).  The
  /// overload shedder compares this against its per-client lane cap before
  /// admitting — a cheap read, not a reservation.
  [[nodiscard]] std::size_t lane_depth(std::uint64_t client) const;

 private:
  /// One client's FIFO lane.  Lanes are kept in first-arrival order and
  /// rotate under `cursor_`; empty lanes are reaped on pop.
  struct Lane {
    std::uint64_t client = 0;
    std::deque<QueuedJob> jobs;
  };

  const std::size_t capacity_;
  std::vector<Lane> lanes_;
  std::size_t cursor_ = 0;  ///< lane index the next pop serves
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace merlin
