#pragma once
// Span tracer — the timeline layer of the observability subsystem.
//
// A SpanRecord is one timed interval of engine work (a MERLIN iteration, one
// BUBBLE_CONSTRUCT DP layer, a *PTREE run, a batch net task, a pool idle
// gap).  Spans are recorded through the RAII TraceSpan guard (obs/sink.h)
// into the owning worker's ObsSink — the same one-sink-per-worker ownership
// discipline the counters follow — and merged serially after the pool
// drains, sorted by (net id, per-net sequence) so the merged order is a pure
// function of the workload, not of scheduling.
//
// Determinism contract (mirrors counters/gauges): the *structure* of the
// net-attributed spans — names, nesting depths, per-net sequence and count,
// args — is identical across thread counts and repeated runs.  Timestamps
// are steady-clock and therefore quarantined (exported only on the Perfetto
// timeline and in the non-deterministic `runtime` stats section), and
// scheduling spans (net_id == kNoTraceNet: pool idle/steal, batch reduce)
// are excluded from structural comparisons by construction.
//
// Every closed span also adds to its sink's fixed per-name rollup
// (SpanTotal: count and total wall time), armed ring or not, so the stats
// export's per-name span totals exist for every run with a sink attached
// and survive ring overwrites.  The ring itself — the timeline — records
// only when armed.
//
// Storage is a fixed-capacity ring: when full, the OLDEST span is
// overwritten (and `dropped()` counts it).  Within one net the drop order is
// deterministic — spans close in DP order — but which nets share a worker's
// ring is scheduling; the batch engine therefore sizes worker rings to the
// aggregate capacity and callers who want loss-free traces size the
// capacity to the workload (docs/OBSERVABILITY.md, "Tracing").

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace merlin {

class ObsSink;

/// Every span the engines emit.  Names are dotted `subsystem.what` — the
/// vocabulary is documented (with paper anchors) in docs/OBSERVABILITY.md's
/// span table, which tests/test_docs.cpp checks against span_name().
enum class SpanName : std::uint8_t {
  kBatchNet,         ///< one batch task: a net end-to-end (arg = fanout)
  kBatchReduce,      ///< post-drain serial merge of the worker sinks
  kFlowGrouping,     ///< Flow I phase 1: LTTREE fanout optimization
  kFlowRouting,      ///< Flow I phase 2 / Flow II phase 1: PTREE embedding
  kFlowBuffering,    ///< Flow II phase 2: van Ginneken insertion
  kFlowSearch,       ///< Flow III: the MERLIN outer search
  kMerlinIteration,  ///< one Figure-14 outer-loop body (arg = iteration)
  kMerlinCompact,    ///< arena mark-compact between iterations
  kBubbleConstruct,  ///< one BUBBLE_CONSTRUCT (Figure 9)
  kBubbleLayer,      ///< one L of the layer DP, L = 2..n (arg = L)
  kPtreeDp,          ///< one ptree_route
  kLttreeDp,         ///< one lttree_optimize
  kVanginDp,         ///< one vangin_insert
  kPoolIdle,         ///< worker idle gap before picking up a task
  kPoolSteal,        ///< instant: the next task was stolen (FIFO victim)
  kServeQueue,       ///< daemon job admission→dispatch wait (arg = job id)
  kServeRequest,     ///< daemon job dispatch→completion (arg = job id)
  kCount,
};
inline constexpr std::size_t kSpanNameCount =
    static_cast<std::size_t>(SpanName::kCount);

[[nodiscard]] constexpr const char* span_name(SpanName s) {
  switch (s) {
    case SpanName::kBatchNet: return "batch.net";
    case SpanName::kBatchReduce: return "batch.reduce";
    case SpanName::kFlowGrouping: return "flow.grouping";
    case SpanName::kFlowRouting: return "flow.routing";
    case SpanName::kFlowBuffering: return "flow.buffering";
    case SpanName::kFlowSearch: return "flow.search";
    case SpanName::kMerlinIteration: return "merlin.iteration";
    case SpanName::kMerlinCompact: return "merlin.compact";
    case SpanName::kBubbleConstruct: return "bubble.construct";
    case SpanName::kBubbleLayer: return "bubble.layer";
    case SpanName::kPtreeDp: return "ptree.dp";
    case SpanName::kLttreeDp: return "lttree.dp";
    case SpanName::kVanginDp: return "vangin.dp";
    case SpanName::kPoolIdle: return "pool.idle";
    case SpanName::kPoolSteal: return "pool.steal";
    case SpanName::kServeQueue: return "serve.queue";
    case SpanName::kServeRequest: return "serve.request";
    case SpanName::kCount: break;
  }
  return "unknown";
}

/// Net id of spans not attributable to a net (pool scheduling, batch merge).
inline constexpr std::uint32_t kNoTraceNet = 0xFFFFFFFFu;

/// One closed span.  begin/end are steady-clock nanoseconds (monotonic,
/// shared epoch with the pool's timestamps); (net_id, seq, name, depth, arg)
/// are the deterministic structure.
struct SpanRecord {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;             ///< name-specific detail (layer L, ...)
  std::uint32_t net_id = kNoTraceNet;
  std::uint32_t seq = 0;             ///< close order within the net
  std::uint32_t worker = 0;          ///< owning worker = Perfetto track
  std::uint16_t depth = 0;           ///< nesting depth at open
  SpanName name = SpanName::kBatchNet;

  /// Zero-duration marker (exported as a Perfetto instant event).
  [[nodiscard]] bool instant() const { return begin_ns == end_ns; }
  /// Scheduling span: excluded from structural determinism comparisons.
  [[nodiscard]] bool scheduling() const { return net_id == kNoTraceNet; }
};

/// Fixed-capacity span storage.  Capacity 0 (the default) means the
/// timeline is disarmed and push() is a no-op; the sink's per-name rollup
/// still counts every span.  At capacity the oldest record is overwritten,
/// tallied by dropped().
class SpanRing {
 public:
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] bool armed() const { return cap_ > 0; }

  /// Resizing clears: a ring's records are only meaningful under one cap.
  void set_capacity(std::size_t cap) {
    cap_ = cap;
    clear();
  }

  void push(const SpanRecord& r) {
    if (cap_ == 0) return;
    if (buf_.size() < cap_) {
      buf_.push_back(r);
      return;
    }
    buf_[head_] = r;
    head_ = (head_ + 1) % cap_;
    ++dropped_;
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  /// Records in push order (oldest first), unwrapping the ring.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

 private:
  std::vector<SpanRecord> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  ///< overwrite cursor == index of the oldest record
  std::uint64_t dropped_ = 0;
};

/// One span name's running total: spans closed and their summed wall time.
/// A sink keeps one per SpanName; merge_from adds them.
struct SpanTotal {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  friend bool operator==(const SpanTotal&, const SpanTotal&) = default;
};
using SpanRollup = std::array<SpanTotal, kSpanNameCount>;

/// A sink's span rollup as rows, for the stats JSON `runtime` section (wall
/// times: non-deterministic by nature).  Ascending enum order, names with
/// zero spans omitted.
struct SpanSummary {
  SpanName name = SpanName::kBatchNet;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};
[[nodiscard]] std::vector<SpanSummary> summarize_spans(const ObsSink& sink);

/// Render the sink's span ring as a Chrome trace-event JSON document
/// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
/// — loadable in Perfetto and chrome://tracing).  One thread track per
/// worker, "X" complete events for spans, "i" instant events for markers;
/// timestamps are normalized to the earliest span.  Valid JSON even when
/// the ring is empty.
[[nodiscard]] std::string trace_to_json(const ObsSink& sink);

}  // namespace merlin
