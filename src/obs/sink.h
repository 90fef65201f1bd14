#pragma once
// ObsSink — the per-Workspace collection point of the observability layer.
//
// Ownership rule: one ObsSink per worker (the batch engine allocates one per
// pool worker, exactly like its per-worker CacheSession and SolutionArena) or
// one per single-threaded engine run.  A sink is deliberately NOT
// thread-safe — it must never be shared across pool workers; per-worker
// sinks are merged serially after the pool drains (merge_from), which keeps
// the aggregate deterministic.
//
// Every recording entry point is null-safe (`obs_add(nullptr, ...)` is a
// no-op): with no sink attached a site costs one pointer test, so engine
// code carries no #ifdefs.

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "runtime/guard.h"

namespace merlin {

/// One per-net observation row, collected by BatchRunner.
/// All fields except wall_us are deterministic (scheduling-independent);
/// differential tests compare everything but wall_us.
struct TraceRecord {
  std::size_t net_id = 0;
  std::size_t sinks = 0;            ///< fanout of the net
  std::uint64_t wall_us = 0;        ///< per-net wall time (NOT deterministic)
  std::uint64_t peak_curve_width = 0;  ///< most candidates one prune of this net was offered
  std::size_t merlin_loops = 0;     ///< outer-loop iterations (0 for flows I/II)
  std::size_t buffers = 0;          ///< buffers in the final tree
  NetStatus status = NetStatus::kOk;  ///< batch outcome (docs/ROBUSTNESS.md)
};

/// Per-DP-layer pruning statistics (BUBBLE_CONSTRUCT's L = 2..n loop).
/// Index 0 is layer 0 (unused); the vector grows on demand.
struct LayerStats {
  std::uint64_t calls = 0;   ///< (L, E, R) group prunes at this layer
  std::uint64_t pushed = 0;  ///< points entering the layer's prunes
  std::uint64_t pruned = 0;  ///< points killed
  std::uint64_t kept = 0;    ///< points surviving
  friend bool operator==(const LayerStats&, const LayerStats&) = default;
};

class ObsSink {
 public:
  /// Maximum trace rows retained (oldest-first truncation on merge;
  /// per-sink recording stops at capacity).
  static constexpr std::size_t kDefaultTraceCapacity = 65536;
  /// Span-ring capacity a caller who wants a timeline typically arms
  /// (merlin_cli --trace-out uses it).  The default capacity is 0: the
  /// timeline is opt-in per sink, while the per-name span rollup is always
  /// kept.
  static constexpr std::size_t kDefaultSpanCapacity = std::size_t{1} << 20;

  Counters counters;
  Gauges gauges;

  // -- counters / gauges ----------------------------------------------------
  void add(Counter c, std::uint64_t n = 1) { counters.add(c, n); }
  void maximize(Gauge g, std::uint64_t x) {
    gauges.maximize(g, x);
    if (g == Gauge::kCurvePeakWidth && x > net_peak_curve_width_)
      net_peak_curve_width_ = x;
  }

  // -- per-layer pruning ----------------------------------------------------
  void record_layer(std::size_t layer, std::uint64_t pushed,
                    std::uint64_t pruned, std::uint64_t kept) {
    if (layer >= layers_.size()) layers_.resize(layer + 1);
    LayerStats& s = layers_[layer];
    ++s.calls;
    s.pushed += pushed;
    s.pruned += pruned;
    s.kept += kept;
  }
  [[nodiscard]] const std::vector<LayerStats>& layers() const { return layers_; }

  // -- per-net traces -------------------------------------------------------
  /// Reset the net-scoped window (peak-width gauge, span attribution and
  /// sequence) before routing a net.  The id attributes subsequent spans;
  /// callers without a net identity (single-engine unit runs) may omit it,
  /// leaving spans marked as scheduling records.
  void begin_net(std::uint32_t net_id = kNoTraceNet) {
    net_peak_curve_width_ = 0;
    span_net_ = net_id;
    span_seq_ = 0;
  }
  /// Peak curve width observed since the last begin_net().
  [[nodiscard]] std::uint64_t net_peak_curve_width() const {
    return net_peak_curve_width_;
  }
  void record_trace(const TraceRecord& t) {
    if (traces_.size() < trace_capacity_) traces_.push_back(t);
  }
  [[nodiscard]] const std::vector<TraceRecord>& traces() const { return traces_; }
  [[nodiscard]] std::vector<TraceRecord>& traces() { return traces_; }
  void set_trace_capacity(std::size_t cap) { trace_capacity_ = cap; }
  [[nodiscard]] std::size_t trace_capacity() const { return trace_capacity_; }

  // -- spans: per-name rollup + timeline ring -------------------------------
  /// Arms (cap > 0) or disarms (cap == 0, the default) the timeline ring.
  /// Resizing clears the ring; the rollup is unaffected.
  void set_span_capacity(std::size_t cap) { spans_.set_capacity(cap); }
  [[nodiscard]] std::size_t span_capacity() const { return spans_.capacity(); }
  /// Whether closed spans are also kept as timeline records.
  [[nodiscard]] bool spans_armed() const { return spans_.armed(); }
  [[nodiscard]] const SpanRing& spans() const { return spans_; }
  /// Empties the ring only; the rollup keeps every span ever closed.
  void clear_spans() { spans_.clear(); }
  /// Per-name count and total wall time of every span closed into this
  /// sink, indexed by SpanName — complete even when the ring overwrote.
  [[nodiscard]] const SpanRollup& span_totals() const { return span_totals_; }
  [[nodiscard]] const SpanTotal& span_total(SpanName n) const {
    return span_totals_[static_cast<std::size_t>(n)];
  }

  /// Worker identity stamped on every recorded span (one Perfetto track per
  /// worker).  The batch engine sets it when it deals out per-worker sinks.
  void set_worker(std::uint32_t w) { worker_ = w; }
  [[nodiscard]] std::uint32_t worker() const { return worker_; }

  /// A span closed outside a TraceSpan guard (the pool's scheduling
  /// callbacks, the daemon's queue/request spans), fully formed: adds to
  /// the rollup and, when armed, to the ring.
  void record_span(const SpanRecord& r) {
    SpanTotal& t = span_totals_[static_cast<std::size_t>(r.name)];
    ++t.count;
    t.total_ns += r.end_ns - r.begin_ns;
    spans_.push(r);
  }
  /// Ring-only append for a record whose rollup another sink already
  /// carries (the batch engine's sorted re-push after merge_from).
  void append_span(const SpanRecord& r) { spans_.push(r); }

  /// TraceSpan protocol: open returns the guard's nesting depth; close
  /// stamps net attribution, per-net sequence and worker id, then records.
  /// Balanced by RAII even when exceptions unwind through a span.
  [[nodiscard]] std::uint16_t span_open() { return span_depth_++; }
  void span_close(SpanName name, std::uint16_t depth, std::uint64_t arg,
                  std::uint64_t begin_ns, std::uint64_t end_ns) {
    span_depth_ = depth;
    SpanRecord r;
    r.begin_ns = begin_ns;
    r.end_ns = end_ns;
    r.arg = arg;
    r.net_id = span_net_;
    r.seq = span_seq_++;
    r.worker = worker_;
    r.depth = depth;
    r.name = name;
    record_span(r);
  }

  // -- lifecycle ------------------------------------------------------------
  /// Fold another sink into this one: counters sum, gauges max, span
  /// rollups sum, layers add elementwise, traces and ring records append
  /// (capacity-capped).
  /// Serial use only — the caller sequences merges (BatchRunner merges
  /// worker sinks in worker order after wait_idle()).
  ///
  /// Order independence: counters, gauges, span rollups and layer sums
  /// commute, so merging any permutation of worker sinks yields identical
  /// aggregates (tests/test_obs.cpp permutes to prove it).  The appended
  /// trace/span sequences are order-sensitive, which is why BatchRunner
  /// gathers and re-sorts them by net id before they reach the aggregate.
  void merge_from(const ObsSink& o);
  void clear();

 private:
  SpanRollup span_totals_{};
  std::vector<LayerStats> layers_;
  std::vector<TraceRecord> traces_;
  std::size_t trace_capacity_ = kDefaultTraceCapacity;
  std::uint64_t net_peak_curve_width_ = 0;
  SpanRing spans_;
  std::uint32_t worker_ = 0;
  std::uint32_t span_net_ = kNoTraceNet;
  std::uint32_t span_seq_ = 0;
  std::uint16_t span_depth_ = 0;
};

// -- null-safe recording helpers (the only API engine code uses) ------------

inline void obs_add(ObsSink* s, Counter c, std::uint64_t n = 1) {
  if (s) s->add(c, n);
}

inline void obs_gauge(ObsSink* s, Gauge g, std::uint64_t x) {
  if (s) s->maximize(g, x);
}

inline void obs_layer(ObsSink* s, std::size_t layer, std::uint64_t pushed,
                      std::uint64_t pruned, std::uint64_t kept) {
  if (s) s->record_layer(layer, pushed, pruned, kept);
}

/// Steady-clock nanoseconds; the common epoch of every span timestamp
/// (including the pool's scheduling callbacks, which use the same clock).
inline std::uint64_t obs_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII span guard — the layer's only timer: opens a span on construction,
/// closes it on destruction into the sink's per-name rollup and, when the
/// ring is armed, its timeline.  A null sink costs one branch and no clock
/// reads.  `arg` carries the name-specific detail (DP layer L, iteration
/// index, net fanout; see SpanName).
class TraceSpan {
 public:
  explicit TraceSpan(ObsSink* sink, SpanName name, std::uint64_t arg = 0) {
    if (sink != nullptr) {
      sink_ = sink;
      name_ = name;
      arg_ = arg;
      depth_ = sink->span_open();
      begin_ns_ = obs_now_ns();
    }
  }
  ~TraceSpan() {
    if (sink_ != nullptr)
      sink_->span_close(name_, depth_, arg_, begin_ns_, obs_now_ns());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  ObsSink* sink_ = nullptr;
  std::uint64_t arg_ = 0;
  std::uint64_t begin_ns_ = 0;
  std::uint16_t depth_ = 0;
  SpanName name_ = SpanName::kBatchNet;
};

}  // namespace merlin
