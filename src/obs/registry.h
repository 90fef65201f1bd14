#pragma once
// MetricsRegistry — process-lifetime telemetry for merlin_d.
//
// The obs layer's ObsSink is request-scoped: every counter dies with its
// job.  The registry is the daemon-scoped accumulator behind it — after
// each job's per-worker sinks are merged (the existing deterministic-merge
// discipline), the scheduler folds the job's aggregate sink in here, so
// counters sum, gauges maximize and span rollups add across the daemon's
// whole lifetime exactly as they do across workers within one job.
//
// On top of the banks it keeps two families of LatencyHistogram:
//   - wall-clock stage histograms (queue wait, guard-budgeted run,
//     end-to-end) and per-span-name histograms — serving facts,
//     quarantined from identity comparisons like the `runtime` section;
//   - deterministic per-net histograms fed from TraceRecord fields that
//     are scheduling-independent (buffers per net, peak curve width per
//     net) — these merge to bit-identical quantiles across thread counts
//     (tests/test_registry.cpp proves it).
// Canonical names come from lifetime_hist_name() below; the table in
// docs/OBSERVABILITY.md must match (tests/test_docs.cpp).
//
// It also keeps a small ring of per-interval window samples (jobs
// completed, req/s, queue depth at roll, shed count) so the overload
// EWMA's behaviour has a visible history.  Windows roll lazily on job
// completion, so an idle daemon's last window simply stays open; each
// sample's req_s is computed over the window's true elapsed time.
//
// Thread discipline: note_job() is called by the single scheduler thread;
// note_shed() by connection threads; snapshot() by any thread.  All state
// is guarded by one mutex — the hot path locks once per *job* (not per
// recorded value; the per-value hot path is LatencyHistogram::record,
// which is lock-free single-writer).

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/hist.h"
#include "obs/sink.h"

namespace merlin {

/// The registry's named histogram bank.  The first three are wall-clock
/// stage latencies in microseconds; the last two are deterministic per-net
/// facts (dimensionless counts).
enum class LifetimeHist : std::uint16_t {
  kQueueUs,        ///< admission-queue wait per job
  kRunUs,          ///< guard-budgeted batch run per job
  kE2eUs,          ///< admission to completion per job
  kNetBuffers,     ///< buffers in each routed net's final tree (deterministic)
  kNetCurveWidth,  ///< peak curve width per routed net (deterministic)
  kCount,
};

inline constexpr std::size_t kLifetimeHistCount =
    static_cast<std::size_t>(LifetimeHist::kCount);

/// Canonical snake_case name (JSON key / docs anchor) of each histogram.
[[nodiscard]] constexpr const char* lifetime_hist_name(LifetimeHist h) {
  switch (h) {
    case LifetimeHist::kQueueUs: return "queue_us";
    case LifetimeHist::kRunUs: return "run_us";
    case LifetimeHist::kE2eUs: return "e2e_us";
    case LifetimeHist::kNetBuffers: return "net_buffers";
    case LifetimeHist::kNetCurveWidth: return "net_curve_width";
    case LifetimeHist::kCount: break;
  }
  return "unknown_hist";
}

/// True for the histograms whose merged quantiles are thread-count
/// invariant (fed from deterministic TraceRecord fields, never a clock).
[[nodiscard]] constexpr bool lifetime_hist_deterministic(LifetimeHist h) {
  return h == LifetimeHist::kNetBuffers || h == LifetimeHist::kNetCurveWidth;
}

/// One closed telemetry window.
struct WindowSample {
  std::uint64_t jobs = 0;         ///< jobs completed in the window
  std::uint64_t shed = 0;         ///< overload rejections in the window
  std::uint64_t queue_depth = 0;  ///< admission-queue depth when it closed
  double req_s = 0.0;             ///< jobs / window elapsed seconds
  friend bool operator==(const WindowSample&, const WindowSample&) = default;
};

/// A point-in-time copy of the registry (what the exposition layer
/// renders).  enabled is 0 for one-shot runs, which have no registry.
struct LifetimeSnapshot {
  std::uint8_t enabled = 0;
  std::uint64_t jobs = 0;  ///< jobs folded in via note_job()
  Counters counters;
  Gauges gauges;
  SpanRollup spans{};  ///< summed span rollups of every job
  std::array<LatencyHistogram, kLifetimeHistCount> hist;
  /// Per-span-name histograms: each job's total time under that name, in
  /// us (one sample per job that closed such a span).
  std::array<LatencyHistogram, kSpanNameCount> span_us;
  std::uint32_t window_s = 0;
  std::vector<WindowSample> windows;  ///< oldest first, at most the ring cap
};

class MetricsRegistry {
 public:
  static constexpr std::uint32_t kDefaultWindowSeconds = 10;
  static constexpr std::size_t kDefaultWindowCapacity = 32;

  explicit MetricsRegistry(std::uint32_t window_s = kDefaultWindowSeconds,
                           std::size_t window_capacity = kDefaultWindowCapacity)
      : window_s_(window_s ? window_s : 1), window_cap_(window_capacity) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Fold one completed job in: its merged sink (counters/gauges/spans,
  /// deterministic per-net histograms from the trace rows) plus its stage
  /// wall times.  Deadline-expired jobs pass run_ms 0.
  void note_job(const ObsSink& sink, double queue_ms, double run_ms,
                double e2e_ms, std::uint64_t queue_depth);

  /// Count an overload rejection into the open window.
  void note_shed();

  [[nodiscard]] LifetimeSnapshot snapshot() const;

 private:
  void roll_locked(std::uint64_t now_ns, std::uint64_t queue_depth);

  mutable std::mutex mu_;
  std::uint32_t window_s_;
  std::size_t window_cap_;
  std::uint64_t jobs_ = 0;
  Counters counters_;
  Gauges gauges_;
  SpanRollup spans_{};
  std::array<LatencyHistogram, kLifetimeHistCount> hist_;
  std::array<LatencyHistogram, kSpanNameCount> span_us_;
  // Open window + closed ring.
  std::uint64_t window_start_ns_ = 0;
  std::uint64_t win_jobs_ = 0;
  std::uint64_t win_shed_ = 0;
  std::vector<WindowSample> windows_;
};

}  // namespace merlin
