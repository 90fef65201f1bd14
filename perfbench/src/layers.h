#pragma once
// Per-layer attribution read from an ObsSink from outside the engine: self
// time per span name (span minus its child spans), self time per DP layer L,
// and the per-layer metric set every workload reports in traced runs.

#include <array>
#include <cstdint>
#include <vector>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

/// Largest DP layer reported: the sink count of the biggest net the
/// workloads route (the circuit's 8-sink net).
inline constexpr std::size_t kMaxLayer = 8;

/// Span wall times of one or more traced runs.
struct SpanTimes {
  std::array<double, merlin::kSpanNameCount> total_ms{};
  std::array<double, merlin::kSpanNameCount> self_ms{};
  std::array<std::uint64_t, merlin::kSpanNameCount> count{};
  /// bubble.layer self time by L (index = L), kMaxLayer + 1 slots.
  std::vector<double> layer_self_ms = std::vector<double>(kMaxLayer + 1, 0.0);

  void add(const SpanTimes& o);
  void scale(double f);
  [[nodiscard]] double self(merlin::SpanName n) const {
    return self_ms[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] double total(merlin::SpanName n) const {
    return total_ms[static_cast<std::size_t>(n)];
  }
};

/// Self times from the sink's span ring: spans are grouped per worker and
/// nested by time containment; a span's self time is its duration minus the
/// durations of its direct children.  Instant markers are skipped.
SpanTimes span_times(const merlin::ObsSink& sink);

/// Everything the per-layer metric set is computed from.
struct LayerInputs {
  /// Counters, gauges and per-L stats (one traced run's sink).
  const merlin::ObsSink* sink = nullptr;
  /// Span times, mean per traced run.
  SpanTimes times;
  /// Scheduling facts of the untraced runs (medians).
  double critical_path_ratio = 0.0;
  double parallelism = 0.0;
  double steals = 0.0;
};

/// Prints the span and per-L tables and fills every flow/runtime/core/curve/
/// cache/arena per-layer metric of `rep` (probe and serve metrics are set by
/// their own code).
void report_layers(const LayerInputs& in, Report& rep);

}  // namespace perfbench
