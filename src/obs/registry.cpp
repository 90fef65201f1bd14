#include "obs/registry.h"

namespace merlin {
namespace {

std::uint64_t to_us(double ms) {
  if (!(ms > 0.0)) return 0;
  return static_cast<std::uint64_t>(ms * 1000.0);
}

}  // namespace

void MetricsRegistry::note_job(const ObsSink& sink, double queue_ms,
                               double run_ms, double e2e_ms,
                               std::uint64_t queue_depth) {
  std::lock_guard<std::mutex> lk(mu_);
  ++jobs_;
  counters_.merge(sink.counters);
  gauges_.merge(sink.gauges);
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    const SpanTotal& t = sink.span_totals()[i];
    spans_[i].count += t.count;
    spans_[i].total_ns += t.total_ns;
    // One sample per job and name: the job's total time under that name.
    if (t.count != 0) span_us_[i].record(t.total_ns / 1000);
  }
  using H = LifetimeHist;
  hist_[static_cast<std::size_t>(H::kQueueUs)].record(to_us(queue_ms));
  hist_[static_cast<std::size_t>(H::kRunUs)].record(to_us(run_ms));
  hist_[static_cast<std::size_t>(H::kE2eUs)].record(to_us(e2e_ms));
  auto& buffers = hist_[static_cast<std::size_t>(H::kNetBuffers)];
  auto& width = hist_[static_cast<std::size_t>(H::kNetCurveWidth)];
  for (const TraceRecord& t : sink.traces()) {
    buffers.record(static_cast<std::uint64_t>(t.buffers));
    width.record(t.peak_curve_width);
  }
  ++win_jobs_;
  roll_locked(obs_now_ns(), queue_depth);
}

void MetricsRegistry::note_shed() {
  std::lock_guard<std::mutex> lk(mu_);
  ++win_shed_;
}

void MetricsRegistry::roll_locked(std::uint64_t now_ns,
                                  std::uint64_t queue_depth) {
  if (window_start_ns_ == 0) {
    window_start_ns_ = now_ns;
    return;
  }
  const std::uint64_t len_ns = std::uint64_t{window_s_} * 1'000'000'000ull;
  if (now_ns - window_start_ns_ < len_ns) return;
  WindowSample s;
  s.jobs = win_jobs_;
  s.shed = win_shed_;
  s.queue_depth = queue_depth;
  const double elapsed_s =
      static_cast<double>(now_ns - window_start_ns_) / 1e9;
  s.req_s = elapsed_s > 0.0 ? static_cast<double>(win_jobs_) / elapsed_s : 0.0;
  windows_.push_back(s);
  if (windows_.size() > window_cap_)
    windows_.erase(windows_.begin(),
                   windows_.begin() +
                       static_cast<std::ptrdiff_t>(windows_.size() - window_cap_));
  win_jobs_ = 0;
  win_shed_ = 0;
  window_start_ns_ = now_ns;
}

LifetimeSnapshot MetricsRegistry::snapshot() const {
  LifetimeSnapshot out;
  std::lock_guard<std::mutex> lk(mu_);
  out.enabled = 1;
  out.jobs = jobs_;
  out.counters = counters_;
  out.gauges = gauges_;
  out.spans = spans_;
  out.hist = hist_;
  out.span_us = span_us_;
  out.window_s = window_s_;
  out.windows = windows_;
  return out;
}

}  // namespace merlin
