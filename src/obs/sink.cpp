#include "obs/sink.h"

namespace merlin {

void ObsSink::merge_from(const ObsSink& o) {
  counters.merge(o.counters);
  gauges.merge(o.gauges);
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    span_totals_[i].count += o.span_totals_[i].count;
    span_totals_[i].total_ns += o.span_totals_[i].total_ns;
  }
  if (o.layers_.size() > layers_.size()) layers_.resize(o.layers_.size());
  for (std::size_t i = 0; i < o.layers_.size(); ++i) {
    layers_[i].calls += o.layers_[i].calls;
    layers_[i].pushed += o.layers_[i].pushed;
    layers_[i].pruned += o.layers_[i].pruned;
    layers_[i].kept += o.layers_[i].kept;
  }
  for (const TraceRecord& t : o.traces_) {
    if (traces_.size() >= trace_capacity_) break;
    traces_.push_back(t);
  }
  // Ring records append in the other ring's push order (the rollup above
  // already counts them); once this ring is full the oldest roll off.
  // BatchRunner pre-sorts across workers instead of merging rings directly,
  // so aggregate span order never depends on the worker merge order.
  for (const SpanRecord& r : o.spans_.snapshot()) spans_.push(r);
}

void ObsSink::clear() {
  counters = Counters{};
  gauges = Gauges{};
  span_totals_ = {};
  layers_.clear();
  traces_.clear();
  net_peak_curve_width_ = 0;
  spans_.clear();
  span_net_ = kNoTraceNet;
  span_seq_ = 0;
  span_depth_ = 0;
}

}  // namespace merlin
