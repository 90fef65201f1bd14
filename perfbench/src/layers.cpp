// Span self times and the per-layer metric set.

#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

namespace perfbench {

using namespace merlin;

void SpanTimes::add(const SpanTimes& o) {
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    total_ms[i] += o.total_ms[i];
    self_ms[i] += o.self_ms[i];
    count[i] += o.count[i];
  }
  for (std::size_t l = 0; l <= kMaxLayer; ++l)
    layer_self_ms[l] += o.layer_self_ms[l];
}

void SpanTimes::scale(double f) {
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    total_ms[i] *= f;
    self_ms[i] *= f;
  }
  for (double& v : layer_self_ms) v *= f;
}

SpanTimes span_times(const ObsSink& sink) {
  std::map<std::uint32_t, std::vector<SpanRecord>> by_worker;
  for (const SpanRecord& r : sink.spans().snapshot())
    if (!r.instant()) by_worker[r.worker].push_back(r);

  SpanTimes t;
  for (auto& [worker, recs] : by_worker) {
    // Parents first: earlier begin, then longer span, then shallower depth.
    std::sort(recs.begin(), recs.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
                if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
                return a.depth < b.depth;
              });
    std::vector<double> child_ns(recs.size(), 0.0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < recs.size(); ++i) {
      while (!open.empty() && recs[open.back()].end_ns <= recs[i].begin_ns)
        open.pop_back();
      if (!open.empty())
        child_ns[open.back()] +=
            static_cast<double>(recs[i].end_ns - recs[i].begin_ns);
      open.push_back(i);
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      const auto k = static_cast<std::size_t>(r.name);
      const double dur = static_cast<double>(r.end_ns - r.begin_ns);
      const double self = std::max(0.0, dur - child_ns[i]) / 1e6;
      t.total_ms[k] += dur / 1e6;
      t.self_ms[k] += self;
      ++t.count[k];
      if (r.name == SpanName::kBubbleLayer && r.arg <= kMaxLayer)
        t.layer_self_ms[r.arg] += self;
    }
  }
  return t;
}

void report_layers(const LayerInputs& in, Report& rep) {
  const ObsSink& s = *in.sink;
  const SpanTimes& t = in.times;
  const auto c = [&](Counter x) {
    return static_cast<double>(s.counters.get(x));
  };
  const auto g = [&](Gauge x) { return static_cast<double>(s.gauges.get(x)); };

  std::printf("span self times (mean per traced run):\n");
  std::printf("  %-18s %10s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    if (t.count[i] == 0 && t.total_ms[i] == 0.0) continue;
    std::printf("  %-18s %10llu %12.3f %12.3f\n",
                span_name(static_cast<SpanName>(i)),
                static_cast<unsigned long long>(t.count[i]), t.total_ms[i],
                t.self_ms[i]);
  }

  // Per-L table: where the layer DP's time goes, next to the work it did
  // (compare the growth in L with Thm. 6's bound).
  std::printf("per-L layer DP (counts: one traced run; ms: mean per run):\n");
  std::printf("  %3s %10s %12s %12s %12s %14s\n", "L", "calls", "pushed",
              "kept", "self_ms", "ns/pushed");
  const std::vector<LayerStats>& layers = s.layers();
  for (std::size_t l = 2; l <= kMaxLayer; ++l) {
    const LayerStats ls = l < layers.size() ? layers[l] : LayerStats{};
    const double ms = t.layer_self_ms[l];
    std::printf("  %3zu %10llu %12llu %12llu %12.3f %14.1f\n", l,
                static_cast<unsigned long long>(ls.calls),
                static_cast<unsigned long long>(ls.pushed),
                static_cast<unsigned long long>(ls.kept), ms,
                ls.pushed ? ms * 1e6 / static_cast<double>(ls.pushed) : 0.0);
    const std::string k = "bubble.layer.L" + std::to_string(l);
    rep.set(k + "_ms", ms, "ms");
    rep.set(k + "_pushed", static_cast<double>(ls.pushed), "count");
  }

  rep.set("batch.critical_path_ratio", in.critical_path_ratio, "ratio");
  rep.set("batch.parallelism", in.parallelism, "ratio");
  rep.set("batch.reduce_ms", t.total(SpanName::kBatchReduce), "ms");
  rep.set("pool.idle_ms", t.total(SpanName::kPoolIdle), "ms");
  rep.set("pool.steals", in.steals, "count");

  rep.set("merlin.iterations", c(Counter::kMerlinIterations), "count");
  rep.set("merlin.iteration_self_ms", t.self(SpanName::kMerlinIteration), "ms");
  rep.set("merlin.compact_ms", t.total(SpanName::kMerlinCompact), "ms");
  rep.set("bubble.runs", c(Counter::kBubbleRuns), "count");
  rep.set("bubble.layer_calls", c(Counter::kLayerCalls), "count");
  rep.set("bubble.construct_self_ms", t.self(SpanName::kBubbleConstruct), "ms");
  rep.set("bubble.layer_ms", t.total(SpanName::kBubbleLayer), "ms");

  const double pushed = c(Counter::kCurvePointsPushed);
  const double kept = c(Counter::kCurvePointsKept);
  rep.set("kernel.points_pushed", pushed, "count");
  rep.set("kernel.points_kept", kept, "count");
  rep.set("kernel.keep_ratio", pushed > 0 ? kept / pushed : 0.0, "ratio");
  rep.set("kernel.merge_candidates", c(Counter::kMergeCandidates), "count");
  rep.set("kernel.extend_candidates", c(Counter::kExtendCandidates), "count");
  rep.set("kernel.buffer_candidates", c(Counter::kBufferCandidates), "count");
  rep.set("kernel.peak_width", g(Gauge::kCurvePeakWidth), "count");

  const double hits = c(Counter::kGammaCacheHits);
  const double lookups = hits + c(Counter::kGammaCacheMisses);
  rep.set("cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  rep.set("cache.shared_hits", c(Counter::kCacheSharedHits), "count");
  rep.set("cache.staged", c(Counter::kCacheEntriesStaged), "count");
  rep.set("cache.flushed", c(Counter::kCacheEntriesFlushed), "count");
  rep.set("cache.evicted", c(Counter::kCacheEntriesEvicted), "count");
  rep.set("cache.store_nodes", g(Gauge::kCacheStoreNodes), "count");

  rep.set("arena.nodes_allocated", c(Counter::kArenaNodesAllocated), "count");
  rep.set("arena.peak_live_nodes", g(Gauge::kArenaPeakLiveNodes), "count");
  rep.set("arena.nodes_compacted", c(Counter::kArenaNodesCompacted), "count");
}

}  // namespace perfbench
