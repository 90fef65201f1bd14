// The observability layer's contracts: counters are monotone and engine
// recording is purely additive (attaching a sink never changes results);
// batch aggregation is scheduling-independent (counters, gauges, and trace
// rows — minus wall times — identical across thread counts); the JSON
// export round-trips through the bundled parser; and the span rollup counts
// every closed span, armed ring or not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/flows.h"
#include "net/generator.h"
#include "obs/json.h"
#include "obs/sink.h"

namespace merlin {
namespace {

FlowConfig fast_cfg() {
  FlowConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 1.5;
  cfg.candidates.max_candidates = 12;
  cfg.merlin.bubble.alpha = 3;
  cfg.merlin.bubble.inner_prune.max_solutions = 3;
  cfg.merlin.bubble.group_prune.max_solutions = 4;
  cfg.merlin.bubble.buffer_stride = 4;
  cfg.merlin.max_iterations = 2;
  cfg.engine_prune.max_solutions = 4;
  return cfg;
}

Net test_net(std::size_t n, std::uint64_t seed) {
  NetSpec spec;
  spec.n_sinks = n;
  spec.seed = seed;
  return make_random_net(spec, make_standard_library());
}

Circuit test_circuit(std::uint64_t seed) {
  CircuitSpec spec;
  spec.name = "obs" + std::to_string(seed);
  spec.n_gates = 20;
  spec.n_primary_inputs = 4;
  spec.max_fanout = 7;
  spec.seed = seed;
  return make_random_circuit(spec, make_standard_library());
}

BatchResult run_batch(const Circuit& ckt, const BufferLibrary& lib,
                      std::size_t threads, ObsSink* sink) {
  BatchOptions opts;
  opts.threads = threads;
  opts.flow = FlowKind::kFlow3;
  opts.scaled_config = false;
  opts.config = fast_cfg();
  opts.obs = sink;
  return BatchRunner(lib, opts).run(ckt);
}

TEST(Counters, AddAndMergeAreElementwiseSums) {
  Counters a, b;
  a.add(Counter::kCurvePointsPushed, 5);
  a.add(Counter::kCurvePointsPushed, 2);
  a.add(Counter::kGammaCacheHits);
  b.add(Counter::kCurvePointsPushed, 3);
  b.add(Counter::kBuffersInserted, 4);
  a.merge(b);
  EXPECT_EQ(a.get(Counter::kCurvePointsPushed), 10u);
  EXPECT_EQ(a.get(Counter::kGammaCacheHits), 1u);
  EXPECT_EQ(a.get(Counter::kBuffersInserted), 4u);
}

TEST(Gauges, MaximizeAndMergeKeepHighWater) {
  Gauges a, b;
  a.maximize(Gauge::kCurvePeakWidth, 7);
  a.maximize(Gauge::kCurvePeakWidth, 3);  // lower: no effect
  b.maximize(Gauge::kCurvePeakWidth, 11);
  b.maximize(Gauge::kArenaPeakBytes, 100);
  a.merge(b);
  EXPECT_EQ(a.get(Gauge::kCurvePeakWidth), 11u);
  EXPECT_EQ(a.get(Gauge::kArenaPeakBytes), 100u);
}

TEST(Names, EveryEnumeratorHasAUniqueSnakeCaseName) {
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < kCounterCount; ++i)
    seen.emplace_back(counter_name(static_cast<Counter>(i)));
  for (std::size_t i = 0; i < kGaugeCount; ++i)
    seen.emplace_back(gauge_name(static_cast<Gauge>(i)));
  for (const std::string& n : seen) {
    EXPECT_FALSE(n.empty());
    for (char c : n)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')
          << n;
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "duplicate observable name";
}

TEST(NullSink, HelpersAcceptNullAndFlowsRunWithoutASink) {
  obs_add(nullptr, Counter::kCurvePointsPushed, 3);
  obs_gauge(nullptr, Gauge::kCurvePeakWidth, 9);
  obs_layer(nullptr, 2, 10, 4, 6);
  const BufferLibrary lib = make_standard_library();
  const Net net = test_net(5, 3);
  const FlowResult r = run_flow3(net, lib, fast_cfg());  // cfg.obs == nullptr
  EXPECT_GT(r.eval.table_delay(net), 0.0);
}

TEST(NullSink, AttachingASinkDoesNotChangeResults) {
  // Observability is read-only: the runs of the same net with and without
  // a sink attached must be bit-identical.
  const BufferLibrary lib = make_standard_library();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Net net = test_net(6 + seed, seed);
    FlowConfig plain = fast_cfg();
    FlowConfig observed = fast_cfg();
    ObsSink sink;
    observed.obs = &sink;
    for (int flow = 1; flow <= 3; ++flow) {
      FlowResult a, b;
      switch (flow) {
        case 1: a = run_flow1(net, lib, plain); b = run_flow1(net, lib, observed); break;
        case 2: a = run_flow2(net, lib, plain); b = run_flow2(net, lib, observed); break;
        default: a = run_flow3(net, lib, plain); b = run_flow3(net, lib, observed); break;
      }
      EXPECT_TRUE(flow_results_identical(a, b)) << "flow " << flow;
    }
  }
}

TEST(Recording, CountersAreMonotoneAcrossRuns) {
  const BufferLibrary lib = make_standard_library();
  ObsSink sink;
  FlowConfig cfg = fast_cfg();
  cfg.obs = &sink;
  Counters prev;  // all zero
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_flow3(test_net(6, seed), lib, cfg);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const auto c = static_cast<Counter>(i);
      EXPECT_GE(sink.counters.get(c), prev.get(c)) << counter_name(c);
    }
    prev = sink.counters;
  }
  EXPECT_GT(sink.counters.get(Counter::kCurvePointsPushed), 0u);
  EXPECT_GT(sink.counters.get(Counter::kBubbleRuns), 0u);
  EXPECT_GT(sink.span_total(SpanName::kBubbleConstruct).count, 0u);
}

TEST(Recording, CurveAccountingBalances) {
  const BufferLibrary lib = make_standard_library();
  ObsSink sink;
  FlowConfig cfg = fast_cfg();
  cfg.obs = &sink;
  run_flow3(test_net(8, 11), lib, cfg);
  const Counters& c = sink.counters;
  // Every point entering a prune either survives it or is pruned.
  EXPECT_EQ(c.get(Counter::kCurvePointsPushed),
            c.get(Counter::kCurvePointsPruned) + c.get(Counter::kCurvePointsKept));
  EXPECT_GE(sink.gauges.get(Gauge::kCurvePeakWidth), 1u);
}

/// Span names whose count depends on scheduling, not on the workload.
bool scheduling_span(SpanName n) {
  return n == SpanName::kPoolIdle || n == SpanName::kPoolSteal ||
         n == SpanName::kBatchReduce || n == SpanName::kServeQueue ||
         n == SpanName::kServeRequest;
}

TEST(Batch, AggregateObsIsThreadCountInvariant) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = test_circuit(42);
  // Ring disarmed (rollup only), then armed (rollup + timeline): the
  // rollup's net-attributed counts may depend on neither.
  std::vector<std::uint64_t> first_counts;
  for (const bool armed : {false, true}) {
    ObsSink s1, s4, s8;
    for (ObsSink* s : {&s1, &s4, &s8})
      if (armed) s->set_span_capacity(ObsSink::kDefaultSpanCapacity);
    const BatchResult r1 = run_batch(ckt, lib, 1, &s1);
    const BatchResult r4 = run_batch(ckt, lib, 4, &s4);
    const BatchResult r8 = run_batch(ckt, lib, 8, &s8);
    EXPECT_TRUE(batch_results_identical(r1, r4));
    EXPECT_TRUE(batch_results_identical(r1, r8));
    EXPECT_TRUE(s1.counters == s4.counters);
    EXPECT_TRUE(s1.counters == s8.counters);
    EXPECT_TRUE(s1.gauges == s4.gauges);
    EXPECT_TRUE(s1.gauges == s8.gauges);
    EXPECT_EQ(s1.layers().size(), s8.layers().size());
    for (std::size_t i = 0; i < s1.layers().size(); ++i)
      EXPECT_TRUE(s1.layers()[i] == s8.layers()[i]) << "layer " << i;
    // Trace rows: same nets in the same (net-id) order; only wall_us may
    // vary.
    ASSERT_EQ(s1.traces().size(), s8.traces().size());
    for (std::size_t i = 0; i < s1.traces().size(); ++i) {
      const TraceRecord &a = s1.traces()[i], &b = s8.traces()[i];
      EXPECT_EQ(a.net_id, b.net_id);
      EXPECT_EQ(a.sinks, b.sinks);
      EXPECT_EQ(a.peak_curve_width, b.peak_curve_width);
      EXPECT_EQ(a.merlin_loops, b.merlin_loops);
      EXPECT_EQ(a.buffers, b.buffers);
      if (i > 0) {
        EXPECT_LT(s1.traces()[i - 1].net_id, a.net_id);
      }
    }
    EXPECT_EQ(s1.traces().size(),
              s1.counters.get(Counter::kNetsProcessed));

    std::vector<std::uint64_t> counts;
    for (std::size_t i = 0; i < kSpanNameCount; ++i) {
      const auto n = static_cast<SpanName>(i);
      if (scheduling_span(n)) continue;
      counts.push_back(s1.span_total(n).count);
      EXPECT_EQ(s4.span_total(n).count, counts.back()) << span_name(n);
      EXPECT_EQ(s8.span_total(n).count, counts.back()) << span_name(n);
    }
    if (first_counts.empty()) first_counts = counts;
    EXPECT_EQ(counts, first_counts) << "armed ring changed the rollup";
    // Each rollup count is the number of times its engine ran.
    const auto spans = [&](SpanName n) { return s8.span_total(n).count; };
    const Counters& c = s8.counters;
    EXPECT_GT(spans(SpanName::kBubbleConstruct), 0u);
    EXPECT_EQ(spans(SpanName::kBubbleConstruct), c.get(Counter::kBubbleRuns));
    EXPECT_EQ(spans(SpanName::kMerlinIteration),
              c.get(Counter::kMerlinIterations));
    EXPECT_EQ(spans(SpanName::kMerlinCompact),
              c.get(Counter::kArenaCompactions));
    EXPECT_EQ(spans(SpanName::kBatchNet), c.get(Counter::kNetsProcessed));
  }
}

TEST(Batch, TraceCapacityCapsDeterministically) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = test_circuit(43);
  ObsSink full, capped;
  capped.set_trace_capacity(3);
  run_batch(ckt, lib, 1, &full);
  run_batch(ckt, lib, 4, &capped);
  ASSERT_GT(full.traces().size(), 3u);
  ASSERT_EQ(capped.traces().size(), 3u);
  // The cap keeps the lowest net ids — a prefix of the full sorted list —
  // regardless of which workers ran which nets.
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(capped.traces()[i].net_id, full.traces()[i].net_id);
  // Counters are unaffected by the trace cap.
  EXPECT_TRUE(capped.counters == full.counters);
}

TEST(Json, ExportRoundTripsThroughTheParser) {
  ObsSink sink;
  sink.add(Counter::kCurvePointsPushed, 120);
  sink.add(Counter::kCurvePointsPruned, 45);
  sink.add(Counter::kGammaCacheHits, 7);
  sink.maximize(Gauge::kCurvePeakWidth, 33);
  SpanRecord bubble;
  bubble.name = SpanName::kBubbleConstruct;
  bubble.end_ns = 1500;
  sink.record_span(bubble);
  sink.record_layer(2, 100, 40, 60);
  sink.record_trace(TraceRecord{4, 9, 250, 33, 2, 3});
  sink.record_trace(TraceRecord{7, 5, 90, 12, 1, 1});
  RuntimeInfo rt;
  rt.threads = 4;
  rt.steals = 2;
  rt.wall_ms = 12.5;
  rt.worker_tasks = {3, 2, 2, 2};
  rt.worker_cpu_ms = {7.5, 1.25, 0.0, 3.0};

  const std::string json = stats_to_json(sink, rt);
  const JsonValue doc = json_parse(json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("schema").string, kStatsSchemaName);
  EXPECT_EQ(doc.at("schema_version").number, kStatsSchemaVersion);

  const JsonValue& counters = doc.at("counters");
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    ASSERT_TRUE(counters.has(counter_name(c))) << counter_name(c);
    EXPECT_EQ(counters.at(counter_name(c)).number,
              static_cast<double>(sink.counters.get(c)));
  }
  EXPECT_EQ(doc.at("gauges").at("curve_peak_width").number, 33.0);
  EXPECT_FALSE(doc.has("phases"));  // v7: span rollups replaced phases
  const JsonValue& spans = doc.at("runtime").at("spans");
  ASSERT_EQ(spans.array.size(), 1u);
  EXPECT_EQ(spans.array[0].at("name").string, "bubble.construct");
  EXPECT_EQ(spans.array[0].at("count").number, 1.0);
  EXPECT_EQ(spans.array[0].at("total_ns").number, 1500.0);
  ASSERT_EQ(doc.at("nets").array.size(), 2u);
  EXPECT_EQ(doc.at("nets").array[0].at("net_id").number, 4.0);
  EXPECT_EQ(doc.at("nets").array[1].at("wall_us").number, 90.0);
  EXPECT_EQ(doc.at("latency_us").at("count").number, 2.0);
  EXPECT_EQ(doc.at("runtime").at("threads").number, 4.0);
  ASSERT_EQ(doc.at("runtime").at("worker_tasks").array.size(), 4u);
  const JsonValue& cpu = doc.at("runtime").at("worker_cpu_ms");
  ASSERT_EQ(cpu.array.size(), 4u);
  EXPECT_EQ(cpu.array[0].number, 7.5);
  EXPECT_EQ(cpu.array[1].number, 1.25);

  const JsonValue& layers = doc.at("layers");
  ASSERT_EQ(layers.array.size(), 1u);
  EXPECT_EQ(layers.array[0].at("layer").number, 2.0);
  EXPECT_EQ(layers.array[0].at("pushed").number, 100.0);
}

TEST(Json, LatencyHistogramSectionRoundTripsExactly) {
  // v6: latency_us is a real histogram object (p50/p90/p99/p999 are bucket
  // lower bounds, plus the RLE bucket array) instead of ad-hoc percentiles.
  ObsSink sink;
  sink.record_trace(TraceRecord{1, 4, 90, 10, 1, 2});
  sink.record_trace(TraceRecord{2, 6, 250, 20, 1, 3});
  sink.record_trace(TraceRecord{3, 8, 1000, 30, 2, 5});

  const JsonValue doc = json_parse(stats_to_json(sink));
  const JsonValue& lat = doc.at("latency_us");
  for (const char* key : {"count", "p50", "p90", "p99", "p999", "max", "hist"})
    ASSERT_TRUE(lat.has(key)) << key;
  EXPECT_EQ(lat.at("count").number, 3.0);
  EXPECT_EQ(lat.at("max").number, 1000.0);

  LatencyHistogram expect;
  for (const std::uint64_t us : {90u, 250u, 1000u}) expect.record(us);
  EXPECT_EQ(lat.at("p50").number, static_cast<double>(expect.quantile(50)));
  EXPECT_EQ(lat.at("p99").number, static_cast<double>(expect.quantile(99)));

  // The RLE bucket array reconstructs the histogram bit-exactly (counts and
  // therefore every quantile; sum/max ride separately).
  const LatencyHistogram rebuilt = hist_from_json(lat);
  EXPECT_EQ(rebuilt.count(), expect.count());
  EXPECT_TRUE(rebuilt.buckets() == expect.buckets());
  for (const double p : {50.0, 90.0, 99.0, 99.9})
    EXPECT_EQ(rebuilt.quantile(p), expect.quantile(p)) << p;

  // Malformed bucket arrays are a typed parse error, never a bad histogram.
  EXPECT_THROW((void)hist_from_json(json_parse(R"({"hist": [[1]]})")),
               std::invalid_argument);
  EXPECT_THROW((void)hist_from_json(json_parse(R"({"hist": [[1, 4]]})")),
               std::invalid_argument);  // runs must cover every slot
  EXPECT_THROW((void)hist_from_json(json_parse(R"({"count": 0})")),
               std::invalid_argument);
}

TEST(Json, LifetimeSectionHasDisabledAndEnabledShapes) {
  // One-shot shape: no registry snapshot → `"lifetime": {"enabled": 0}`.
  const JsonValue bare = json_parse(stats_to_json(ObsSink{}));
  EXPECT_EQ(bare.at("lifetime").at("enabled").number, 0.0);
  EXPECT_FALSE(bare.at("lifetime").has("jobs"));

  // Daemon shape: a snapshot fills jobs/counters/hists/spans/windows.
  LifetimeSnapshot snap;
  snap.enabled = 1;
  snap.jobs = 3;
  snap.counters.add(Counter::kBuffersInserted, 7);
  snap.hist[static_cast<std::size_t>(LifetimeHist::kE2eUs)].record(1500);
  snap.span_us[static_cast<std::size_t>(SpanName::kBubbleConstruct)].record(40);
  snap.window_s = 10;
  snap.windows.push_back(WindowSample{3, 1, 2, 0.3});

  const JsonValue doc =
      json_parse(stats_to_json(ObsSink{}, {}, {}, {}, &snap));
  const JsonValue& lt = doc.at("lifetime");
  EXPECT_EQ(lt.at("enabled").number, 1.0);
  EXPECT_EQ(lt.at("jobs").number, 3.0);
  EXPECT_EQ(lt.at("counters").at("buffers_inserted").number, 7.0);
  for (std::size_t i = 0; i < kLifetimeHistCount; ++i)
    ASSERT_TRUE(lt.at("hists").has(
        lifetime_hist_name(static_cast<LifetimeHist>(i))));
  EXPECT_EQ(lt.at("hists").at("e2e_us").at("count").number, 1.0);
  // Zero-count span histograms are elided to keep the section compact.
  EXPECT_FALSE(lt.has("phases"));
  EXPECT_TRUE(lt.at("spans").has("bubble.construct"));
  EXPECT_EQ(lt.at("spans").object.size(), 1u);
  ASSERT_EQ(lt.at("windows").array.size(), 1u);
  EXPECT_EQ(lt.at("windows").array[0].at("req_s").number, 0.3);
}

TEST(Json, ParserHandlesEscapesNestingAndErrors) {
  const JsonValue v = json_parse(R"({"a": [1, -2.5, true, null, "x\"y"], "b": {"c": 1e3}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.at("a").array.size(), 5u);
  EXPECT_EQ(v.at("a").array[1].number, -2.5);
  EXPECT_EQ(v.at("a").array[2].kind, JsonValue::Kind::kBool);
  EXPECT_EQ(v.at("a").array[4].string, "x\"y");
  EXPECT_EQ(v.at("b").at("c").number, 1000.0);
  EXPECT_THROW(json_parse("{"), std::invalid_argument);
  EXPECT_THROW(json_parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(json_parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(json_parse("nope"), std::invalid_argument);
}

/// A closed ptree.dp span of `ns` nanoseconds.
SpanRecord ptree_span(std::uint64_t ns) {
  SpanRecord r;
  r.name = SpanName::kPtreeDp;
  r.end_ns = ns;
  return r;
}

TEST(Sink, MergeFromSumsCountersAndSpansAndKeepsGaugeMaxima) {
  ObsSink a, b;
  a.add(Counter::kBuffersInserted, 2);
  a.maximize(Gauge::kCurvePeakWidth, 5);
  a.record_span(ptree_span(100));
  a.record_layer(2, 10, 4, 6);
  b.add(Counter::kBuffersInserted, 3);
  b.maximize(Gauge::kCurvePeakWidth, 9);
  b.record_span(ptree_span(50));
  b.record_layer(2, 20, 8, 12);
  b.record_layer(3, 5, 1, 4);
  a.merge_from(b);
  EXPECT_EQ(a.counters.get(Counter::kBuffersInserted), 5u);
  EXPECT_EQ(a.gauges.get(Gauge::kCurvePeakWidth), 9u);
  EXPECT_EQ(a.span_total(SpanName::kPtreeDp).total_ns, 150u);
  EXPECT_EQ(a.span_total(SpanName::kPtreeDp).count, 2u);
  ASSERT_GE(a.layers().size(), 4u);
  EXPECT_EQ(a.layers()[2].pushed, 30u);
  EXPECT_EQ(a.layers()[3].kept, 4u);
}

TEST(Sink, MergeFromIsOrderIndependent) {
  // The batch engine merges one sink per worker after the pool drains, and
  // nothing about the merge may depend on worker order: counters and span
  // rollups are sums, gauges maxima, layer stats elementwise sums — all commutative.
  // Build three distinct worker sinks and merge them in every permutation.
  const auto make_worker = [](std::uint64_t salt) {
    ObsSink s;
    s.add(Counter::kBuffersInserted, 1 + salt);
    s.add(Counter::kCurvePointsPushed, 10 * salt);
    s.maximize(Gauge::kCurvePeakWidth, 3 * salt + 1);
    s.record_span(ptree_span(100 + salt));
    s.record_layer(2 + salt % 2, 10 + salt, 4, 6 + salt);
    return s;
  };
  std::vector<std::size_t> order = {0, 1, 2};
  ObsSink reference;
  for (std::size_t i : order) reference.merge_from(make_worker(i));
  do {
    ObsSink agg;
    for (std::size_t i : order) agg.merge_from(make_worker(i));
    EXPECT_TRUE(agg.counters == reference.counters);
    EXPECT_TRUE(agg.gauges == reference.gauges);
    ASSERT_EQ(agg.layers().size(), reference.layers().size());
    for (std::size_t l = 0; l < agg.layers().size(); ++l)
      EXPECT_TRUE(agg.layers()[l] == reference.layers()[l]) << "layer " << l;
    EXPECT_TRUE(agg.span_totals() == reference.span_totals());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(SpanRing, AtCapacityTheOldestRecordIsDroppedDeterministically) {
  SpanRing ring;
  EXPECT_FALSE(ring.armed());
  SpanRecord r;
  ring.push(r);  // disarmed: no-op
  EXPECT_EQ(ring.size(), 0u);

  ring.set_capacity(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    r.seq = i;
    ring.push(r);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Push order is preserved and exactly the oldest records are gone: the
  // snapshot is the last four pushes, oldest first.
  const std::vector<SpanRecord> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].seq, 6 + i);

  ring.set_capacity(2);  // resizing clears
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(Sink, DisarmedTraceSpanChargesTheRollup) {
  ObsSink sink;  // span ring disarmed: the default
  {
    TraceSpan outer(&sink, SpanName::kBatchReduce);
    TraceSpan inner(&sink, SpanName::kBatchReduce);
  }
  EXPECT_EQ(sink.span_total(SpanName::kBatchReduce).count, 2u);
  EXPECT_EQ(sink.spans().size(), 0u);  // no timeline without a ring
  { TraceSpan t(nullptr, SpanName::kBatchReduce); }  // null sink: no-op
}

}  // namespace
}  // namespace merlin
