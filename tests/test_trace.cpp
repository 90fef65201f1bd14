// The span tracer's contracts (docs/OBSERVABILITY.md, "Tracing"):
//
//   * structure determinism — the net-attributed spans' (net_id, seq, name,
//     depth, arg) tuples are identical across thread counts and repeated
//     runs; only timestamps and the scheduling spans (pool idle/steal,
//     batch reduce) may differ;
//   * nesting mirrors the engines — a batch net span encloses the flow
//     span, which encloses MERLIN iterations, which enclose
//     BUBBLE_CONSTRUCT, which encloses its DP layers;
//   * the Perfetto export is valid Chrome trace-event JSON (validated with
//     the bundled parser) with one thread track per pool worker;
//   * a disarmed ring (the default) keeps no timeline, while the per-name
//     rollup counts every closed span — also the ones a full ring
//     overwrote.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/flows.h"
#include "net/generator.h"
#include "obs/json.h"
#include "obs/sink.h"
#include "obs/trace.h"

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

Circuit test_circuit(std::uint64_t seed) {
  CircuitSpec spec;
  spec.name = "trace" + std::to_string(seed);
  spec.n_gates = 20;
  spec.n_primary_inputs = 4;
  spec.max_fanout = 7;
  spec.seed = seed;
  return make_random_circuit(spec, make_standard_library());
}

BatchResult run_traced_batch(const Circuit& ckt, const BufferLibrary& lib,
                             std::size_t threads, ObsSink* sink) {
  BatchOptions opts;
  opts.threads = threads;
  opts.flow = FlowKind::kFlow3;
  opts.scaled_config = false;
  opts.config = fast_cfg();
  opts.obs = sink;
  return BatchRunner(lib, opts).run(ckt);
}

/// The deterministic structure of a sink's net-attributed spans, in the
/// aggregate's (net_id, seq) order.  Scheduling spans are excluded by the
/// determinism contract; timestamps and worker ids are dropped.
using SpanShape =
    std::tuple<std::uint32_t, std::uint32_t, SpanName, std::uint16_t,
               std::uint64_t>;
std::vector<SpanShape> net_span_shapes(const ObsSink& sink) {
  std::vector<SpanShape> out;
  for (const SpanRecord& r : sink.spans().snapshot())
    if (!r.scheduling())
      out.emplace_back(r.net_id, r.seq, r.name, r.depth, r.arg);
  return out;
}

TEST(Trace, NetSpanStructureIsThreadCountInvariantAndRepeatable) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = test_circuit(42);
  ObsSink s1, s4, s8, s4again;
  for (ObsSink* s : {&s1, &s4, &s8, &s4again})
    s->set_span_capacity(ObsSink::kDefaultSpanCapacity);
  run_traced_batch(ckt, lib, 1, &s1);
  run_traced_batch(ckt, lib, 4, &s4);
  run_traced_batch(ckt, lib, 8, &s8);
  run_traced_batch(ckt, lib, 4, &s4again);

  const std::vector<SpanShape> shape1 = net_span_shapes(s1);
  ASSERT_FALSE(shape1.empty());
  EXPECT_EQ(shape1, net_span_shapes(s4)) << "1-vs-4-thread span structure";
  EXPECT_EQ(shape1, net_span_shapes(s8)) << "1-vs-8-thread span structure";
  EXPECT_EQ(net_span_shapes(s4), net_span_shapes(s4again))
      << "same run repeated";

  // The aggregate order is (net_id, seq) ascending — a pure function of the
  // workload, independent of which worker ran which net.
  for (std::size_t i = 1; i < shape1.size(); ++i) {
    const auto key = [](const SpanShape& s) {
      return std::make_pair(std::get<0>(s), std::get<1>(s));
    };
    EXPECT_LT(key(shape1[i - 1]), key(shape1[i])) << "at " << i;
  }
}

TEST(Trace, NestingMirrorsTheEngineStack) {
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 7;
  spec.seed = 3;
  const Net net = make_random_net(spec, lib);
  ObsSink sink;
  sink.set_span_capacity(1 << 16);
  sink.begin_net(0);
  FlowConfig cfg = fast_cfg();
  cfg.obs = &sink;
  run_flow3(net, lib, cfg);

  const std::vector<SpanRecord> spans = sink.spans().snapshot();
  ASSERT_FALSE(spans.empty());
  std::uint16_t search_d = 0xFFFF, iter_d = 0xFFFF, bubble_d = 0xFFFF,
                layer_d = 0xFFFF;
  std::set<std::uint32_t> seqs;
  for (const SpanRecord& r : spans) {
    EXPECT_EQ(r.net_id, 0u);
    EXPECT_LE(r.begin_ns, r.end_ns);
    EXPECT_TRUE(seqs.insert(r.seq).second) << "seq " << r.seq << " reused";
    switch (r.name) {
      case SpanName::kFlowSearch: search_d = r.depth; break;
      case SpanName::kMerlinIteration: iter_d = r.depth; break;
      case SpanName::kBubbleConstruct: bubble_d = r.depth; break;
      case SpanName::kBubbleLayer:
        layer_d = r.depth;
        EXPECT_GE(r.arg, 2u);  // the DP loop runs L = 2..n
        break;
      default: break;
    }
  }
  // Figure 14's stack: flow.search > merlin.iteration > bubble.construct >
  // bubble.layer, each one level deeper.
  ASSERT_NE(search_d, 0xFFFF);
  ASSERT_NE(iter_d, 0xFFFF);
  ASSERT_NE(bubble_d, 0xFFFF);
  ASSERT_NE(layer_d, 0xFFFF);
  EXPECT_EQ(search_d, 0u);
  EXPECT_EQ(iter_d, search_d + 1);
  EXPECT_GT(bubble_d, iter_d);
  EXPECT_EQ(layer_d, bubble_d + 1);
}

TEST(Trace, ExportIsParserValidChromeTraceJsonWithOneTrackPerWorker) {
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = test_circuit(7);
  ObsSink sink;
  sink.set_span_capacity(ObsSink::kDefaultSpanCapacity);
  run_traced_batch(ckt, lib, 3, &sink);

  const std::string json = trace_to_json(sink);
  const JsonValue doc = json_parse(json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  std::set<double> meta_tids, event_tids;
  std::size_t complete = 0, instant = 0;
  for (const JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").string;
    EXPECT_EQ(e.at("pid").number, 1.0);
    if (ph == "M") {
      if (e.at("name").string == "thread_name")
        meta_tids.insert(e.at("tid").number);
      continue;
    }
    event_tids.insert(e.at("tid").number);
    ASSERT_TRUE(e.has("ts"));
    EXPECT_GE(e.at("ts").number, 0.0) << "timestamps normalized to run start";
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").number, 0.0);
    } else {
      ASSERT_EQ(ph, "i");
      ++instant;
    }
  }
  EXPECT_GT(complete, 0u);
  // Every tid that carries events has a thread_name track, one per worker.
  for (double tid : event_tids) EXPECT_TRUE(meta_tids.count(tid)) << tid;

  // An empty sink still exports a valid (empty-timeline) document.
  ObsSink empty;
  const JsonValue empty_doc = json_parse(trace_to_json(empty));
  EXPECT_TRUE(empty_doc.at("traceEvents").is_array());
}

TEST(Trace, SummariesRollUpPerName) {
  ObsSink sink;
  sink.set_span_capacity(16);
  SpanRecord r;
  r.net_id = 1;
  r.name = SpanName::kBubbleLayer;
  r.begin_ns = 100;
  r.end_ns = 250;
  sink.record_span(r);
  r.begin_ns = 300;
  r.end_ns = 350;
  sink.record_span(r);
  r.name = SpanName::kBatchNet;
  r.begin_ns = 90;
  r.end_ns = 400;
  sink.record_span(r);

  const std::vector<SpanSummary> sums = summarize_spans(sink);
  ASSERT_EQ(sums.size(), 2u);
  // Enum order: batch.net before bubble.layer.
  EXPECT_EQ(sums[0].name, SpanName::kBatchNet);
  EXPECT_EQ(sums[0].count, 1u);
  EXPECT_EQ(sums[0].total_ns, 310u);
  EXPECT_EQ(sums[1].name, SpanName::kBubbleLayer);
  EXPECT_EQ(sums[1].count, 2u);
  EXPECT_EQ(sums[1].total_ns, 200u);
}

TEST(Trace, DisarmedSinkAndNullSinkRecordNothing) {
  ObsSink disarmed;  // span capacity 0: no timeline records
  {
    TraceSpan outer(&disarmed, SpanName::kPtreeDp);
    TraceSpan inner(&disarmed, SpanName::kBubbleLayer, 2);
  }
  EXPECT_EQ(disarmed.spans().size(), 0u);  // (the rollup still counts both)
  { TraceSpan t(nullptr, SpanName::kPtreeDp); }  // null sink: no-op

  ObsSink armed;
  armed.set_span_capacity(8);
  { TraceSpan t(&armed, SpanName::kPtreeDp, 5); }
  ASSERT_EQ(armed.spans().size(), 1u);
  const SpanRecord rec = armed.spans().snapshot()[0];
  EXPECT_EQ(rec.name, SpanName::kPtreeDp);
  EXPECT_EQ(rec.arg, 5u);
  EXPECT_EQ(rec.depth, 0u);
  EXPECT_LE(rec.begin_ns, rec.end_ns);
}

TEST(Trace, EverySpanNameIsUniqueAndDotted) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    const std::string n = span_name(static_cast<SpanName>(i));
    EXPECT_TRUE(seen.insert(n).second) << "duplicate span name " << n;
    // subsystem.what: exactly one dot, lowercase elsewhere — the row shape
    // tests/test_docs.cpp reads from the span table.
    EXPECT_EQ(std::count(n.begin(), n.end(), '.'), 1) << n;
    for (char c : n)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '.' || c == '_') << n;
  }
}

TEST(Trace, StatsJsonQuarantinesSpanRollupsInRuntime) {
  ObsSink sink;
  sink.set_span_capacity(4);
  SpanRecord r;
  r.net_id = 0;
  r.name = SpanName::kPtreeDp;
  r.begin_ns = 10;
  r.end_ns = 30;
  for (int i = 0; i < 6; ++i) sink.record_span(r);  // overflow: 2 dropped

  const JsonValue doc = json_parse(stats_to_json(sink));
  EXPECT_EQ(doc.at("schema_version").number, kStatsSchemaVersion);
  const JsonValue& rt = doc.at("runtime");
  EXPECT_EQ(rt.at("span_count").number, 4.0);
  EXPECT_EQ(rt.at("spans_dropped").number, 2.0);
  ASSERT_EQ(rt.at("spans").array.size(), 1u);
  EXPECT_EQ(rt.at("spans").array[0].at("name").string, "ptree.dp");
  // The rollup counts all six, not just the four the ring still holds.
  EXPECT_EQ(rt.at("spans").array[0].at("count").number, 6.0);
  EXPECT_EQ(rt.at("spans").array[0].at("total_ns").number, 120.0);
}

TEST(Trace, SpanTotalsSurviveRingWrap) {
  // Spans the ring overwrote at capacity still count in runtime.spans: the
  // rollup, not the ring, feeds count/total_ns.
  ObsSink sink;
  sink.set_span_capacity(4);
  for (int i = 0; i < 10; ++i) TraceSpan t(&sink, SpanName::kBubbleLayer, 2);

  const JsonValue rt = json_parse(stats_to_json(sink)).at("runtime");
  ASSERT_EQ(rt.at("spans").array.size(), 1u);
  EXPECT_EQ(rt.at("spans").array[0].at("name").string, "bubble.layer");
  EXPECT_EQ(rt.at("spans").array[0].at("count").number, 10.0);
  EXPECT_EQ(rt.at("span_count").number, 4.0);
  EXPECT_EQ(rt.at("spans_dropped").number, 6.0);
}

}  // namespace
}  // namespace merlin
