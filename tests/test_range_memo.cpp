// Exactness pins for the *PTREE range DP and BUBBLE_CONSTRUCT's
// construction-wide run table (ptree/range_dp.h): every terminal run is
// interned once per construction, in the order the layer calls meet it, and
// solved once, level by level, before any layer reads it; every later layer
// call that meets the same run reads its curves (Lemma 7's sub-problem
// sharing, one level below the Gamma groups).  Reuse must be invisible in
// the results, so the fingerprints and digests below were recorded with no
// reuse at all and must never move.  The reuse counts and layer calls were
// recorded from the per-call range memo the run table replaced: interning
// before solving loses no reuse.  ptree_route solves its one sequence
// through the same table; its root curves and the Flow I/II circuit digests
// are pinned here too, recorded before the two callers shared one
// implementation.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "buflib/library.h"
#include "cache/shard.h"
#include "core/bubble.h"
#include "core/gamma.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "net/generator.h"
#include "obs/json.h"
#include "obs/sink.h"
#include "order/tsp.h"
#include "ptree/ptree.h"
#include "ptree/range_dp.h"

namespace merlin {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
};

/// Every root-curve point (metrics only: provenance handles are arena
/// addresses, which reuse legitimately changes) and the extracted tree.
void mix_curve_and_tree(Fnv& d, const SolutionCurve& root_curve,
                        const RoutingTree& tree) {
  d.u64(root_curve.size());
  for (const Solution& s : root_curve) {
    d.f64(s.req_time);
    d.f64(s.load);
    d.f64(s.area);
    d.f64(s.wirelen);
  }
  d.u64(tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const TreeNode& tn = tree.node(i);
    d.u64(static_cast<std::uint64_t>(tn.kind));
    d.u64(static_cast<std::uint32_t>(tn.at.x));
    d.u64(static_cast<std::uint32_t>(tn.at.y));
    d.u64(static_cast<std::uint32_t>(tn.idx));
    d.u64(tn.parent);
    d.f64(tn.wire_width);
  }
}

/// The root curve, the extracted tree, the realized order and the work
/// statistics of one construction.
std::uint64_t fingerprint(const BubbleResult& r) {
  Fnv d;
  mix_curve_and_tree(d, r.root_curve, r.tree);
  for (std::size_t i = 0; i < r.out_order.size(); ++i) d.u64(r.out_order[i]);
  d.u64(r.layer_calls);
  d.u64(r.solutions_stored);
  return d.h;
}

BubbleConfig base_cfg() {
  BubbleConfig cfg;
  cfg.alpha = 3;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 1.5;
  cfg.candidates.max_candidates = 14;
  cfg.inner_prune.max_solutions = 4;
  cfg.group_prune.max_solutions = 5;
  cfg.buffer_stride = 4;
  return cfg;
}

struct MemoCase {
  const char* name;
  std::size_t sinks;
  std::uint64_t seed;
  bool relaxed;    ///< max_internal_children = 2
  bool widths;     ///< wire_widths {1, 2}
  bool quantized;  ///< quantized inner_prune
  std::uint64_t fingerprint;       ///< recorded without reuse
  std::uint64_t extend_candidates;  ///< recorded without reuse
  std::uint64_t reuse_hits;         ///< recorded from the per-call memo
  std::uint64_t reuse_misses;       ///< ditto
  std::uint64_t layer_calls;        ///< ditto
};

const MemoCase kCases[] = {
    {"relaxed", 7, 3, true, false, false, 0x4f6d0aa37c324f6bULL, 1958668, 1926, 1576, 1318},
    {"widths", 7, 5, false, true, false, 0xb0fd1c714b3ef95aULL, 1409499, 691, 594, 579},
    {"quantized", 8, 9, false, false, true, 0x0eb98291ef98bffbULL, 1166999, 1009, 841, 822},
    {"all", 7, 11, true, true, true, 0xeb7921e670c006c3ULL, 4109351, 1926, 1576, 1318},
};

BubbleConfig case_cfg(const MemoCase& c) {
  BubbleConfig cfg = base_cfg();
  if (c.relaxed) cfg.max_internal_children = 2;
  if (c.widths) cfg.wire_widths = {1.0, 2.0};
  if (c.quantized) {
    cfg.inner_prune.load_quantum = 2.0;
    cfg.inner_prune.area_quantum = 4.0;
  }
  return cfg;
}

TEST(RangeMemo, RootCurvesMatchTheUnmemoizedConstruction) {
  const BufferLibrary lib = make_standard_library();
  for (const MemoCase& c : kCases) {
    SCOPED_TRACE(c.name);
    NetSpec spec;
    spec.n_sinks = c.sinks;
    spec.seed = c.seed;
    const Net net = make_random_net(spec, lib);
    ObsSink sink;
    BubbleConfig cfg = case_cfg(c);
    cfg.obs = &sink;
    const BubbleResult r = bubble_construct(net, lib, tsp_order(net), cfg);
    EXPECT_EQ(fingerprint(r), c.fingerprint);
    const std::uint64_t extend = sink.counters.get(Counter::kExtendCandidates);
    EXPECT_LT(extend, c.extend_candidates);
    EXPECT_EQ(sink.counters.get(Counter::kRangeReuseHits), c.reuse_hits);
    EXPECT_EQ(sink.counters.get(Counter::kRangeReuseMisses), c.reuse_misses);
    EXPECT_EQ(sink.counters.get(Counter::kLayerCalls), c.layer_calls);
  }
}

struct PTreeCase {
  const char* name;
  std::size_t sinks;
  std::uint64_t seed;
  bool widths;      ///< wire_widths {1, 2}
  bool full_hanan;  ///< CandidatePolicy::kFullHanan
  bool quantized;   ///< quantized prune
  std::uint64_t fingerprint;  ///< recorded before the range DP was shared
};

const PTreeCase kPTreeCases[] = {
    {"default", 12, 4, false, false, false, 0x915a8ba6202d2f87ULL},
    {"widths", 10, 6, true, false, false, 0xf5ec982be67e2254ULL},
    {"full_hanan", 8, 8, false, true, false, 0x07ff30bff45d02e9ULL},
    {"quantized", 12, 10, false, false, true, 0xff0efb6aaa5ca20bULL},
};

TEST(RangeMemo, PTreeRootCurvesMatchTheUnsharedDp) {
  const BufferLibrary lib = make_standard_library();
  for (const PTreeCase& c : kPTreeCases) {
    SCOPED_TRACE(c.name);
    NetSpec spec;
    spec.n_sinks = c.sinks;
    spec.seed = c.seed;
    const Net net = make_random_net(spec, lib);
    PTreeConfig cfg;
    if (c.widths) cfg.wire_widths = {1.0, 2.0};
    if (c.full_hanan) cfg.candidates.policy = CandidatePolicy::kFullHanan;
    if (c.quantized) {
      cfg.prune.load_quantum = 2.0;
      cfg.prune.area_quantum = 4.0;
    }
    const PTreeResult r = ptree_route(net, tsp_order(net), cfg);
    Fnv d;
    mix_curve_and_tree(d, r.root_curve, r.tree);
    EXPECT_EQ(d.h, c.fingerprint);
  }
}

/// The one-shot `merlin_cli --circuit G S --flow F` run with the CLI's
/// default 64 MB shared cache (detached under MERLIN_CACHE=off, which must
/// not change the digest either).
std::uint64_t cli_circuit_digest(FlowKind flow, std::size_t gates,
                                 std::uint64_t seed, std::size_t threads,
                                 ObsSink* obs = nullptr) {
  const BufferLibrary lib = make_standard_library();
  CircuitSpec cs;
  cs.name = "ckt" + std::to_string(gates);
  cs.n_gates = gates;
  cs.seed = seed;
  const Circuit ckt = make_random_circuit(cs, lib);
  CacheConfig cc;
  cc.capacity_nodes = 64ull * 1024 * 1024 / sizeof(SolNode);
  SubproblemCache cache(cc);
  BatchOptions opts;
  opts.flow = flow;
  opts.threads = threads;
  opts.cache = &cache;
  opts.obs = obs;
  return batch_result_digest(BatchRunner(lib, opts).run(ckt));
}

struct CircuitPin {
  FlowKind flow;
  std::size_t gates;
  std::uint64_t seed;
  std::uint64_t digest;  ///< `merlin_cli --circuit G S --flow F --digest`
};

/// The pin's CLI arguments (flow 3 is the CLI default).
void PrintTo(const CircuitPin& pin, std::ostream* os) {
  *os << "--circuit " << pin.gates << ' ' << pin.seed;
  if (pin.flow != FlowKind::kFlow3) *os << " --flow " << static_cast<int>(pin.flow);
}

class RangeMemoCircuit
    : public ::testing::TestWithParam<std::tuple<CircuitPin, std::size_t>> {};

TEST_P(RangeMemoCircuit, DigestMatchesTheUnmemoizedRun) {
  const auto& [pin, threads] = GetParam();
  ObsSink sink;
  EXPECT_EQ(cli_circuit_digest(pin.flow, pin.gates, pin.seed, threads, &sink),
            pin.digest);
  if (pin.flow == FlowKind::kFlow3 && pin.gates == 30 && pin.seed == 7) {
    // The per-call memo's reuse counts, which the run table keeps.
    EXPECT_EQ(sink.counters.get(Counter::kRangeReuseHits), 9821u);
    EXPECT_EQ(sink.counters.get(Counter::kRangeReuseMisses), 4011u);
    EXPECT_EQ(sink.counters.get(Counter::kLayerCalls), 3710u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, RangeMemoCircuit,
    ::testing::Combine(
        ::testing::Values(
            CircuitPin{FlowKind::kFlow3, 30, 7, 0x2353012618a1fed8ULL},
            CircuitPin{FlowKind::kFlow3, 26, 5, 0x7573586381cdc31eULL},
            CircuitPin{FlowKind::kFlow3, 40, 3, 0x87be003320531eaeULL},
            CircuitPin{FlowKind::kFlow1, 30, 7, 0xffd833ada4cc097dULL},
            CircuitPin{FlowKind::kFlow2, 30, 7, 0x88bfca8a10d6cb90ULL}),
        ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{4},
                          std::size_t{8})),
    [](const auto& tp) {
      const CircuitPin& pin = std::get<0>(tp.param);
      const std::string flow =
          pin.flow == FlowKind::kFlow3
              ? ""
              : "flow" + std::to_string(static_cast<int>(pin.flow)) + "_";
      return flow + "ckt" + std::to_string(pin.gates) + "_" +
             std::to_string(pin.seed) + "_threads" +
             std::to_string(std::get<1>(tp.param));
    });

/// Canonical text of a parsed stats-JSON value (object keys sorted).
std::string dump(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: return std::to_string(v.number);
    case JsonValue::Kind::kString: return '"' + v.string + '"';
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (const JsonValue& e : v.array) out += dump(e) + ",";
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (const auto& [k, e] : v.object) out += k + ":" + dump(e) + ",";
      return out + "}";
    }
  }
  return {};
}

/// What one single-net batch run must reproduce at every thread count.
struct SingleNetRun {
  std::uint64_t digest = 0;
  std::uint64_t nodes_allocated = 0;
  std::string det_sections;  ///< counters, gauges and layers of the stats JSON
};

SingleNetRun single_net_batch(const Net& net, std::size_t threads, bool with_obs) {
  const BufferLibrary lib = make_standard_library();
  ObsSink sink;
  BatchOptions opts;
  opts.threads = threads;
  if (with_obs) opts.obs = &sink;
  const BatchResult r = BatchRunner(lib, opts).run_nets({net});
  SingleNetRun out;
  out.digest = batch_result_digest(r);
  if (with_obs) {
    out.nodes_allocated = sink.counters.get(Counter::kArenaNodesAllocated);
    const JsonValue doc = json_parse(stats_to_json(sink));
    for (const char* section : {"counters", "gauges", "layers"})
      out.det_sections += std::string(section) + "=" + dump(doc.at(section)) + "\n";
  }
  return out;
}

// One net alone in a batch: every other worker is idle for the whole run, so
// BUBBLE_CONSTRUCT's per-candidate forks really run on helpers.  Lanes are
// spliced in candidate order, so the arena, the counters and the result
// must not depend on how many helpers joined — nor on whether a sink is
// attached.
TEST(RangeMemo, SingleNetBatchIsIdenticalAtEveryThreadCount) {
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 6;
  spec.seed = 21;
  const Net net = make_random_net(spec, lib);
  const SingleNetRun serial = single_net_batch(net, 1, true);
  EXPECT_GT(serial.nodes_allocated, 0u);
  EXPECT_NE(serial.det_sections.find("merge_kept"), std::string::npos);
  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    const SingleNetRun with = single_net_batch(net, threads, true);
    EXPECT_EQ(with.digest, serial.digest);
    EXPECT_EQ(with.nodes_allocated, serial.nodes_allocated);
    EXPECT_EQ(with.det_sections, serial.det_sections);
    EXPECT_EQ(single_net_batch(net, threads, false).digest, serial.digest);
  }
}

#ifndef NDEBUG
// A two-sink run table over two candidates, its one run of length 2 added.
struct TinyTable {
  SolutionArena arena;
  std::vector<Point> pts{{0, 0}, {40, 0}};
  WireModel wire;
  PruneConfig prune;
  RangeDp dp{arena, pts, extension_sources(pts, 0), wire, {}, prune};
  RangeDp::Entry run = 0;

  TinyTable() {
    for (std::uint32_t sid = 0; sid < 2; ++sid) {
      const Sink s{Point{static_cast<std::int32_t>(10 + 20 * sid), 5}, 2.0, 100.0};
      std::vector<SolutionCurve> base(pts.size());
      for (std::size_t p = 0; p < pts.size(); ++p)
        push_sink_options(arena, s, static_cast<std::int32_t>(sid), pts[p], wire,
                          {}, base[p]);
      dp.add_terminal(sid, base);
    }
    const std::uint32_t ids[] = {0, 1};
    run = dp.add_run(ids);
  }
};

// The layer phase rules: a run's cells are written only by the solve that
// finishes it and read only after; while layer L is open, Gamma rows of
// earlier layers are read-only.  Live in Debug and sanitizer builds.
TEST(LayerPhaseDeathTest, FinishedRunsAndEarlierLayersAreReadOnly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TinyTable t;
        t.dp.solve(std::span(&t.run, 1));
        t.dp.solve(std::span(&t.run, 1));  // the finished length again
      },
      "write to a finished run");
  EXPECT_DEATH(
      {
        TinyTable t;
        (void)t.dp.curves(t.run);  // before its level is solved
      },
      "read of an unfinished run");
  EXPECT_DEATH(
      {
        GammaTable gamma(3, 2);
        gamma.open_layer(3);
        gamma.at(2, Chi::kChi0, 1, 0).clear();
      },
      "earlier layer");
}
#endif

}  // namespace
}  // namespace merlin
