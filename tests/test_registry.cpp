// Lifetime-telemetry contracts (obs/hist.h, obs/registry.h,
// obs/flightrec.h): histogram bucketing preserves order and bounds
// quantization error; merged quantiles are independent of merge order and
// of how many threads recorded; the daemon registry accumulates across
// sequential jobs and its deterministic histograms are bit-identical
// across thread counts; the flight recorder's ring round-trips through its
// file including wrap-around and rejects structural garbage.  Suite names
// (Hist / Registry / Flight) are wired into CI's TSan filter.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flightrec.h"
#include "obs/hist.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "serve/server.h"

namespace merlin {
namespace {

// -- Hist: the bucketed histogram itself ------------------------------------

TEST(Hist, BucketIndexPreservesOrderAndLowerBoundsNeverOvershoot) {
  // The linear region is exact; above it the bucket lower bound is within
  // 1/kSub of the value (the documented ~3% quantization ceiling).
  std::uint64_t prev_index = 0;
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 200; ++v) probes.push_back(v);
  for (unsigned e = 8; e < 63; ++e) {
    probes.push_back((std::uint64_t{1} << e) - 1);
    probes.push_back(std::uint64_t{1} << e);
    probes.push_back((std::uint64_t{1} << e) + (std::uint64_t{1} << (e - 2)));
  }
  for (const std::uint64_t v : probes) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    ASSERT_LT(i, LatencyHistogram::kSlots) << v;
    EXPECT_GE(i, prev_index) << v;  // probes ascend, so must the index
    prev_index = i;
    const std::uint64_t lower = LatencyHistogram::bucket_lower(i);
    EXPECT_LE(lower, v);
    if (v < LatencyHistogram::kSub) {
      EXPECT_EQ(lower, v);  // exact below the linear/log boundary
    } else {
      EXPECT_LT(static_cast<double>(v - lower),
                static_cast<double>(v) / LatencyHistogram::kSub + 1.0)
          << v;
    }
    // bucket_lower is itself in the bucket it names.
    EXPECT_EQ(LatencyHistogram::bucket_index(lower), i);
  }
}

TEST(Hist, QuantileIsNearestRankOverBucketLowerBounds) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(50), 0u);  // empty: 0, never a crash
  // Values in the linear region are bucket-exact, so nearest-rank is
  // checkable against the raw multiset: 0..19 recorded once each.
  for (std::uint64_t v = 0; v < 20; ++v) h.record(v);
  EXPECT_EQ(h.count(), 20u);
  EXPECT_EQ(h.sum(), 190u);
  EXPECT_EQ(h.max_value(), 19u);
  EXPECT_EQ(h.quantile(50), 9u);    // rank ceil(0.5*20)=10 -> 10th smallest
  EXPECT_EQ(h.quantile(90), 17u);   // rank 18
  EXPECT_EQ(h.quantile(99), 19u);   // rank ceil(19.8)=20
  EXPECT_EQ(h.quantile(100), 19u);
  EXPECT_EQ(h.quantile(0), 0u);     // rank clamps to 1
}

TEST(Hist, MergeIsOrderIndependentAndEqualsSingleWriter) {
  // One writer recording everything == any merge order of partial writers.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 12345;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG, portable
    values.push_back(x >> 40);
  }
  LatencyHistogram whole;
  for (const std::uint64_t v : values) whole.record(v);

  LatencyHistogram parts[3];
  for (std::size_t i = 0; i < values.size(); ++i)
    parts[i % 3].record(values[i]);

  LatencyHistogram ab = parts[0];
  ab.merge_from(parts[1]);
  ab.merge_from(parts[2]);
  LatencyHistogram cb = parts[2];
  cb.merge_from(parts[1]);
  cb.merge_from(parts[0]);
  EXPECT_TRUE(ab == cb);
  EXPECT_TRUE(ab == whole);
  for (const double p : {50.0, 90.0, 99.0, 99.9})
    EXPECT_EQ(ab.quantile(p), whole.quantile(p)) << p;
}

TEST(Hist, MergedQuantilesAreThreadCountInvariant) {
  // The registry discipline in miniature: each thread owns a histogram,
  // merge happens serially afterwards.  For a fixed multiset of values the
  // merged result must not depend on the thread count.
  const auto run = [](std::size_t threads) {
    std::vector<LatencyHistogram> per(threads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&per, t, threads] {
        // Deterministic partition of the same global value set.
        for (std::uint64_t v = t; v < 5000; v += threads)
          per[t].record((v * v) % 100000);
      });
    }
    for (std::thread& w : workers) w.join();
    LatencyHistogram merged;
    for (const LatencyHistogram& h : per) merged.merge_from(h);
    return merged;
  };
  const LatencyHistogram one = run(1);
  for (const std::size_t n : {2u, 3u, 4u}) {
    const LatencyHistogram many = run(n);
    EXPECT_TRUE(one == many) << n << " threads";
  }
}

TEST(Hist, ClearResetsToTheEmptyState) {
  LatencyHistogram h;
  h.record(5);
  h.record(500000);
  h.clear();
  EXPECT_TRUE(h == LatencyHistogram{});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(99), 0u);
}

// -- Registry: the daemon-lifetime accumulator ------------------------------

ObsSink job_sink(std::uint64_t seed) {
  ObsSink s;
  s.add(Counter::kBuffersInserted, 3 + seed);
  s.maximize(Gauge::kCurvePeakWidth, 10 * seed);
  SpanRecord bubble;
  bubble.name = SpanName::kBubbleConstruct;
  bubble.end_ns = 5000 * seed;
  s.record_span(bubble);
  s.record_trace(TraceRecord{static_cast<std::size_t>(seed), 4, 100 * seed,
                             7 + seed, 1, static_cast<std::size_t>(2 + seed)});
  return s;
}

TEST(Registry, AccumulatesJobsCountersHistogramsAndSpans) {
  MetricsRegistry reg;
  reg.note_job(job_sink(1), /*queue_ms=*/1.0, /*run_ms=*/2.0, /*e2e_ms=*/3.0,
               /*queue_depth=*/0);
  reg.note_job(job_sink(2), 2.0, 4.0, 6.0, 1);

  const LifetimeSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.enabled, 1);
  EXPECT_EQ(snap.jobs, 2u);
  EXPECT_EQ(snap.counters.get(Counter::kBuffersInserted), 9u);  // 4 + 5
  EXPECT_EQ(snap.gauges.get(Gauge::kCurvePeakWidth), 20u);      // high water
  const auto bc = static_cast<std::size_t>(SpanName::kBubbleConstruct);
  EXPECT_EQ(snap.spans[bc].total_ns, 15000u);
  EXPECT_EQ(snap.spans[bc].count, 2u);
  EXPECT_EQ(snap.span_us[bc].count(), 2u);  // one sample per job
  EXPECT_EQ(snap.span_us[bc].sum(), 15u);   // 5 us + 10 us

  using H = LifetimeHist;
  EXPECT_EQ(snap.hist[static_cast<std::size_t>(H::kQueueUs)].count(), 2u);
  EXPECT_EQ(snap.hist[static_cast<std::size_t>(H::kE2eUs)].sum(), 9000u);
  // The deterministic per-net histograms hold exactly the trace facts.
  LatencyHistogram buffers;
  buffers.record(3);
  buffers.record(4);
  EXPECT_TRUE(snap.hist[static_cast<std::size_t>(H::kNetBuffers)] == buffers);
}

TEST(Registry, SurvivesAcrossSequentialDaemonRequests) {
  constexpr int kJobs = 5;
  ServeOptions so;
  so.threads = 2;
  ServerCore core(so);
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.kind = JobSpec::Kind::kCircuit;
    spec.flow = 3;
    spec.gates = 14;
    spec.seed = 100 + static_cast<std::uint64_t>(i % 2);  // warm repeats too
    const SubmitOutcome sub = core.submit(1, std::move(spec));
    ASSERT_TRUE(sub.accepted);
    ASSERT_TRUE(core.wait(sub.job_id)->ok);
  }
  const LifetimeSnapshot snap = core.registry().snapshot();
  EXPECT_EQ(snap.jobs, static_cast<std::uint64_t>(kJobs));
  using H = LifetimeHist;
  for (const H h : {H::kQueueUs, H::kRunUs, H::kE2eUs})
    EXPECT_EQ(snap.hist[static_cast<std::size_t>(h)].count(),
              static_cast<std::uint64_t>(kJobs))
        << lifetime_hist_name(h);
  EXPECT_GT(snap.hist[static_cast<std::size_t>(H::kNetBuffers)].count(), 0u);
  EXPECT_GT(snap.counters.get(Counter::kCurvePointsPushed), 0u);
}

TEST(Registry, DeterministicHistogramsAreThreadCountInvariant) {
  const auto run = [](std::size_t threads) {
    ServeOptions so;
    so.threads = threads;
    ServerCore core(so);
    for (const std::uint64_t seed : {5u, 9u}) {
      JobSpec spec;
      spec.kind = JobSpec::Kind::kCircuit;
      spec.flow = 3;
      spec.gates = 16;
      spec.seed = seed;
      const SubmitOutcome sub = core.submit(1, std::move(spec));
      EXPECT_TRUE(sub.accepted);
      EXPECT_TRUE(core.wait(sub.job_id)->ok);
    }
    return core.registry().snapshot();
  };
  const LifetimeSnapshot one = run(1);
  const LifetimeSnapshot four = run(4);
  // Counter/gauge banks aggregate scheduling-independently (the batch-level
  // invariance test holds per job; the registry must preserve it).
  EXPECT_TRUE(one.counters == four.counters);
  // The deterministic histograms are bit-identical; wall-clock ones only
  // agree on count.
  for (std::size_t i = 0; i < kLifetimeHistCount; ++i) {
    const auto h = static_cast<LifetimeHist>(i);
    if (lifetime_hist_deterministic(h)) {
      EXPECT_TRUE(one.hist[i] == four.hist[i]) << lifetime_hist_name(h);
    } else {
      EXPECT_EQ(one.hist[i].count(), four.hist[i].count())
          << lifetime_hist_name(h);
    }
  }
}

TEST(Registry, MetricsJsonParsesAndPrometheusIsWellFormed) {
  ServeOptions so;
  so.threads = 1;
  ServerCore core(so);
  JobSpec spec;
  spec.kind = JobSpec::Kind::kCircuit;
  spec.flow = 3;
  spec.gates = 14;
  spec.seed = 3;
  const SubmitOutcome sub = core.submit(7, std::move(spec));
  ASSERT_TRUE(sub.accepted);
  ASSERT_TRUE(core.wait(sub.job_id)->ok);

  const JsonValue doc = json_parse(core.metrics_json());
  EXPECT_EQ(doc.at("schema_version").number, kStatsSchemaVersion);
  EXPECT_EQ(doc.at("request").at("source").string, "serve");
  EXPECT_EQ(doc.at("serve").at("jobs_admitted").number, 1.0);
  EXPECT_EQ(doc.at("lifetime").at("enabled").number, 1.0);
  EXPECT_EQ(doc.at("lifetime").at("jobs").number, 1.0);
  // Per-span-name histograms, one sample per job: the engine's spans and
  // the daemon's own request span.
  const JsonValue& spans = doc.at("lifetime").at("spans");
  EXPECT_FALSE(doc.at("lifetime").has("phases"));
  EXPECT_EQ(spans.at("bubble.construct").at("count").number, 1.0);
  EXPECT_EQ(spans.at("serve.request").at("count").number, 1.0);

  // Prometheus text format: every non-comment line is `name[{labels}] value`.
  const std::string prom = core.metrics_prometheus();
  EXPECT_NE(prom.find("merlin_jobs_total"), std::string::npos);
  EXPECT_NE(prom.find("merlin_serve_jobs_admitted_total 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE merlin_lifetime_hist summary"),
            std::string::npos);
  EXPECT_NE(prom.find("merlin_span_ns_total{span=\"bubble.construct\"} "),
            std::string::npos);
  EXPECT_EQ(prom.find("merlin_phase_ns_total"), std::string::npos);
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    // The value parses as a number, completely.
    char* end = nullptr;
    (void)std::strtod(line.c_str() + sp + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
    // The metric name is [a-z_][a-z0-9_]*, optionally with a {label} block.
    std::size_t name_end = line.find('{');
    if (name_end == std::string::npos) {
      name_end = sp;
    } else {
      EXPECT_EQ(line[sp - 1], '}') << line;
    }
    for (std::size_t i = 0; i < name_end; ++i) {
      const char c = line[i];
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')
          << line;
    }
  }
}

// -- Flight: the crash black box --------------------------------------------

std::string flight_dir() {
  char tmpl[] = "/tmp/merlin_flight_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "/tmp";
}

TEST(Flight, RecorderRoundTripsThroughItsFileIncludingWrapAround) {
  const std::string dir = flight_dir();
  const std::string ring = dir + "/flight.ring";
  {
    FlightRecorder rec;
    std::string err;
    ASSERT_TRUE(rec.open(ring, /*capacity=*/4, &err)) << err;
    ASSERT_TRUE(rec.armed());
    // 6 events into 4 slots: the oldest two must fall off the ring.
    for (std::uint64_t i = 0; i < 6; ++i)
      rec.record(static_cast<FlightEvent>(i % 3), /*job_id=*/i,
                 /*arg=*/100 + i);

    FlightDump live;
    ASSERT_TRUE(FlightRecorder::load(ring, &live, &err)) << err;
    EXPECT_EQ(live.total, 6u);
    EXPECT_EQ(live.capacity, 4u);
    ASSERT_EQ(live.events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(live.events[i].job_id, i + 2);  // oldest first: 2,3,4,5
      EXPECT_EQ(live.events[i].arg, 102 + i);
      EXPECT_LT(live.events[i].event,
                static_cast<std::uint8_t>(FlightEvent::kCount));
    }
    // Timestamps are monotone within a single-writer sequence.
    EXPECT_LE(live.events.front().ns, live.events.back().ns);
  }
  // Reopening truncates: each daemon boot starts a fresh black box.
  {
    FlightRecorder rec;
    ASSERT_TRUE(rec.open(ring, 4, nullptr));
    FlightDump fresh;
    ASSERT_TRUE(FlightRecorder::load(ring, &fresh, nullptr));
    EXPECT_EQ(fresh.total, 0u);
    EXPECT_TRUE(fresh.events.empty());
  }
  std::remove(ring.c_str());
  std::remove(dir.c_str());
}

TEST(Flight, LoadRejectsGarbageAndUnarmedRecordIsANoOp) {
  const std::string dir = flight_dir();
  FlightDump dump;
  std::string err;

  EXPECT_FALSE(FlightRecorder::load(dir + "/missing", &dump, &err));
  EXPECT_FALSE(err.empty());

  const std::string garbage = dir + "/garbage";
  std::ofstream(garbage, std::ios::binary) << "not a flight ring at all";
  EXPECT_FALSE(FlightRecorder::load(garbage, &dump, &err));
  std::remove(garbage.c_str());

  FlightRecorder rec;  // never opened
  EXPECT_FALSE(rec.armed());
  rec.record(FlightEvent::kAdmit, 1, 1);  // unarmed: a safe no-op
  std::remove(dir.c_str());
}

TEST(Flight, LoadRejectsABadHeaderWithoutReadingTheBody) {
  // A 256 MiB sparse file of zeros: its all-zero header is rejected after
  // 24 bytes, so the load's peak RSS barely moves (reading the whole file
  // first peaked at about 258 MB).
  const std::string dir = flight_dir();
  const std::string path = dir + "/zeros.ring";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, off_t{256} << 20), 0);
  ::close(fd);
  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  FlightDump dump;
  std::string err;
  EXPECT_FALSE(FlightRecorder::load(path, &dump, &err));
  EXPECT_NE(err.find("bad header"), std::string::npos) << err;
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024)  // KiB
      << "peak RSS grew by " << after.ru_maxrss - before.ru_maxrss << " KiB";
  std::remove(path.c_str());
  std::remove(dir.c_str());
}

}  // namespace
}  // namespace merlin
