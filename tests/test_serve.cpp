// The merlin_d serving layer, bottom-up: frame codec and payload structs
// (ServeFrame), bounded fair admission (ServeQueue), the socket-free core —
// including the daemon-vs-CLI determinism contract (ServeCore,
// ServeCliDifferential), the unix-socket transport end-to-end
// (ServeSocket), and the merlin_d and merlin_stat binaries driven as a
// deployment would drive them: exit codes, signals, kill -9, snapshot
// restarts and scrapes (ServeDaemon).  Suite names all carry "Serve" so
// CI's TSan filter picks every one of them up.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <regex.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "buflib/library.h"
#include "cache/shard.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "io/bytes.h"
#include "io/netfile.h"
#include "net/generator.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/server.h"

namespace merlin {
namespace {

// -- ServeFrame: wire codec -------------------------------------------------

TEST(ServeFrame, FrameRoundTripsEveryRequestAndResponseType) {
  const std::array<MsgType, 17> types = {
      MsgType::kReqPing,    MsgType::kReqSubmitCircuit,
      MsgType::kReqSubmitNet, MsgType::kReqStatus,
      MsgType::kReqStats,   MsgType::kReqDrain,
      MsgType::kReqShutdown, MsgType::kReqSnapshot,
      MsgType::kReqMetrics,
      MsgType::kRespPong,
      MsgType::kRespResult, MsgType::kRespStatus,
      MsgType::kRespStats,  MsgType::kRespOk,
      MsgType::kRespBye,    MsgType::kRespError,
      MsgType::kRespMetrics,
  };
  for (const MsgType t : types) {
    std::string buf;
    const std::string payload = "payload-for-" + std::string(msg_type_name(t));
    append_frame(buf, t, payload);
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kFrame);
    EXPECT_EQ(consumed, buf.size());
    EXPECT_EQ(f.type, t);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(ServeFrame, PayloadStructsRoundTrip) {
  SubmitCircuitReq c;
  c.gates = 123;
  c.seed = 456;
  c.flow = 2;
  c.deadline_ms = 2500;
  SubmitCircuitReq c2;
  ASSERT_TRUE(c2.decode(c.encode()));
  EXPECT_EQ(c2.gates, 123u);
  EXPECT_EQ(c2.seed, 456u);
  EXPECT_EQ(c2.flow, 2);
  EXPECT_EQ(c2.deadline_ms, 2500u);

  SubmitNetReq n;
  n.flow = 1;
  n.deadline_ms = 77;
  const char raw[] = "net with\nnewlines and \0 binary";
  n.net_text.assign(raw, sizeof(raw) - 1);
  SubmitNetReq n2;
  ASSERT_TRUE(n2.decode(n.encode()));
  EXPECT_EQ(n2.net_text, n.net_text);
  EXPECT_EQ(n2.deadline_ms, 77u);

  ResultResp r;
  r.job_id = 7;
  r.ok = 1;
  r.delay_ps = 1234.5;
  r.area = -0.0;  // bit patterns must survive, not just values
  r.buffers = 42;
  r.nets = 99;
  r.digest = 0xDEADBEEFCAFEF00Dull;
  r.queue_ms = 0.25;
  r.wall_ms = 17.0;
  ResultResp r2;
  ASSERT_TRUE(r2.decode(r.encode()));
  EXPECT_EQ(r2.job_id, 7u);
  EXPECT_EQ(r2.digest, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(r2.delay_ps, 1234.5);
  EXPECT_TRUE(std::signbit(r2.area));

  ErrorResp e;
  e.code = static_cast<std::uint8_t>(ServeError::kQueueFull);
  e.retry_after_ms = 350;
  e.message = "try later";
  ErrorResp e2;
  ASSERT_TRUE(e2.decode(e.encode()));
  EXPECT_EQ(e2.retry_after_ms, 350u);
  EXPECT_EQ(e2.message, "try later");

  MetricsResp m;
  m.json = R"({"lifetime": {"enabled": 1}})";
  m.prometheus = "merlin_jobs_total 3\n";
  MetricsResp m2;
  ASSERT_TRUE(m2.decode(m.encode()));
  EXPECT_EQ(m2.json, m.json);
  EXPECT_EQ(m2.prometheus, m.prometheus);
}

TEST(ServeFrame, TruncatedFrameAsksForMoreWithoutConsuming) {
  std::string buf;
  append_frame(buf, MsgType::kReqPing, "0123456789");
  Frame f;
  std::size_t consumed = 123;
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const std::string partial = buf.substr(0, cut);
    EXPECT_EQ(decode_frame(partial, f, consumed), DecodeStatus::kNeedMore)
        << "cut=" << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(ServeFrame, BadMagicOversizeAndUnknownTypeAreRejected) {
  Frame f;
  std::size_t consumed = 0;

  std::string garbage = "this is not a MERLIN frame at all!";
  EXPECT_EQ(decode_frame(garbage, f, consumed), DecodeStatus::kBadMagic);

  // Valid magic, oversize declared length: rejected BEFORE the payload
  // arrives (nothing should wait for 2 GB that will never come).
  std::string oversize;
  ByteWriter w(oversize);
  w.u32(kWireMagic);
  w.u8(static_cast<std::uint8_t>(MsgType::kReqPing));
  w.u32(static_cast<std::uint32_t>(kMaxFramePayload + 1));
  EXPECT_EQ(decode_frame(oversize, f, consumed), DecodeStatus::kOversize);

  std::string badtype;
  ByteWriter w2(badtype);
  w2.u32(kWireMagic);
  w2.u8(200);  // not a MsgType
  w2.u32(0);
  EXPECT_EQ(decode_frame(badtype, f, consumed), DecodeStatus::kBadType);
}

TEST(ServeFrame, CorruptPayloadsFailDecodeCleanly) {
  // String length prefix pointing past the payload end.
  std::string lying;
  ByteWriter w(lying);
  w.u8(3);
  w.u32(1000000);  // "string of a million bytes" ... followed by nothing
  SubmitNetReq n;
  EXPECT_FALSE(n.decode(lying));

  // Trailing bytes after a complete payload are a decode failure too.
  SubmitCircuitReq c;
  c.gates = 10;
  std::string extra = c.encode() + "x";
  SubmitCircuitReq c2;
  EXPECT_FALSE(c2.decode(extra));

  // Field-level nonsense: zero gates, out-of-range flow.
  SubmitCircuitReq zero;
  zero.gates = 0;
  EXPECT_FALSE(c2.decode(zero.encode()));
  SubmitCircuitReq badflow;
  badflow.gates = 5;
  badflow.flow = 9;
  EXPECT_FALSE(c2.decode(badflow.encode()));
}

// -- ServeQueue: bounded fair admission -------------------------------------

QueuedJob make_job(std::uint64_t id, std::uint64_t client) {
  QueuedJob j;
  j.job_id = id;
  j.client = client;
  return j;
}

TEST(ServeQueue, RejectsWhenFull) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.try_push(make_job(1, 1)));
  EXPECT_TRUE(q.try_push(make_job(2, 1)));
  EXPECT_FALSE(q.try_push(make_job(3, 1)));  // backpressure
  (void)q.pop();
  EXPECT_TRUE(q.try_push(make_job(4, 1)));  // capacity freed by the pop
}

TEST(ServeQueue, RoundRobinAcrossClientsInFirstArrivalOrder) {
  AdmissionQueue q(8);
  // A floods, then B and C each submit one: fairness interleaves them.
  ASSERT_TRUE(q.try_push(make_job(1, 'A')));
  ASSERT_TRUE(q.try_push(make_job(2, 'A')));
  ASSERT_TRUE(q.try_push(make_job(3, 'A')));
  ASSERT_TRUE(q.try_push(make_job(4, 'B')));
  ASSERT_TRUE(q.try_push(make_job(5, 'C')));
  std::vector<std::uint64_t> order;
  while (q.size() > 0) order.push_back(q.pop()->job_id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 4, 5, 2, 3}));
}

TEST(ServeQueue, PositionReportsDispatchDistance) {
  AdmissionQueue q(8);
  ASSERT_TRUE(q.try_push(make_job(1, 'A')));
  ASSERT_TRUE(q.try_push(make_job(2, 'A')));
  ASSERT_TRUE(q.try_push(make_job(3, 'B')));
  // Dispatch order will be 1, 3, 2.
  EXPECT_EQ(q.position(1), std::size_t{0});
  EXPECT_EQ(q.position(3), std::size_t{1});
  EXPECT_EQ(q.position(2), std::size_t{2});
  EXPECT_EQ(q.position(99), std::nullopt);
  (void)q.pop();
  EXPECT_EQ(q.position(3), std::size_t{0});
}

TEST(ServeQueue, CloseStopsAdmissionButDrainsTheBacklog) {
  AdmissionQueue q(8);
  ASSERT_TRUE(q.try_push(make_job(1, 'A')));
  ASSERT_TRUE(q.try_push(make_job(2, 'B')));
  q.close();
  EXPECT_FALSE(q.try_push(make_job(3, 'A')));  // no new admissions
  EXPECT_TRUE(q.pop().has_value());  // but the backlog drains
  EXPECT_TRUE(q.pop().has_value());
  EXPECT_EQ(q.pop(), std::nullopt);  // closed AND empty
}

// -- ServeCore: the determinism contract ------------------------------------

JobSpec circuit_spec(std::uint64_t gates, std::uint64_t seed,
                     std::uint8_t flow = 3) {
  JobSpec s;
  s.kind = JobSpec::Kind::kCircuit;
  s.flow = flow;
  s.gates = gates;
  s.seed = seed;
  return s;
}

/// A one-shot run built exactly the way merlin_cli --circuit builds it
/// (fresh cache of the CLI's default sizing, fresh pool).
BatchResult cli_equivalent_run(std::uint64_t gates, std::uint64_t seed,
                               std::size_t threads) {
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
  opts.threads = threads;
  opts.cache = &cache;
  return BatchRunner(lib, opts).run(ckt);
}

TEST(ServeCore, ColdDaemonRunIsBitIdenticalToOneShotRun) {
  ServeOptions so;
  so.threads = 2;
  so.keep_results = true;
  ServerCore core(so);
  const SubmitOutcome sub = core.submit(1, circuit_spec(20, 7));
  ASSERT_TRUE(sub.accepted);
  const auto oc = core.wait(sub.job_id);
  ASSERT_NE(oc, nullptr);
  ASSERT_TRUE(oc->ok) << oc->error;
  ASSERT_NE(oc->result, nullptr);

  const BatchResult direct = cli_equivalent_run(20, 7, 2);
  EXPECT_TRUE(batch_results_identical(*oc->result, direct));
  EXPECT_EQ(oc->digest, batch_result_digest(direct));
}

TEST(ServeCore, WarmRerunsAreEquivalentAndDigestIdentical) {
  ServeOptions so;
  so.threads = 2;
  so.keep_results = true;
  ServerCore core(so);
  const SubmitOutcome a = core.submit(1, circuit_spec(16, 3));
  ASSERT_TRUE(a.accepted);
  const auto oa = core.wait(a.job_id);
  ASSERT_TRUE(oa->ok);
  const SubmitOutcome b = core.submit(1, circuit_spec(16, 3));
  ASSERT_TRUE(b.accepted);
  const auto ob = core.wait(b.job_id);
  ASSERT_TRUE(ob->ok);
  // The warm rerun serves sub-problems from the shared store — cache
  // counters shift (hence "equivalent", not "identical") but structure,
  // evaluation and therefore the digest cannot.
  EXPECT_TRUE(batch_results_equivalent(*oa->result, *ob->result));
  EXPECT_EQ(oa->digest, ob->digest);
}

TEST(ServeCore, ResultsAreThreadCountInvariant) {
  JobOutcome outcomes[2];
  const std::size_t thread_counts[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    ServeOptions so;
    so.threads = thread_counts[i];
    so.keep_results = true;
    ServerCore core(so);
    const SubmitOutcome sub = core.submit(1, circuit_spec(16, 5));
    ASSERT_TRUE(sub.accepted);
    outcomes[i] = *core.wait(sub.job_id);
    ASSERT_TRUE(outcomes[i].ok);
  }
  EXPECT_TRUE(
      batch_results_identical(*outcomes[0].result, *outcomes[1].result));
  EXPECT_EQ(outcomes[0].digest, outcomes[1].digest);
}

TEST(ServeCore, StatsJsonCarriesTheRequestIdentity) {
  ServerCore core(ServeOptions{});
  const SubmitOutcome sub = core.submit(42, circuit_spec(16, 5));
  ASSERT_TRUE(sub.accepted);
  const auto oc = core.wait(sub.job_id);
  ASSERT_TRUE(oc->ok);
  const JsonValue doc = json_parse(oc->stats_json);
  EXPECT_EQ(doc.at("schema").string, "merlin.stats");
  EXPECT_EQ(doc.at("schema_version").number, kStatsSchemaVersion);
  const JsonValue& req = doc.at("request");
  EXPECT_EQ(req.at("id").number, static_cast<double>(sub.job_id));
  EXPECT_EQ(req.at("source").string, "serve");
  EXPECT_EQ(req.at("client").number, 42.0);
  EXPECT_GE(req.at("queue_ms").number, 0.0);
  // And the core's stats accessor serves the same document.
  EXPECT_EQ(core.stats_json(sub.job_id), oc->stats_json);
}

TEST(ServeCore, NetJobsRunTheNetfileGrammar) {
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.name = "srvnet";
  spec.n_sinks = 9;
  spec.seed = 77;
  const Net net = make_random_net(spec, lib);
  std::ostringstream text;
  write_net(text, net);

  ServeOptions so;
  so.keep_results = true;
  ServerCore core(so);
  JobSpec js;
  js.kind = JobSpec::Kind::kNet;
  js.net_text = text.str();
  const SubmitOutcome sub = core.submit(1, std::move(js));
  ASSERT_TRUE(sub.accepted);
  const auto oc = core.wait(sub.job_id);
  ASSERT_TRUE(oc->ok) << oc->error;
  EXPECT_EQ(oc->nets, 1u);

  // Same net, one-shot: identical tree.
  BatchOptions bo;
  const BatchResult direct = BatchRunner(lib, bo).run_nets({net});
  EXPECT_TRUE(batch_results_identical(*oc->result, direct));
}

TEST(ServeCore, MalformedNetTextFailsTheJobNotTheDaemon) {
  ServerCore core(ServeOptions{});
  JobSpec js;
  js.kind = JobSpec::Kind::kNet;
  js.net_text = "this is not a net file";
  const SubmitOutcome sub = core.submit(1, std::move(js));
  ASSERT_TRUE(sub.accepted);
  const auto oc = core.wait(sub.job_id);
  ASSERT_NE(oc, nullptr);
  EXPECT_FALSE(oc->ok);
  EXPECT_FALSE(oc->error.empty());
  // The daemon is still serving.
  const SubmitOutcome again = core.submit(1, circuit_spec(16, 9));
  ASSERT_TRUE(again.accepted);
  EXPECT_TRUE(core.wait(again.job_id)->ok);
}

TEST(ServeCore, DrainRejectsNewSubmitsButFinishesAdmittedJobs) {
  ServeOptions so;
  so.queue_capacity = 8;
  ServerCore core(so);
  std::vector<std::uint64_t> admitted;
  for (int i = 0; i < 3; ++i) {
    const SubmitOutcome sub = core.submit(1, circuit_spec(16, 1 + 2 * i));
    ASSERT_TRUE(sub.accepted);
    admitted.push_back(sub.job_id);
  }
  core.begin_drain();
  const SubmitOutcome rejected = core.submit(1, circuit_spec(20, 999));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.error, ServeError::kDraining);
  // Every job admitted before the drain still completes.
  for (const std::uint64_t id : admitted) {
    const auto oc = core.wait(id);
    ASSERT_NE(oc, nullptr);
    EXPECT_TRUE(oc->ok);
  }
  core.wait_drained();
  EXPECT_EQ(core.jobs_completed(), 3u);
}

TEST(ServeCore, BackpressureCarriesARetryAfterHint) {
  ServeOptions so;
  so.queue_capacity = 1;
  ServerCore core(so);
  // Saturate: one job running or queued, one queued, then rejection.  The
  // first submit may dispatch immediately, so push until the queue refuses.
  bool saw_rejection = false;
  for (int i = 0; i < 32 && !saw_rejection; ++i) {
    const SubmitOutcome sub = core.submit(1, circuit_spec(16, 11));
    if (!sub.accepted) {
      EXPECT_EQ(sub.error, ServeError::kQueueFull);
      EXPECT_GT(sub.retry_after_ms, 0u);
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);
}

TEST(ServeCore, UnknownJobsReportUnknown) {
  ServerCore core(ServeOptions{});
  std::uint64_t pos = 0;
  EXPECT_EQ(core.status(12345, pos), JobState::kUnknown);
  EXPECT_EQ(core.stats_json(12345), std::nullopt);
  EXPECT_EQ(core.wait(12345), nullptr);
}

TEST(ServeCore, FinishedRecordsAreKeptBoundedOldestFirst) {
  // One more finished job than the daemon keeps: the first one's record is
  // dropped (status, stats and wait all read it as unknown), the second
  // and the last are still there.
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 1;  // a trivial net: no DP, so the jobs stay tiny
  spec.seed = 5;
  std::ostringstream text;
  write_net(text, make_random_net(spec, lib));
  ServerCore core(ServeOptions{});
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i <= ServerCore::kFinishedJobsKept; ++i) {
    JobSpec js;
    js.kind = JobSpec::Kind::kNet;
    js.net_text = text.str();
    const SubmitOutcome sub = core.submit(1, std::move(js));
    ASSERT_TRUE(sub.accepted);
    const auto oc = core.wait(sub.job_id);
    ASSERT_NE(oc, nullptr);
    ASSERT_TRUE(oc->ok) << oc->error;
    ids.push_back(sub.job_id);
  }
  std::uint64_t pos = 0;
  EXPECT_EQ(core.stats_json(ids.front()), std::nullopt);
  EXPECT_EQ(core.status(ids.front(), pos), JobState::kUnknown);
  EXPECT_EQ(core.wait(ids.front()), nullptr);
  EXPECT_TRUE(core.stats_json(ids[1]).has_value());
  ASSERT_TRUE(core.stats_json(ids.back()).has_value());
  EXPECT_FALSE(core.stats_json(ids.back())->empty());
  EXPECT_EQ(core.status(ids.back(), pos), JobState::kDone);
}

// -- ServeSurvivability: deadlines, shedding, snapshots ---------------------

TEST(ServeSurvivability, StatsJsonCarriesTheServeSection) {
  ServerCore core(ServeOptions{});
  const SubmitOutcome sub = core.submit(1, circuit_spec(16, 5));
  ASSERT_TRUE(sub.accepted);
  const auto oc = core.wait(sub.job_id);
  ASSERT_TRUE(oc->ok);
  const JsonValue doc = json_parse(oc->stats_json);
  const JsonValue& serve = doc.at("serve");
  EXPECT_EQ(serve.at("enabled").number, 1.0);
  EXPECT_GE(serve.at("jobs_admitted").number, 1.0);
  EXPECT_EQ(serve.at("overload_rejections").number, 0.0);
  EXPECT_EQ(serve.at("deadline_expired").number, 0.0);
  EXPECT_EQ(serve.at("snapshot_loads").number, 0.0);
  EXPECT_EQ(serve.at("overloaded").number, 0.0);
}

TEST(ServeSurvivability, ExpiredDeadlineRejectsWithoutRunningAndKeepsServing) {
  ServeOptions so;
  so.queue_capacity = 16;
  ServerCore core(so);
  // Three real jobs ahead guarantee the 1 ms deadline is long dead by the
  // time the scheduler reaches the deadlined one.
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(core.submit(1, circuit_spec(16, 100 + i)).accepted);
  JobSpec doomed = circuit_spec(16, 999);
  doomed.deadline_ms = 1;
  const SubmitOutcome sub = core.submit(1, std::move(doomed));
  ASSERT_TRUE(sub.accepted);
  const auto oc = core.wait(sub.job_id);
  ASSERT_NE(oc, nullptr);
  EXPECT_FALSE(oc->ok);
  EXPECT_TRUE(oc->deadline_expired);
  EXPECT_NE(oc->error.find("deadline"), std::string::npos) << oc->error;
  // The rejection produced a stats document that records the event.
  const JsonValue doc = json_parse(oc->stats_json);
  EXPECT_EQ(doc.at("counters").at("serve_deadline_expired").number, 1.0);
  EXPECT_GE(doc.at("serve").at("deadline_expired").number, 1.0);
  // The daemon keeps serving: a fresh undeadlined job completes normally.
  const SubmitOutcome again = core.submit(1, circuit_spec(16, 42));
  ASSERT_TRUE(again.accepted);
  EXPECT_TRUE(core.wait(again.job_id)->ok);
}

TEST(ServeSurvivability, GenerousDeadlineDoesNotChangeTheResult) {
  ServeOptions so;
  so.keep_results = true;
  ServerCore core(so);
  JobSpec relaxed = circuit_spec(16, 5);
  relaxed.deadline_ms = 10 * 60 * 1000;  // ten minutes: will never bind
  const SubmitOutcome a = core.submit(1, std::move(relaxed));
  ASSERT_TRUE(a.accepted);
  const auto oa = core.wait(a.job_id);
  ASSERT_TRUE(oa->ok);

  ServeOptions fo;
  fo.keep_results = true;
  ServerCore fresh(fo);
  const SubmitOutcome b = fresh.submit(1, circuit_spec(16, 5));
  ASSERT_TRUE(b.accepted);
  const auto ob = fresh.wait(b.job_id);
  ASSERT_TRUE(ob->ok);
  EXPECT_EQ(oa->digest, ob->digest);
}

TEST(ServeSurvivability, OverloadShedsFloodingClientWithTypedError) {
  ServeOptions so;
  so.queue_capacity = 32;
  so.shed_queue_depth = 1;  // overloaded as soon as anything queues
  so.shed_lane_cap = 1;     // and then one queued job per client is the cap
  ServerCore core(so);
  bool saw_overloaded = false;
  for (int i = 0; i < 32 && !saw_overloaded; ++i) {
    const SubmitOutcome sub = core.submit(7, circuit_spec(16, 11));
    if (!sub.accepted) {
      EXPECT_EQ(sub.error, ServeError::kOverloaded);
      EXPECT_GT(sub.retry_after_ms, 0u);
      saw_overloaded = true;
    }
  }
  EXPECT_TRUE(saw_overloaded);
}

TEST(ServeSurvivability, SheddingOffByDefaultStillRejectsOnlyWhenFull) {
  // With every shed threshold at its zero default, a flood earns
  // err.queue_full (the pre-existing contract), never err.overloaded.
  ServeOptions so;
  so.queue_capacity = 1;
  ServerCore core(so);
  for (int i = 0; i < 32; ++i) {
    const SubmitOutcome sub = core.submit(1, circuit_spec(16, 11));
    if (!sub.accepted) {
      EXPECT_EQ(sub.error, ServeError::kQueueFull);
      return;
    }
  }
  FAIL() << "queue of capacity 1 never rejected 32 submits";
}

/// A temp dir + snapshot path, cleaned up on destruction.
struct SnapshotDir {
  SnapshotDir() {
    char tmpl[] = "/tmp/merlin_snap_XXXXXX";
    const char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) dir = d;  // copied: tmpl dies with the constructor
    path = dir + "/cache.snap";
  }
  ~SnapshotDir() {
    std::remove(path.c_str());
    if (!dir.empty()) rmdir(dir.c_str());
  }
  std::string dir;
  std::string path;
};

TEST(ServeSurvivability, WarmRestartFromSnapshotIsDigestIdenticalAndWarm) {
  SnapshotDir snap;
  std::uint64_t first_digest = 0;
  {
    ServeOptions so;
    so.snapshot_path = snap.path;
    ServerCore core(so);
    const SubmitOutcome sub = core.submit(1, circuit_spec(18, 5));
    ASSERT_TRUE(sub.accepted);
    const auto oc = core.wait(sub.job_id);
    ASSERT_TRUE(oc->ok);
    first_digest = oc->digest;
    // Destruction drains, and the drain persists the warm cache.
  }
  {
    ServeOptions so;
    so.snapshot_path = snap.path;
    ServerCore core(so);
    const SubmitOutcome sub = core.submit(1, circuit_spec(18, 5));
    ASSERT_TRUE(sub.accepted);
    const auto oc = core.wait(sub.job_id);
    ASSERT_TRUE(oc->ok);
    // Bit-identical answer from the restored store...
    EXPECT_EQ(oc->digest, first_digest);
    // ...and it genuinely ran warm: every searched net was answered by its
    // restored memo entry.  MERLIN_CACHE=off detaches the store from every
    // run, so nothing is published or hit and only the digest identity
    // applies.
    const JsonValue doc = json_parse(oc->stats_json);
    if (!cache_env_off()) {
      const JsonValue& c = doc.at("counters");
      EXPECT_GT(c.at("net_memo_hits").number, 0.0);
      EXPECT_EQ(c.at("net_memo_hits").number,
                c.at("nets_processed").number - c.at("trivial_nets").number);
    }
    EXPECT_EQ(doc.at("serve").at("snapshot_loads").number, 1.0);
    EXPECT_NE(core.snapshot_note().find("loaded"), std::string::npos)
        << core.snapshot_note();
  }
}

TEST(ServeSurvivability, CorruptSnapshotColdStartsTheDaemon) {
  SnapshotDir snap;
  {
    ServeOptions so;
    so.snapshot_path = snap.path;
    ServerCore core(so);
    ASSERT_TRUE(core.wait(core.submit(1, circuit_spec(16, 3)).job_id)->ok);
  }
  // Flip one byte in the middle of the file.
  {
    FILE* f = std::fopen(snap.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_GT(size, 32);
    std::fseek(f, size / 2, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  ServeOptions so;
  so.snapshot_path = snap.path;
  ServerCore core(so);  // must not crash
  EXPECT_NE(core.snapshot_note().find("corrupt"), std::string::npos)
      << core.snapshot_note();
  const auto oc = core.wait(core.submit(1, circuit_spec(16, 3)).job_id);
  ASSERT_NE(oc, nullptr);
  EXPECT_TRUE(oc->ok);  // cold but serving
  const JsonValue doc = json_parse(oc->stats_json);
  EXPECT_EQ(doc.at("serve").at("snapshot_loads").number, 0.0);
}

TEST(ServeSurvivability, SaveSnapshotRequiresAnArmedPath) {
  ServerCore core(ServeOptions{});
  EXPECT_FALSE(core.snapshot_armed());
  std::string err;
  EXPECT_FALSE(core.save_snapshot(&err));
  EXPECT_FALSE(err.empty());
}

TEST(ServeCore, SnapshotDuringARunningJobWaitsForItsPublish) {
  // A save asked for while a job runs is served by the scheduler after the
  // job's publish, so it already holds everything a save after wait()
  // holds — and it never walks the cache beside the running batch.
  SnapshotDir snap;
  ServeOptions so;
  so.threads = 2;
  so.snapshot_path = snap.path;
  ServerCore core(so);
  const SubmitOutcome sub = core.submit(1, circuit_spec(26, 7));  // ~0.3 s
  ASSERT_TRUE(sub.accepted);
  std::uint64_t position = 0;
  while (core.status(sub.job_id, position) == JobState::kQueued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(core.status(sub.job_id, position), JobState::kRunning);
  std::string err;
  ASSERT_TRUE(core.save_snapshot(&err)) << err;
  std::string during;
  ASSERT_TRUE(read_file(snap.path, during));

  ASSERT_TRUE(core.wait(sub.job_id)->ok);
  ASSERT_TRUE(core.save_snapshot(&err)) << err;
  std::string after;
  ASSERT_TRUE(read_file(snap.path, after));
  EXPECT_FALSE(during.empty());
  EXPECT_EQ(during.size(), after.size());
  EXPECT_TRUE(during == after) << "the mid-job save differs from the later one";
  // The job published (MERLIN_CACHE=off detaches the store, so there both
  // files are the empty snapshot).
  SubproblemCache restored(CacheConfig{1u << 22});
  ASSERT_TRUE(load_cache_snapshot(restored, snap.path).loaded());
  if (!cache_env_off()) {
    EXPECT_GT(restored.entry_count(), 0u);
  }
}

TEST(ServeCore, ABacklogOfJobsCannotStarveASave) {
  // The scheduler serves a requested save before the next job: with twelve
  // never-seen circuits queued, a save asked for while the jobs run
  // returns after the job that was running, not after the backlog.
  SnapshotDir snap;
  ServeOptions so;
  so.threads = 2;
  so.snapshot_path = snap.path;
  ServerCore core(so);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const SubmitOutcome sub = core.submit(seed % 2, circuit_spec(16, seed));
    ASSERT_TRUE(sub.accepted);
    ids.push_back(sub.job_id);
  }
  std::uint64_t position = 0;
  while (core.status(ids[0], position) == JobState::kQueued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::uint64_t before = core.jobs_completed();
  std::string err;
  ASSERT_TRUE(core.save_snapshot(&err)) << err;
  const std::uint64_t after = core.jobs_completed();
  EXPECT_LT(after, ids.size()) << "the backlog drained before the save";
  EXPECT_LE(after - before, 3u);
  for (const std::uint64_t id : ids) ASSERT_TRUE(core.wait(id)->ok);
}

TEST(ServeCore, CadenceWritesLandWhileIdleAndBetweenJobs) {
  // The scheduler runs the --snapshot-every cadence itself: on an idle
  // core it wakes for the tick, and under load it writes between jobs,
  // not only once the queue is empty.
  SnapshotDir snap;
  const std::string metrics = snap.dir + "/metrics.json";
  ServeOptions so;
  so.snapshot_path = snap.path;
  so.snapshot_every_s = 1;
  so.metrics_out = metrics;
  ServerCore core(so);
  using std::filesystem::exists;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((!exists(snap.path) || !exists(metrics)) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(exists(snap.path)) << "no cadence snapshot on an idle core";
  EXPECT_TRUE(exists(metrics)) << "no cadence metrics dump on an idle core";

  // Keep never-seen circuits queued until the next save lands: the queue
  // never empties, so the save can only land between two jobs.
  const std::uint64_t saves0 = core.serve_info().snapshot_saves;
  std::vector<std::uint64_t> ids;
  std::uint64_t seed = 1;
  while (core.serve_info().snapshot_saves == saves0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (core.serve_info().queue_depth < 2) {
      const SubmitOutcome sub = core.submit(1, circuit_spec(14, seed++));
      ASSERT_TRUE(sub.accepted);
      ids.push_back(sub.job_id);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(core.serve_info().snapshot_saves, saves0)
      << "a queue that never empties starved the cadence save";
  EXPECT_FALSE(ids.empty());
  for (const std::uint64_t id : ids) ASSERT_TRUE(core.wait(id)->ok);
  core.begin_drain();
  core.wait_drained();
  std::remove(metrics.c_str());
}

TEST(ServeCore, SaveAfterTheDrainReturnsTheFinalSave) {
  // Once the scheduler has made its final save and exited, a save request
  // is answered at once with that save's result; the store cannot change
  // after it, so nothing is written again.
  SnapshotDir snap;
  ServeOptions so;
  so.snapshot_path = snap.path;
  ServerCore core(so);
  ASSERT_TRUE(core.wait(core.submit(1, circuit_spec(16, 3)).job_id)->ok);
  core.begin_drain();
  core.wait_drained();
  std::string drained;
  ASSERT_TRUE(read_file(snap.path, drained));
  struct stat before {};
  ASSERT_EQ(::stat(snap.path.c_str(), &before), 0);
  const std::uint64_t saves = core.serve_info().snapshot_saves;

  const auto t0 = std::chrono::steady_clock::now();
  std::string err;
  EXPECT_TRUE(core.save_snapshot(&err)) << err;
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  std::string again;
  ASSERT_TRUE(read_file(snap.path, again));
  EXPECT_TRUE(again == drained) << "the drain's snapshot changed";
  struct stat after {};
  ASSERT_EQ(::stat(snap.path.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino) << "the snapshot was rewritten";
  EXPECT_EQ(core.serve_info().snapshot_saves, saves);
}

// -- ServeCliDifferential: against the real binary --------------------------

#ifdef MERLIN_CLI_PATH
TEST(ServeCliDifferential, DaemonDigestMatchesCliDigest) {
  // The CLI side.
  const std::string cmd =
      std::string(MERLIN_CLI_PATH) + " --circuit 20 7 --threads 2 --digest 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  ASSERT_EQ(pclose(pipe), 0) << out;
  const auto pos = out.find("digest=");
  ASSERT_NE(pos, std::string::npos) << out;
  const std::uint64_t cli_digest =
      std::strtoull(out.c_str() + pos + 7, nullptr, 16);

  // The daemon side, same circuit, same thread count.
  ServeOptions so;
  so.threads = 2;
  ServerCore core(so);
  const SubmitOutcome sub = core.submit(1, circuit_spec(20, 7));
  ASSERT_TRUE(sub.accepted);
  const auto oc = core.wait(sub.job_id);
  ASSERT_TRUE(oc->ok);
  EXPECT_EQ(oc->digest, cli_digest);
}
#endif

// -- ServeSocket: the transport end-to-end ----------------------------------

/// A ServerCore + SocketServer pair on a temp socket, served from a
/// background thread.  shutdown_and_join() (or destruction) tears it down.
class SocketFixture {
 public:
  explicit SocketFixture(ServeOptions opts = {}) : core_(opts) {
    char tmpl[] = "/tmp/merlin_serve_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path_ = std::string(dir) + "/d.sock";
    server_ = std::make_unique<SocketServer>(core_, path_);
    thread_ = std::thread([this] { server_->run_until_shutdown(); });
  }

  ~SocketFixture() {
    if (thread_.joinable()) {
      // A test that did not shut down cleanly still must not hang.
      ServeClient(path_).shutdown();
      thread_.join();
    }
    server_.reset();
    std::remove(path_.c_str());
    std::remove(dir_of(path_).c_str());
  }

  void shutdown_and_join() {
    ServeClient(path_).shutdown();
    thread_.join();
  }

  static std::string dir_of(const std::string& p) {
    return p.substr(0, p.find_last_of('/'));
  }

  const std::string& path() const { return path_; }
  ServerCore& core() { return core_; }

 private:
  ServerCore core_;
  std::string path_;
  std::unique_ptr<SocketServer> server_;
  std::thread thread_;
};

TEST(ServeSocket, PingSubmitStatsShutdownOverTheWire) {
  SocketFixture fx;
  ServeClient client(fx.path());

  const PongResp pong = client.ping();
  EXPECT_EQ(pong.version, kWireVersion);
  EXPECT_EQ(pong.draining, 0);

  const SubmitReply reply = client.submit_circuit(16, 17);
  ASSERT_TRUE(reply.ok) << reply.error.message;
  EXPECT_GT(reply.result.nets, 0u);
  EXPECT_NE(reply.result.digest, 0u);

  const StatusResp st = client.status(reply.result.job_id);
  EXPECT_EQ(st.state, static_cast<std::uint8_t>(JobState::kDone));

  const StatsResp stats = client.stats(reply.result.job_id);
  const JsonValue doc = json_parse(stats.json);
  EXPECT_EQ(doc.at("request").at("id").number,
            static_cast<double>(reply.result.job_id));

  fx.shutdown_and_join();
}

TEST(ServeSocket, MetricsFrameReportsLifetimeTelemetryOverTheWire) {
  SocketFixture fx;
  ServeClient client(fx.path());
  ASSERT_TRUE(client.submit_circuit(16, 17).ok);
  ASSERT_TRUE(client.submit_circuit(16, 18).ok);

  const MetricsResp m = client.metrics();
  const JsonValue doc = json_parse(m.json);
  EXPECT_EQ(doc.at("schema_version").number, kStatsSchemaVersion);
  EXPECT_EQ(doc.at("request").at("source").string, "serve");
  const JsonValue& lt = doc.at("lifetime");
  EXPECT_EQ(lt.at("enabled").number, 1.0);
  EXPECT_EQ(lt.at("jobs").number, 2.0);
  EXPECT_EQ(lt.at("hists").at("e2e_us").at("count").number, 2.0);
  // The wire histograms reconstruct to the exporter's exact quantiles.
  const LatencyHistogram h = hist_from_json(lt.at("hists").at("e2e_us"));
  EXPECT_EQ(static_cast<double>(h.quantile(99)),
            lt.at("hists").at("e2e_us").at("p99").number);
  EXPECT_NE(m.prometheus.find("merlin_jobs_total"), std::string::npos);
  EXPECT_NE(m.prometheus.find("merlin_serve_jobs_admitted_total 2"),
            std::string::npos);

  // req.metrics carries no payload; junk bytes earn err.bad_request.
  const Frame bad = client.roundtrip(MsgType::kReqMetrics, "junk");
  ASSERT_EQ(bad.type, MsgType::kRespError);
  ErrorResp e;
  ASSERT_TRUE(e.decode(bad.payload));
  EXPECT_EQ(e.code, static_cast<std::uint8_t>(ServeError::kBadRequest));

  fx.shutdown_and_join();
}

TEST(ServeSocket, WarmSubmissionsShareTheDaemonCache) {
  SocketFixture fx;
  ServeClient client(fx.path());
  const SubmitReply cold = client.submit_circuit(18, 5);
  ASSERT_TRUE(cold.ok);
  const SubmitReply warm = client.submit_circuit(18, 5);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(cold.result.digest, warm.result.digest);
  // Every searched net of the warm job hit the memo entry the cold one
  // published.  MERLIN_CACHE=off detaches the store, so only the digest
  // identity applies there.
  const JsonValue doc = json_parse(client.stats(warm.result.job_id).json);
  if (!cache_env_off()) {
    const JsonValue& c = doc.at("counters");
    EXPECT_GT(c.at("net_memo_hits").number, 0.0);
    EXPECT_EQ(c.at("net_memo_hits").number,
              c.at("nets_processed").number - c.at("trivial_nets").number);
  }
  fx.shutdown_and_join();
}

TEST(ServeSocket, GarbageBytesEarnBadFrameAndDisconnect) {
  SocketFixture fx;
  ServeClient client(fx.path());
  client.send_bytes("complete and utter garbage, no magic anywhere");
  const Frame f = client.read_reply();
  ASSERT_EQ(f.type, MsgType::kRespError);
  ErrorResp e;
  ASSERT_TRUE(e.decode(f.payload));
  EXPECT_EQ(e.code, static_cast<std::uint8_t>(ServeError::kBadFrame));
  // The daemon hung up on us; a fresh connection works fine.
  EXPECT_THROW((void)client.read_reply(), std::runtime_error);
  ServeClient fresh(fx.path());
  EXPECT_EQ(fresh.ping().version, kWireVersion);
  fx.shutdown_and_join();
}

TEST(ServeSocket, MalformedPayloadKeepsTheConnection) {
  SocketFixture fx;
  ServeClient client(fx.path());
  const Frame f = client.roundtrip(MsgType::kReqSubmitCircuit, "short");
  ASSERT_EQ(f.type, MsgType::kRespError);
  ErrorResp e;
  ASSERT_TRUE(e.decode(f.payload));
  EXPECT_EQ(e.code, static_cast<std::uint8_t>(ServeError::kBadRequest));
  // Same connection, valid request: still served.
  EXPECT_EQ(client.ping().version, kWireVersion);
  fx.shutdown_and_join();
}

TEST(ServeSocket, ConcurrentClientsAllGetServed) {
  SocketFixture fx;
  constexpr int kClients = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client(fx.path());
      const SubmitReply r = client.submit_circuit(14, 1000 + c);
      if (r.ok && r.result.nets > 0) ok_count.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients);
  fx.shutdown_and_join();
}

TEST(ServeSocket, SnapshotFrameSavesOnDemand) {
  SnapshotDir snap;
  ServeOptions so;
  so.snapshot_path = snap.path;
  SocketFixture fx(so);
  ServeClient client(fx.path());
  ASSERT_TRUE(client.submit_circuit(16, 17).ok);
  client.snapshot();  // resp.ok, or this throws
  FILE* f = std::fopen(snap.path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "req.snapshot did not produce " << snap.path;
  if (f != nullptr) std::fclose(f);
  // No leftover temp file from the atomic write protocol.
  FILE* tmp = std::fopen((snap.path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  fx.shutdown_and_join();
}

TEST(ServeSocket, SnapshotFrameWithoutAPathEarnsTypedError) {
  SocketFixture fx;
  ServeClient client(fx.path());
  const Frame f = client.roundtrip(MsgType::kReqSnapshot, {});
  ASSERT_EQ(f.type, MsgType::kRespError);
  ErrorResp e;
  ASSERT_TRUE(e.decode(f.payload));
  EXPECT_EQ(e.code, static_cast<std::uint8_t>(ServeError::kNoSnapshot));
  // The connection survives a refused snapshot.
  EXPECT_EQ(client.ping().version, kWireVersion);
  fx.shutdown_and_join();
}

TEST(ServeSocket, DeadlineExpiryCrossesTheWireAsTypedError) {
  ServeOptions so;
  so.queue_capacity = 16;
  SocketFixture fx(so);
  // Back the scheduler up from one connection...
  std::thread busy([&] {
    ServeClient c(fx.path());
    for (int i = 0; i < 3; ++i) (void)c.submit_circuit(16, 300 + i);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // ...then a 1 ms deadline from another cannot survive the queue.
  ServeClient client(fx.path());
  const SubmitReply r = client.submit_circuit(16, 999, 3, /*deadline_ms=*/1);
  busy.join();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, static_cast<std::uint8_t>(ServeError::kDeadline));
  EXPECT_NE(r.error.message.find("deadline"), std::string::npos)
      << r.error.message;
  // Daemon unharmed.
  EXPECT_TRUE(client.submit_circuit(14, 1).ok);
  fx.shutdown_and_join();
}

TEST(ServeSocket, LiveDaemonSocketIsNeverClobbered) {
  SocketFixture fx;
  // A second server on the same path must refuse to start — and the first
  // must still be serving afterwards.
  ServerCore core2{ServeOptions{}};
  EXPECT_THROW(SocketServer(core2, fx.path()), std::runtime_error);
  ServeClient client(fx.path());
  EXPECT_EQ(client.ping().version, kWireVersion);
  fx.shutdown_and_join();
}

TEST(ServeSocket, StaleSocketFileIsReplacedOnStartup) {
  char tmpl[] = "/tmp/merlin_stale_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/d.sock";
  {
    // A dead socket file, the way kill -9 leaves one: bound, then the
    // process gone with no unlink.  connect() on it gets ECONNREFUSED.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)), 0);
    ::close(fd);  // the file stays on disk
  }
  ServerCore core2{ServeOptions{}};
  EXPECT_NO_THROW({ SocketServer s2(core2, path); });
  std::remove(path.c_str());
  rmdir(dir);
}

TEST(ServeSocket, HangupSurfacesAsTransportError) {
  SocketFixture fx;
  ServeClient client(fx.path());
  client.send_bytes("garbage that earns a disconnect");
  (void)client.read_reply();  // the err.bad_frame diagnostic
  // The daemon hung up: the next read is a typed transport failure (which
  // still IS a runtime_error, so legacy catch sites keep working).
  try {
    (void)client.read_reply();
    FAIL() << "read on a closed connection did not throw";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.bytes_written(), 0u);
  }
  fx.shutdown_and_join();
}

TEST(ServeSocket, IdleConnectionWaitsButAMidFrameStallIsHungUp) {
  ServeOptions so;
  so.io_timeout_ms = 100;
  SocketFixture fx(so);
  // Idle between frames through several receive timeouts: still served.
  ServeClient idle(fx.path());
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  EXPECT_EQ(idle.ping().version, kWireVersion);
  // Half a frame header, then silence: the daemon hangs up without a reply.
  ServeClient stalled(fx.path());
  std::string frame;
  append_frame(frame, MsgType::kReqPing, {});
  stalled.send_bytes(frame.substr(0, 4));
  try {
    (void)stalled.read_reply();
    FAIL() << "a mid-frame stall was answered";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.error_code(), 0) << e.what();  // a clean close
  }
  fx.shutdown_and_join();
}

/// Lines of /proc/self/maps: every live thread stack is one mapping (plus
/// its guard page).
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(ServeSocket, FinishedConnectionThreadsAreReaped) {
  SocketFixture fx;
  const auto cycle = [&] {
    ServeClient client(fx.path());
    EXPECT_EQ(client.ping().version, kWireVersion);
  };
  // Settle the allocator's (and a sanitizer runtime's) own mappings first.
  for (int i = 0; i < 64; ++i) cycle();
  const std::size_t before = mapping_count();
  // Unjoined, 64 finished handlers would keep 64 stacks (128+ mappings)
  // alive until shutdown.
  for (int i = 0; i < 64; ++i) cycle();
  EXPECT_LT(mapping_count(), before + 24);
  fx.shutdown_and_join();
}

TEST(ServeSocket, ShutdownDrainsInFlightJobsFirst) {
  ServeOptions so;
  so.queue_capacity = 8;
  SocketFixture fx(so);

  // Fill the daemon with work from one connection thread, then shut down
  // from another while those jobs are queued/running.
  std::atomic<int> results_ok{0};
  std::thread submitter([&] {
    ServeClient client(fx.path());
    for (int i = 0; i < 3; ++i) {
      const SubmitReply r = client.submit_circuit(16, 200 + i);
      if (r.ok) results_ok.fetch_add(1);
    }
  });
  // Give the submitter a head start so the shutdown overlaps real work.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fx.shutdown_and_join();
  submitter.join();
  // Every job admitted before the drain completed with a real result; the
  // submitter saw either results or a clean draining rejection, never a
  // dropped job.
  EXPECT_EQ(fx.core().jobs_completed(), static_cast<std::uint64_t>(results_ok.load()));
}

// -- ServeDaemon: the merlin_d and merlin_stat binaries --------------------

#ifdef MERLIN_D_PATH
/// Forks and execs `argv` (argv[0] is the binary), its stderr redirected to
/// `stderr_path` when one is given.  Everything the child needs is built
/// before the fork, so the child runs only async-signal-safe calls.
pid_t spawn(const std::vector<std::string>& argv,
            const std::string& stderr_path = {}) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    if (!stderr_path.empty()) {
      const int fd = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644);
      if (fd >= 0) ::dup2(fd, STDERR_FILENO);
    }
    execv(args[0], args.data());
    _exit(127);  // exec failed
  }
  EXPECT_GT(pid, 0) << "fork failed";
  return pid;
}

/// Reaps `pid`: its exit code, or -1 when it died by a signal.
int reap(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A merlin_d child on `socket` with `flags` appended.
pid_t spawn_daemon(const std::string& socket,
                   std::vector<std::string> flags = {},
                   const std::string& stderr_path = {}) {
  std::vector<std::string> argv = {MERLIN_D_PATH, "--socket", socket};
  argv.insert(argv.end(), flags.begin(), flags.end());
  return spawn(argv, stderr_path);
}

/// A private temp dir for a daemon's socket and files, removed with its
/// contents on destruction.
struct DaemonDir {
  DaemonDir() {
    char tmpl[] = "/tmp/merlin_d_XXXXXX";
    const char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) path = d;
  }
  ~DaemonDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  std::string file(const char* name) const { return path + "/" + name; }
  /// Files named *.tmp — what an interrupted atomic write leaves behind.
  std::vector<std::string> temp_files() const {
    std::vector<std::string> out;
    for (const auto& e : std::filesystem::directory_iterator(path))
      if (e.path().extension() == ".tmp") out.push_back(e.path().string());
    return out;
  }
  std::string path;
};

std::uintmax_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// The digest merlin_cli --circuit G S prints, computed in-process.
std::uint64_t one_shot_digest(std::uint64_t gates, std::uint64_t seed) {
  return batch_result_digest(cli_equivalent_run(gates, seed, 2));
}

std::uint64_t submit_digest(ServeClient& client, std::uint64_t gates,
                            std::uint64_t seed) {
  const SubmitReply r = client.submit_circuit(gates, seed);
  EXPECT_TRUE(r.ok) << r.error.message;
  return r.result.digest;
}

TEST(ServeDaemon, ServesAndExitsZeroOnShutdownRequest) {
  DaemonDir dir;
  const std::string sock = dir.file("d.sock");
  const pid_t pid = spawn_daemon(sock, {"--threads", "2"});
  {
    ServeClient client(sock, /*retry_ms=*/10000);
    EXPECT_EQ(client.ping().version, kWireVersion);
    EXPECT_TRUE(client.submit_circuit(16, 9).ok);
    client.shutdown();
  }
  EXPECT_EQ(reap(pid), 0);
}

TEST(ServeDaemon, SecondDaemonOnALiveSocketExitsSix) {
  DaemonDir dir;
  const std::string sock = dir.file("d.sock");
  const pid_t first = spawn_daemon(sock);
  {
    ServeClient client(sock, /*retry_ms=*/10000);
    EXPECT_EQ(client.ping().version, kWireVersion);
    // Second daemon, same socket: must refuse to clobber and exit 6.
    EXPECT_EQ(reap(spawn_daemon(sock)), 6);
    // And the first daemon was untouched by the attempt.
    EXPECT_TRUE(client.submit_circuit(14, 3).ok);
    client.shutdown();
  }
  EXPECT_EQ(reap(first), 0);
}

TEST(ServeDaemon, MalformedNumericFlagsExitTwo) {
  // Each bad operand must fail argument parsing (exit 2) before the daemon
  // touches its socket path.
  struct Bad {
    const char* flag;
    const char* value;
  };
  for (const Bad& bad : {Bad{"--threads", "4x"}, Bad{"--threads", "abc"},
                         Bad{"--queue-depth", "-1"}, Bad{"--threads", "+4"},
                         Bad{"--cache-mb", "99999999999999999999"},
                         Bad{"--io-timeout-ms", "4294967296"}}) {
    EXPECT_EQ(reap(spawn_daemon("/no/such/dir/d.sock", {bad.flag, bad.value})),
              2)
        << bad.flag << " " << bad.value;
  }
}

TEST(ServeDaemon, SocketFailureExitsSix) {
  EXPECT_EQ(reap(spawn_daemon("/no/such/dir/d.sock")), 6);
}

TEST(ServeDaemon, ColdWarmDrainAndRestartKeepTheOneShotDigest) {
  const std::uint64_t want = one_shot_digest(26, 7);
  DaemonDir dir;
  const std::string sock = dir.file("d.sock");
  const std::vector<std::string> flags = {"--threads", "2", "--snapshot",
                                          dir.file("cache.snap")};
  pid_t pid = spawn_daemon(sock, flags);
  {
    ServeClient client(sock, /*retry_ms=*/10000);
    EXPECT_EQ(submit_digest(client, 26, 7), want) << "cold";
    for (int rep = 0; rep < 2; ++rep)
      EXPECT_EQ(submit_digest(client, 26, 7), want) << "warm " << rep;
  }
  // SIGTERM drains (writing the snapshot) and exits 0.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(reap(pid), 0);
  EXPECT_GT(file_size_or_zero(dir.file("cache.snap")), 0u);

  pid = spawn_daemon(sock, flags);
  {
    ServeClient client(sock, /*retry_ms=*/10000);
    EXPECT_EQ(submit_digest(client, 26, 7), want) << "restarted";
    client.shutdown();
  }
  EXPECT_EQ(reap(pid), 0);
  EXPECT_EQ(dir.temp_files(), std::vector<std::string>{});
}

#ifdef MERLIN_STAT_PATH
/// True when POSIX extended regex `pattern` (grep -E syntax) matches
/// somewhere in `text`.
bool ere_search(const char* pattern, const std::string& text) {
  regex_t re;
  EXPECT_EQ(regcomp(&re, pattern, REG_EXTENDED | REG_NOSUB), 0) << pattern;
  const bool hit = regexec(&re, text.c_str(), 0, nullptr, 0) == 0;
  regfree(&re);
  return hit;
}

/// Runs merlin_stat with `args`; its stdout, and its exit code in `code`.
std::string run_stat(const std::string& args, int& code) {
  FILE* pipe = popen((std::string(MERLIN_STAT_PATH) + " " + args).c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return {};
  std::string out;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  const int status = pclose(pipe);
  code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST(ServeDaemon, MerlinStatScrapesALiveDaemon) {
  DaemonDir dir;
  const std::string sock = dir.file("d.sock");
  const pid_t pid = spawn_daemon(
      sock, {"--threads", "2", "--metrics-out", dir.file("metrics.json")});
  {
    ServeClient client(sock, /*retry_ms=*/10000);
    ASSERT_TRUE(client.submit_circuit(16, 9).ok);
  }
  int code = -1;
  // The human tables: the lifetime ledger saw the job.
  const std::string tables = run_stat("--socket " + sock, code);
  EXPECT_EQ(code, 0) << tables;
  EXPECT_TRUE(ere_search("lifetime: enabled=1 jobs=[1-9]", tables)) << tables;

  // The raw document parses.
  const std::string json = run_stat("--socket " + sock + " --json", code);
  EXPECT_EQ(code, 0);
  EXPECT_NO_THROW((void)json_parse(json)) << json;

  // Every non-comment Prometheus line is `name{labels} value`, and the job
  // counter saw the job.
  const std::string prom = run_stat("--socket " + sock + " --prom", code);
  EXPECT_EQ(code, 0);
  for (const std::string& line : lines_of(prom)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_TRUE(ere_search("^[a-z_][a-z0-9_]*(\\{[^{}]*\\})? "
                           "-?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?$",
                           line))
        << line;
  }
  EXPECT_TRUE(ere_search("(^|\n)merlin_jobs_total [1-9]", prom)) << prom;

  // SIGTERM drains, exits 0 and dumps --metrics-out atomically.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(reap(pid), 0);
  EXPECT_GT(file_size_or_zero(dir.file("metrics.json")), 0u);
  EXPECT_EQ(dir.temp_files(), std::vector<std::string>{});
}

TEST(ServeDaemon, KillNineMidLoadLeavesAReadableRingAndARestartableDaemon) {
  const std::uint64_t want = one_shot_digest(26, 7);
  DaemonDir dir;
  const std::string sock = dir.file("d.sock");
  const std::string snap = dir.file("cache.snap");
  const std::string ring = dir.file("flight.ring");
  const pid_t pid = spawn_daemon(sock, {"--threads", "2", "--snapshot", snap,
                                        "--snapshot-every", "1", "--flightrec",
                                        ring});
  // Closed-loop load until the daemon dies under it.
  std::atomic<int> jobs_done{0};
  std::thread load([&] {
    try {
      ServeClient client(sock, /*retry_ms=*/10000);
      for (;;) {
        if (client.submit_circuit(26, 7).ok) jobs_done.fetch_add(1);
      }
    } catch (const std::exception&) {
      // The kill below tears the connection down.
    }
  });
  // Kill once a cadence snapshot with real content has landed (the first
  // tick can fire before any job has published).  MERLIN_CACHE=off keeps
  // the store empty, so there a finished job is the trigger.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  while ((jobs_done.load() == 0 ||
          (!cache_env_off() && file_size_or_zero(snap) < 1024)) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GT(jobs_done.load(), 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  EXPECT_EQ(reap(pid), -1);
  load.join();

  // The ring survived the SIGKILL: it parses, and its last record is a
  // lifecycle event.
  int code = -1;
  const std::string flight = run_stat("--flightrec " + ring, code);
  EXPECT_EQ(code, 0) << flight;
  const std::vector<std::string> lines = lines_of(flight);
  ASSERT_GE(lines.size(), 2u) << flight;
  EXPECT_TRUE(ere_search("^flightrec: [1-9][0-9]* event\\(s\\) recorded",
                         lines.front()))
      << flight;
  EXPECT_TRUE(ere_search(
      " (admit|dispatch|complete|shed|deadline|evict|snapshot) ", lines.back()))
      << flight;

  // A restart on the same paths replaces the stale socket file and serves
  // the one-shot answer from whatever snapshot the crash left.
  const pid_t again = spawn_daemon(sock, {"--threads", "2", "--snapshot", snap});
  {
    ServeClient client(sock, /*retry_ms=*/10000);
    EXPECT_EQ(submit_digest(client, 26, 7), want);
    client.shutdown();
  }
  EXPECT_EQ(reap(again), 0);
  EXPECT_EQ(dir.temp_files(), std::vector<std::string>{});
}
#endif  // MERLIN_STAT_PATH

TEST(ServeDaemon, CorruptSnapshotColdStartsWithTheSameDigest) {
  const std::uint64_t want = one_shot_digest(26, 7);
  DaemonDir dir;
  const std::string sock = dir.file("d.sock");
  const std::string snap = dir.file("cache.snap");
  const std::vector<std::string> flags = {"--threads", "2", "--snapshot", snap};
  // Seed a real snapshot through a clean drain...
  pid_t pid = spawn_daemon(sock, flags);
  {
    ServeClient client(sock, /*retry_ms=*/10000);
    EXPECT_EQ(submit_digest(client, 26, 7), want);
    client.shutdown();
  }
  EXPECT_EQ(reap(pid), 0);
  // ...flip one byte in its middle...
  std::string bytes = slurp(snap);
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  {
    std::ofstream out(snap, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  // ...and restart: the corruption is reported, and the cold-started daemon
  // still serves the one-shot answer.
  const std::string log = dir.file("restart.log");
  pid = spawn_daemon(sock, flags, log);
  {
    ServeClient client(sock, /*retry_ms=*/10000);
    EXPECT_EQ(submit_digest(client, 26, 7), want);
    client.shutdown();
  }
  EXPECT_EQ(reap(pid), 0);
  EXPECT_NE(slurp(log).find("snapshot corrupt"), std::string::npos)
      << slurp(log);
}
#endif  // MERLIN_D_PATH

}  // namespace
}  // namespace merlin
