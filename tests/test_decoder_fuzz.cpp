// Fuzz suite for every decoder of untrusted bytes: MRLN frames
// (decode_frame) and all nine payload decoders, MSNP snapshot restore
// (load_cache_snapshot), the flight-recorder loader (FlightRecorder::load),
// the stats-JSON parser with the histogram rebuild (json_parse +
// hist_from_json), and the .net text reader (read_net), with the netfile
// regressions this fuzzing surfaced (NetfileFuzz).
//
// Inputs are the fixed encodings of format_corpus.h and a small valid net,
// mutated by the seeded mutator of fuzz_mutate.h, so every run feeds the
// same bytes.  Each input must decode or be rejected cleanly — false,
// kCorrupt (or kVersionMismatch), std::invalid_argument, or (read_net)
// std::runtime_error — and must never crash,
// which the asan and ubsan CI jobs enforce by running this file with
// the rest of the suite.  The budget is fixed and small on purpose.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "cache/snapshot.h"
#include "format_corpus.h"
#include "fuzz_mutate.h"
#include "io/netfile.h"
#include "net/rng.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/sink.h"

namespace merlin {
namespace {

constexpr int kMutationsPerSeed = 500;

/// A temp dir holding one scratch file, removed on destruction.
struct ScratchFile {
  ScratchFile() {
    char tmpl[] = "/tmp/merlin_fuzz_XXXXXX";
    const char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    dir = d != nullptr ? d : "/tmp";
    path = dir + "/input";
  }
  ~ScratchFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    ::rmdir(dir.c_str());
  }
  std::string dir;
  std::string path;
};

/// Runs `check` on kMutationsPerSeed mutants of every seed; splices draw
/// their second input from the next seed.
template <typename Check>
void fuzz(const std::vector<std::string>& seeds, std::uint64_t rng_seed,
          Check&& check) {
  fuzz::Mutator m(rng_seed);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    check(seeds[i]);  // the unmutated seed itself
    const std::string& other = seeds[(i + 1) % seeds.size()];
    for (int k = 0; k < kMutationsPerSeed; ++k)
      check(m.mutate(seeds[i], other));
  }
}

/// Accepted / rejected tallies: a fuzz run that never reaches one side is
/// not testing what it claims.
struct Tally {
  int accepted = 0;
  int rejected = 0;
  void note(bool ok) { ++(ok ? accepted : rejected); }
};

// -- MRLN -------------------------------------------------------------------

/// A decoded payload must be exactly the bytes its re-encoding produces,
/// and that re-encoding must decode to the same struct.
template <typename Msg>
bool check_payload(std::string_view payload) {
  Msg m;
  if (!m.decode(payload)) return false;
  const std::string again = m.encode();
  EXPECT_EQ(again, payload);
  Msg m2;
  EXPECT_TRUE(m2.decode(again));
  EXPECT_EQ(m2.encode(), again);
  return true;
}

/// Every payload decoder on one payload; true iff any accepted it.
bool decode_with_every_struct(std::string_view payload) {
  const std::array<bool, 9> ok = {
      check_payload<SubmitCircuitReq>(payload),
      check_payload<SubmitNetReq>(payload),
      check_payload<JobReq>(payload),
      check_payload<PongResp>(payload),
      check_payload<ResultResp>(payload),
      check_payload<StatusResp>(payload),
      check_payload<StatsResp>(payload),
      check_payload<MetricsResp>(payload),
      check_payload<ErrorResp>(payload),
  };
  for (const bool b : ok)
    if (b) return true;
  return false;
}

std::vector<std::string> payload_seeds() {
  std::vector<std::string> seeds;
  for (const auto& [type, payload] : corpus::sample_payloads())
    if (!payload.empty()) seeds.push_back(payload);
  return seeds;
}

TEST(DecoderFuzz, MrlnPayloadsDecodeOrFailCleanly) {
  Tally tally;
  fuzz(payload_seeds(), 0xF022'0001,
       [&](const std::string& p) { tally.note(decode_with_every_struct(p)); });
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(DecoderFuzz, MrlnFrameStreamsDecodeOrFailCleanly) {
  // Seeds: every sample frame alone, and all of them back to back.
  std::vector<std::string> seeds;
  std::string stream;
  for (const auto& [type, payload] : corpus::sample_payloads()) {
    std::string frame;
    append_frame(frame, type, payload);
    seeds.push_back(frame);
    stream += frame;
  }
  seeds.push_back(stream);

  Tally frames;
  int bad = 0;
  fuzz(seeds, 0xF022'0002, [&](const std::string& buf) {
    std::string_view rest(buf);
    for (;;) {
      Frame f;
      std::size_t consumed = 0;
      const DecodeStatus st = decode_frame(rest, f, consumed);
      if (st != DecodeStatus::kFrame) {
        EXPECT_EQ(consumed, 0u);
        bad += st != DecodeStatus::kNeedMore;
        return;
      }
      ASSERT_GE(consumed, kFrameHeaderSize);
      ASSERT_LE(consumed, rest.size());
      EXPECT_EQ(f.payload.size(), consumed - kFrameHeaderSize);
      EXPECT_TRUE(msg_type_known(static_cast<std::uint8_t>(f.type)));
      frames.note(decode_with_every_struct(f.payload));
      rest.remove_prefix(consumed);
    }
  });
  EXPECT_GT(frames.accepted, 0);
  EXPECT_GT(frames.rejected, 0);
  EXPECT_GT(bad, 0);
}

// -- MSNP -------------------------------------------------------------------

/// Rewrites the CRC of every section whose framing still fits the file, so
/// a mutant reaches the entry decoder instead of stopping at the checksum.
std::string reseal(std::string file) {
  std::size_t pos = 8;
  while (pos <= file.size() && file.size() - pos >= 16) {
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i)
      len |= std::uint64_t{static_cast<unsigned char>(file[pos + 4 + i])}
             << (8 * i);
    if (len > file.size() - pos - 16) break;
    const std::uint32_t crc =
        corpus::crc32(std::string_view(file).substr(pos + 16, len));
    for (int i = 0; i < 4; ++i)
      file[pos + 12 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
    pos += 16 + len;
  }
  return file;
}

TEST(DecoderFuzz, MsnpSnapshotsRestoreOrColdStartCleanly) {
  ScratchFile tmp;
  SubproblemCache src(corpus::sample_cache_config());
  corpus::populate_sample_cache(src);
  ASSERT_TRUE(save_cache_snapshot(src, tmp.path));
  // Today's one-section file and the earlier writer's two-section one.
  const std::vector<std::string> seeds = {corpus::read_bytes(tmp.path),
                                          corpus::sample_two_shard_snapshot()};
  ASSERT_FALSE(seeds[0].empty());

  Tally tally;
  int turn = 0;
  fuzz(seeds, 0xF022'0003, [&](const std::string& bytes) {
    // Every other mutant is resealed, so both the CRC gate and the
    // field-level checks behind it see hostile bytes.
    ASSERT_TRUE(corpus::write_bytes(
        tmp.path, (turn++ % 2 == 0) ? bytes : reseal(bytes)));
    SubproblemCache cache(corpus::sample_cache_config());
    const SnapshotLoadResult lr = load_cache_snapshot(cache, tmp.path);
    tally.note(lr.loaded());
    if (!lr.loaded()) {
      EXPECT_TRUE(lr.status == SnapshotLoadStatus::kCorrupt ||
                  lr.status == SnapshotLoadStatus::kVersionMismatch)
          << snapshot_load_status_name(lr.status);
      EXPECT_EQ(cache.entry_count(), 0u);
    }
  });
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

// -- flight ring ------------------------------------------------------------

TEST(DecoderFuzz, FlightRingsLoadOrFailCleanly) {
  ScratchFile tmp;
  Tally tally;
  fuzz({corpus::sample_ring()}, 0xF022'0004, [&](const std::string& bytes) {
    ASSERT_TRUE(corpus::write_bytes(tmp.path, bytes));
    FlightDump dump;
    std::string err;
    const bool ok = FlightRecorder::load(tmp.path, &dump, &err);
    tally.note(ok);
    if (!ok) {
      EXPECT_FALSE(err.empty());
      return;
    }
    EXPECT_LE(dump.events.size(), dump.capacity);
    for (const FlightRecord& r : dump.events)
      EXPECT_LT(r.event, static_cast<std::uint8_t>(FlightEvent::kCount));
  });
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(DecoderFuzz, RingHeaderClaimingMoreSlotsThanTheFileHoldsIsRejected) {
  // A 24-byte header claiming 2^24 slots (512 MiB of records) and nothing
  // after it: rejected from the file size, before anything is sized from
  // the claimed capacity.
  ScratchFile tmp;
  std::string header = corpus::sample_ring().substr(0, 24);
  header[8] = 0;
  header[9] = 0;
  header[10] = 0;
  header[11] = 1;  // capacity = 1 << 24
  ASSERT_TRUE(corpus::write_bytes(tmp.path, header));
  FlightDump dump;
  std::string err;
  EXPECT_FALSE(FlightRecorder::load(tmp.path, &dump, &err));
  EXPECT_NE(err.find("size"), std::string::npos) << err;
  // The same ring one record short, or one byte long, is rejected too.
  const std::string ring = corpus::sample_ring();
  for (const std::string& bad :
       {ring.substr(0, ring.size() - 32), ring + "x"}) {
    ASSERT_TRUE(corpus::write_bytes(tmp.path, bad));
    EXPECT_FALSE(FlightRecorder::load(tmp.path, &dump, &err));
  }
}

// -- stats JSON -------------------------------------------------------------

/// A lifetime stats document with fixed contents (no wall clock), so the
/// seed is the same on every run.
std::string sample_stats_json() {
  ObsSink sink;
  sink.add(Counter::kBuffersInserted, 7);
  sink.maximize(Gauge::kCurvePeakWidth, 40);
  sink.record_trace(TraceRecord{3, 4, 300, 9, 1, 5});
  LifetimeSnapshot life;
  life.enabled = 1;
  life.jobs = 2;
  life.counters.add(Counter::kBuffersInserted, 9);
  for (LatencyHistogram& h : life.hist)
    for (const std::uint64_t v : {0u, 3u, 70u, 5000u, 123456u}) h.record(v);
  life.span_us[0].record(42);
  ServeInfo serve;
  serve.enabled = 1;
  serve.jobs_admitted = 2;
  return stats_to_json(sink, RuntimeInfo{}, RequestInfo{}, serve, &life);
}

/// hist_from_json on every object of the document that carries a `hist`
/// member; returns how many rebuilt.
int rebuild_every_hist(const JsonValue& v) {
  int rebuilt = 0;
  if (v.has("hist")) {
    try {
      (void)hist_from_json(v);
      ++rebuilt;
    } catch (const std::invalid_argument&) {
    }
  }
  for (const JsonValue& e : v.array) rebuilt += rebuild_every_hist(e);
  for (const auto& [key, e] : v.object) rebuilt += rebuild_every_hist(e);
  return rebuilt;
}

TEST(DecoderFuzz, StatsJsonParsesOrThrowsInvalidArgument) {
  const std::string doc = sample_stats_json();
  ASSERT_GT(rebuild_every_hist(json_parse(doc)), 0);
  Tally tally;
  int hists = 0;
  fuzz({doc}, 0xF022'0005, [&](const std::string& text) {
    try {
      const JsonValue v = json_parse(text);
      tally.note(true);
      hists += rebuild_every_hist(v);
    } catch (const std::invalid_argument&) {
      tally.note(false);
    }
  });
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(hists, 0);
}

TEST(DecoderFuzz, HistRebuildRejectsNegativeFractionalAndHugeFields) {
  // Each of these once reached an undefined double-to-integer cast; a
  // negative run wrapped to 2^64 - 1 and walked off the bucket array.
  for (const char* text :
       {R"({"hist": [[0, 1], [1, -1]]})", R"({"hist": [[-1, 1920]]})",
        R"({"hist": [[1, 0.5], [1, 1919.5]]})", R"({"hist": [[1e300, 1920]]})",
        R"({"hist": [[0, 1e300]]})"}) {
    EXPECT_THROW((void)hist_from_json(json_parse(text)), std::invalid_argument)
        << text;
  }
  EXPECT_EQ(hist_from_json(json_parse(R"({"hist": [[2, 1920]]})")).count(),
            2u * LatencyHistogram::kSlots);
}

TEST(DecoderFuzz, DeepJsonNestingThrowsInsteadOfExhaustingTheStack) {
  // A megabyte of '[' used to recurse once per byte and overflow the stack.
  EXPECT_THROW((void)json_parse(std::string(1'000'000, '[')),
               std::invalid_argument);
  const auto nest = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)json_parse(nest(kJsonMaxDepth)));
  EXPECT_THROW((void)json_parse(nest(kJsonMaxDepth + 1)),
               std::invalid_argument);
}

// -- netfile text -----------------------------------------------------------

// The finiteness checks in src/io/netfile.cpp exist because this fuzzing
// surfaced that streams happily parse "nan"/"inf" into loads, required
// times, RC parameters and driver coefficients.

const char* kValid =
    "net fuzz\n"
    "wire 0.08 0.2\n"
    "driver DRV 50 0.5 100 0.1\n"
    "source 10 20\n"
    "sink 100 200 12.5 1500\n"
    "sink 300 50 8.0 1200\n"
    "sink 40 400 20.0 1800\n";

// Feeds `text` to the parser; returns true iff a net came back.  Any
// std::runtime_error is the accepted failure mode; anything else escapes to
// the test harness as a failure (and a crash kills the process outright).
bool parse(const std::string& text) {
  std::istringstream in(text);
  try {
    const Net net = read_net(in);
    // Whatever parses must be internally sane.
    EXPECT_FALSE(net.sinks.empty());
    for (const Sink& s : net.sinks) {
      EXPECT_TRUE(std::isfinite(s.load));
      EXPECT_TRUE(std::isfinite(s.req_time));
      EXPECT_GE(s.load, 0.0);
    }
    EXPECT_TRUE(std::isfinite(net.wire.res_per_um));
    EXPECT_TRUE(std::isfinite(net.wire.cap_per_um));
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

// Token soup: the netfile's own alphabet with no structure.  Spliced with
// the valid net it yields half-sensible lines that reach every directive.
const char* kTokenSoup = "news ir dk-+.0123456789\n\t# nan inf 1e500 -0.2";

TEST(DecoderFuzz, NetfileTextParsesOrThrowsRuntimeError) {
  Tally tally;
  fuzz({kValid, kTokenSoup}, 0xF022'0006, [&](const std::string& text) {
    const bool ok = parse(text);
    tally.note(ok);
    // A net needs a source and a sink: text that lost either never parses.
    if (text.find("source") == std::string::npos ||
        text.find("sink") == std::string::npos) {
      EXPECT_FALSE(ok) << text;
    }
  });
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

TEST(NetfileFuzz, ValidBaselineParses) { EXPECT_TRUE(parse(kValid)); }

TEST(NetfileFuzz, OversizedInputsAreHandled) {
  // A very long comment line, a huge token, and thousands of sinks.
  std::string big = "net big\nsource 0 0\n# ";
  big.append(200000, 'x');
  big += "\n";
  for (int i = 0; i < 5000; ++i)
    big += "sink " + std::to_string(i) + " " + std::to_string(i) + " 1.0 100\n";
  EXPECT_TRUE(parse(big));

  std::string huge_token = "net ";
  huge_token.append(100000, 'n');
  huge_token += "\nsource 0 0\nsink 1 1 1 1\n";
  EXPECT_TRUE(parse(huge_token));
}

TEST(NetfileFuzz, NumericOverflowThrowsCleanly) {
  EXPECT_FALSE(parse("source 99999999999999999999 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("source 0 0\nsink 1e500 1 1 1\n"));
}

// Regression tests for the bug this fuzzer surfaced: iostreams accept
// "nan"/"inf" as doubles, and the pre-fix parser passed them through.
TEST(NetfileFuzz, NonFiniteValuesAreRejected) {
  EXPECT_FALSE(parse("source 0 0\nsink 1 1 nan 100\n"));
  EXPECT_FALSE(parse("source 0 0\nsink 1 1 1.0 inf\n"));
  EXPECT_FALSE(parse("source 0 0\nsink 1 1 -nan 100\n"));
  EXPECT_FALSE(parse("wire nan 0.2\nsource 0 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("wire 0.08 inf\nsource 0 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("driver D nan 1 1 1\nsource 0 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("driver D 1 1 1 -inf\nsource 0 0\nsink 1 1 1 1\n"));
}

TEST(NetfileFuzz, NegativeWireParametersAreRejected) {
  EXPECT_FALSE(parse("wire -0.08 0.2\nsource 0 0\nsink 1 1 1 1\n"));
  EXPECT_FALSE(parse("wire 0.08 -0.2\nsource 0 0\nsink 1 1 1 1\n"));
}

TEST(NetfileFuzz, RoundTripSurvivesMutationRounds) {
  // Anything that parses must re-serialize and re-parse to the same net.
  Rng rng(0xCAFEULL);
  const std::string valid = kValid;
  for (int round = 0; round < 100; ++round) {
    std::string s = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.size()) - 1));
    s[pos] = static_cast<char>(rng.uniform_int(32, 126));
    std::istringstream in(s);
    Net net;
    try {
      net = read_net(in);
    } catch (const std::runtime_error&) {
      continue;
    }
    std::ostringstream out;
    write_net(out, net);
    std::istringstream in2(out.str());
    const Net again = read_net(in2);
    EXPECT_EQ(again.sinks.size(), net.sinks.size());
    EXPECT_EQ(again.source, net.source);
  }
}

}  // namespace
}  // namespace merlin
