// Byte-exact pins of the three on-disk / on-wire formats: MRLN frames
// (wire revision 3), the MSNP cache snapshot (v1, group and net-memo
// entries) and the flight-recorder ring (v1).  The expected values were
// recorded from the encoders before they moved onto the shared byte layer
// (io/bytes.h), the net-memo entry's when it was added, and the MSNP file's
// again when the unsharded store began writing one shard section (the
// two-section file the sharded writer produced is kept as a load pin); any
// change to a field's width, order or endianness moves one of them.  A
// deliberate format change bumps the format's version and re-records the
// pin.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "cache/snapshot.h"
#include "format_corpus.h"

namespace merlin {
namespace {

using corpus::fnv1a64;

/// A temp dir removed (with the named files) on destruction.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/merlin_pins_XXXXXX";
    const char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    dir = d != nullptr ? d : "/tmp";
  }
  ~TempDir() {
    for (const std::string& f : files) std::remove(f.c_str());
    ::rmdir(dir.c_str());
  }
  std::string file(const std::string& name) {
    files.push_back(dir + "/" + name);
    return files.back();
  }
  std::string dir;
  std::vector<std::string> files;
};

std::string hex(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

TEST(FormatPins, MrlnFrameOfEveryMessageTypeIsByteStable) {
  struct Pin {
    MsgType type;
    std::uint64_t fnv;
  };
  const Pin pins[] = {
      {MsgType::kReqPing, 0x3CD77069A7A3483Bull},
      {MsgType::kReqSubmitCircuit, 0x1D117E3CD8025554ull},
      {MsgType::kReqSubmitNet, 0x35D5379D560383DCull},
      {MsgType::kReqStatus, 0x99C69F87271741D4ull},
      {MsgType::kReqStats, 0xB5A543EFD21562F7ull},
      {MsgType::kReqDrain, 0x7C41E03E1A305C2Aull},
      {MsgType::kReqShutdown, 0x88F0C368977FC68Dull},
      {MsgType::kReqSnapshot, 0xCAB173EB3FD88AC0ull},
      {MsgType::kReqMetrics, 0xD7605715BD27F523ull},
      {MsgType::kRespPong, 0x0DD9C169FB19EB84ull},
      {MsgType::kRespResult, 0xDAB6C0AF58525225ull},
      {MsgType::kRespStatus, 0x32D41EAD94B413DFull},
      {MsgType::kRespStats, 0x51B664A7B51930B9ull},
      {MsgType::kRespOk, 0x372B4F49CBB6EEA4ull},
      {MsgType::kRespBye, 0x43DA327449065907ull},
      {MsgType::kRespError, 0x2BA16008EFD686A4ull},
      {MsgType::kRespMetrics, 0xA94114332EDDD40Aull},
  };
  const auto samples = corpus::sample_payloads();
  ASSERT_EQ(samples.size(), std::size(pins));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(samples[i].first, pins[i].type);
    std::string frame;
    append_frame(frame, samples[i].first, samples[i].second);
    EXPECT_EQ(fnv1a64(frame), pins[i].fnv)
        << msg_type_name(pins[i].type) << " frame " << hex(frame);
  }
}

TEST(FormatPins, MrlnStatusRequestSpellsOutItsFields) {
  // "MRLN", type 4, length 8, then job_id 0x0102030405060708 little-endian.
  std::string frame;
  JobReq job;
  job.job_id = 0x0102030405060708ull;
  append_frame(frame, MsgType::kReqStatus, job.encode());
  EXPECT_EQ(hex(frame), "4d524c4e04080000000807060504030201");
}

TEST(FormatPins, MsnpFileOfAFixedSmallCacheIsByteStable) {
  TempDir tmp;
  const std::string path = tmp.file("cache.snap");
  SubproblemCache cache(corpus::sample_cache_config());
  corpus::populate_sample_cache(cache);
  SnapshotStats st;
  std::string err;
  ASSERT_TRUE(save_cache_snapshot(cache, path, &st, &err)) << err;
  const std::string bytes = corpus::read_bytes(path);
  // One shard section with all three entries: 8 header + 48 meta + 16
  // section header + 8 count + 3 x 256 entry bytes + 16 end sentinel.
  EXPECT_EQ(bytes.size(), 864u);
  EXPECT_EQ(st.bytes, bytes.size());
  EXPECT_EQ(fnv1a64(bytes), 0xF12E629D86EA42B2ull);
  // The container header: "MSNP", version 1, then the meta section's tag.
  EXPECT_EQ(hex(bytes.substr(0, 12)), "4d534e500100000001000000");
}

TEST(FormatPins, MsnpNetMemoEntryAddsOnlyItsFlagAndLoopCount) {
  // The same entry saved as a Gamma group and as a net-memo entry
  // (merlin_loops > 0): the memo record sets bit 31 of its curve count and
  // carries the u32 loop count right after it, 4 bytes more and nothing
  // else, so group-only files (the pin above) keep their v1 bytes.
  TempDir tmp;
  CacheConfig one;
  one.capacity_nodes = 1u << 16;
  const auto saved = [&](std::uint32_t loops, const std::string& name) {
    SubproblemCache cache(one);
    FlushBatch batch;
    batch.staged.push_back(corpus::sample_entry(1));
    batch.staged.back().merlin_loops = loops;
    (void)cache.apply(std::move(batch));
    const std::string path = tmp.file(name);
    EXPECT_TRUE(save_cache_snapshot(cache, path));
    return path;
  };
  const std::string group = corpus::read_bytes(saved(0, "group.snap"));
  const std::string memo_path = saved(3, "memo.snap");
  const std::string memo = corpus::read_bytes(memo_path);
  // header 8 + meta section 48 + shard section header 16 + entry count 8 +
  // key 16: the curve count sits at byte 96.
  EXPECT_EQ(memo.size(), group.size() + 4);
  EXPECT_EQ(hex(group.substr(96, 4)), "02000000");
  EXPECT_EQ(hex(memo.substr(96, 8)), "0200008003000000");
  EXPECT_EQ(group.substr(100), memo.substr(104));
  EXPECT_EQ(fnv1a64(memo), 0x19FCDBFA27F8B36Cull);

  SubproblemCache back(one);
  ASSERT_TRUE(load_cache_snapshot(back, memo_path).loaded());
  CacheEntry e;
  ASSERT_TRUE(back.lookup(corpus::sample_entry(1).key, e));
  EXPECT_EQ(e.merlin_loops, 3u);
}

TEST(FormatPins, MsnpFileOfTheEarlierTwoShardWriterStillLoads) {
  // The bytes the sample cache saved as while the store had one section per
  // shard (this size and FNV were that writer's pin), built by hand.  The
  // loader restores its sections in file order.
  TempDir tmp;
  const std::string path = tmp.file("two_shards.snap");
  const std::string bytes = corpus::sample_two_shard_snapshot();
  EXPECT_EQ(bytes.size(), 888u);
  EXPECT_EQ(fnv1a64(bytes), 0x9E89FD84CBF19CADull);
  ASSERT_TRUE(corpus::write_bytes(path, bytes));

  SubproblemCache cache(corpus::sample_cache_config());
  const SnapshotLoadResult lr = load_cache_snapshot(cache, path);
  ASSERT_TRUE(lr.loaded()) << lr.detail;
  EXPECT_EQ(lr.stats.entries, 3u);
  EXPECT_EQ(cache.node_cost(), 12u);
  std::vector<CacheKey> order;
  cache.for_each_entry_oldest_first(
      [&](std::size_t, const CacheEntry& e) { order.push_back(e.key); });
  const std::vector<CacheKey> saved = {corpus::sample_entry(1).key,
                                       corpus::sample_entry(3).key,
                                       corpus::sample_entry(2).key};
  EXPECT_EQ(order, saved);
  // Every field survives: each restored entry re-encodes to its record.
  for (const std::uint64_t seed : {1, 2, 3}) {
    CacheEntry e;
    ASSERT_TRUE(cache.lookup(corpus::sample_entry(seed).key, e));
    std::string want, got;
    corpus::put_entry(want, corpus::sample_entry(seed));
    corpus::put_entry(got, e);
    EXPECT_EQ(hex(got), hex(want)) << "entry " << seed;
  }
}

TEST(FormatPins, FixedRingFileLoadsToItsEvents) {
  TempDir tmp;
  const std::string path = tmp.file("flight.ring");
  const std::string ring = corpus::sample_ring();
  ASSERT_EQ(ring.size(), 24u + 4 * 32);
  ASSERT_TRUE(corpus::write_bytes(path, ring));
  FlightDump dump;
  std::string err;
  ASSERT_TRUE(FlightRecorder::load(path, &dump, &err)) << err;
  EXPECT_EQ(dump.total, 6u);
  EXPECT_EQ(dump.capacity, 4u);
  ASSERT_EQ(dump.events.size(), 3u);  // seq 3 is torn
  const std::uint64_t want_job[] = {102, 104, 105};
  const std::uint8_t want_event[] = {6, 1, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(dump.events[i].job_id, want_job[i]);
    EXPECT_EQ(dump.events[i].arg, want_job[i] + 100);
    EXPECT_EQ(dump.events[i].ns, (want_job[i] - 90) * 100);
    EXPECT_EQ(dump.events[i].event, want_event[i]);
  }
}

TEST(FormatPins, LiveRingFileHasTheDocumentedLayout) {
  TempDir tmp;
  const std::string path = tmp.file("live.ring");
  FlightRecorder rec;
  std::string err;
  ASSERT_TRUE(rec.open(path, 4, &err)) << err;
  for (std::uint64_t i = 0; i < 5; ++i)
    rec.record(FlightEvent::kComplete, 10 + i, 20 + i);
  const std::string bytes = corpus::read_bytes(path);
  rec.close();
  ASSERT_EQ(bytes.size(), 24u + 4 * 32);
  // magic "MFLT", version 1, capacity 4, record size 32, next_seq 5.
  EXPECT_EQ(hex(bytes.substr(0, 24)),
            "4d464c540100000004000000200000000500000000000000");
  // Slot 0 holds seq 4: job 14, arg 24, event kComplete, zero padding.
  EXPECT_EQ(hex(bytes.substr(24 + 8, 24)),
            "0e0000000000000018000000000000000200000000000000");
}

}  // namespace
}  // namespace merlin
