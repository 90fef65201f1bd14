// The warm-cache snapshot container (cache/snapshot.h), held to its
// robustness contract: a saved cache restores bit-identically (content,
// provenance, LRU order), serialization is deterministic byte-for-byte, and
// NO hostile file — truncated at any byte, bit-flipped at any byte, missing,
// or oversized for the restoring budget — ever crashes the loader or leaves
// it half-warm.  Suite names carry "CacheSnapshot" so CI's TSan cache filter
// picks them up.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "cache/shard.h"
#include "cache/snapshot.h"
#include "cache/store.h"
#include "format_corpus.h"

namespace merlin {
namespace {

// -- fixtures ---------------------------------------------------------------

/// A temp dir + snapshot path, removed on destruction.
struct SnapDir {
  SnapDir() {
    char tmpl[] = "/tmp/merlin_snaptest_XXXXXX";
    const char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    if (d != nullptr) dir = d;  // copied: tmpl dies with the constructor
    path = dir + "/cache.snap";
  }
  ~SnapDir() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    if (!dir.empty()) rmdir(dir.c_str());
  }
  std::string dir;
  std::string path;
};

/// A deterministic synthetic entry: a small but non-trivial DAG (sink →
/// wire → buffer → merge, children before parents, one shared child) and
/// two curves whose solutions reference it.  `seed` varies every field so
/// two entries never accidentally collide.
CacheEntry make_entry(std::uint64_t seed) {
  CacheEntry e;
  e.key.hi = seed * 0x9E3779B97F4A7C15ull + 1;
  e.key.lo = ~seed * 0xC2B2AE3D27D4EB4Full + 7;
  const auto s = static_cast<std::int32_t>(seed);
  const auto d = static_cast<double>(seed);
  e.nodes.push_back(SolNode{StepKind::kSink, s % 7, Point{s, -s}, 1.0 + d / 8,
                            kNullSol, kNullSol});
  e.nodes.push_back(SolNode{StepKind::kWire, 0, Point{s + 3, s * 2},
                            0.5 + d / 16, 0, kNullSol});
  e.nodes.push_back(
      SolNode{StepKind::kBuffer, s % 3, Point{-s, s + 1}, 0.0, 1, kNullSol});
  e.nodes.push_back(SolNode{StepKind::kMerge, 0, Point{0, s}, 0.0, 2, 0});
  e.curves.resize(2);
  e.curves[0].push_back(Solution{10.0 + d, 2.0 + d / 3, 4.0, 100.0 + d, 3});
  e.curves[0].push_back(Solution{8.0 + d, 1.0 + d / 5, 2.0, 90.0, 2});
  e.curves[1].push_back(Solution{-5.0 + d, 0.25, 0.0, 12.5, kNullSol});
  return e;
}

/// Publishes `count` synthetic entries (ascending seed = ascending recency).
void populate(SubproblemCache& cache, std::uint64_t count,
              std::uint64_t seed0 = 0) {
  FlushBatch batch;
  for (std::uint64_t i = 0; i < count; ++i)
    batch.staged.push_back(make_entry(seed0 + i));
  (void)cache.apply(std::move(batch));
}

bool entries_equal(const CacheEntry& a, const CacheEntry& b) {
  if (a.key.hi != b.key.hi || a.key.lo != b.key.lo) return false;
  if (a.nodes.size() != b.nodes.size() || a.curves.size() != b.curves.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const SolNode &x = a.nodes[i], &y = b.nodes[i];
    if (x.kind != y.kind || x.idx != y.idx || x.at.x != y.at.x ||
        x.at.y != y.at.y || x.wire_width != y.wire_width || x.a != y.a ||
        x.b != y.b)
      return false;
  }
  for (std::size_t c = 0; c < a.curves.size(); ++c) {
    if (a.curves[c].size() != b.curves[c].size()) return false;
    for (std::size_t p = 0; p < a.curves[c].size(); ++p) {
      const Solution &x = a.curves[c][p], &y = b.curves[c][p];
      if (x.req_time != y.req_time || x.load != y.load || x.area != y.area ||
          x.wirelen != y.wirelen || x.node != y.node)
        return false;
    }
  }
  return true;
}

/// (ordinal, entry) walk in the cache's canonical order, oldest first.
std::vector<std::pair<std::size_t, CacheEntry>> dump(
    const SubproblemCache& cache) {
  std::vector<std::pair<std::size_t, CacheEntry>> out;
  cache.for_each_entry_oldest_first(
      [&](std::size_t ordinal, const CacheEntry& e) {
        out.emplace_back(ordinal, e);
      });
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CacheConfig big_config() {
  CacheConfig cc;
  cc.capacity_nodes = 1u << 20;
  return cc;
}

// -- the roundtrip contract -------------------------------------------------

TEST(CacheSnapshotRoundtrip, RestoresContentProvenanceAndLruOrder) {
  SnapDir snap;
  SubproblemCache src(big_config());
  populate(src, 23);
  SnapshotStats saved;
  std::string err;
  ASSERT_TRUE(save_cache_snapshot(src, snap.path, &saved, &err)) << err;
  EXPECT_EQ(saved.entries, 23u);
  EXPECT_EQ(saved.nodes, src.node_cost());
  EXPECT_GT(saved.bytes, 0u);

  SubproblemCache dst(big_config());
  const SnapshotLoadResult lr = load_cache_snapshot(dst, snap.path);
  ASSERT_TRUE(lr.loaded()) << lr.detail;
  EXPECT_EQ(lr.stats.entries, 23u);
  EXPECT_EQ(dst.entry_count(), src.entry_count());
  EXPECT_EQ(dst.node_cost(), src.node_cost());

  const auto a = dump(src);
  const auto b = dump(dst);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].first, i) << "ordinal divergence at " << i;
    EXPECT_TRUE(entries_equal(a[i].second, b[i].second))
        << "entry divergence at " << i;
  }
}

TEST(CacheSnapshotRoundtrip, SerializationIsByteDeterministic) {
  SnapDir snap;
  SubproblemCache cache(big_config());
  populate(cache, 9);
  ASSERT_TRUE(save_cache_snapshot(cache, snap.path));
  const std::string first = read_file(snap.path);
  ASSERT_TRUE(save_cache_snapshot(cache, snap.path));
  EXPECT_EQ(read_file(snap.path), first);

  // And a second roundtrip through a restored cache re-serializes the very
  // same bytes — the save·load composition is idempotent.
  SubproblemCache copy(big_config());
  ASSERT_TRUE(load_cache_snapshot(copy, snap.path).loaded());
  const std::string other = snap.path + "2";
  ASSERT_TRUE(save_cache_snapshot(copy, other));
  EXPECT_EQ(read_file(other), first);
  std::remove(other.c_str());
}

TEST(CacheSnapshotRoundtrip, EmptyCacheRoundTrips) {
  SnapDir snap;
  SubproblemCache empty(big_config());
  ASSERT_TRUE(save_cache_snapshot(empty, snap.path));
  SubproblemCache dst(big_config());
  const SnapshotLoadResult lr = load_cache_snapshot(dst, snap.path);
  EXPECT_TRUE(lr.loaded()) << lr.detail;
  EXPECT_EQ(dst.entry_count(), 0u);
}

TEST(CacheSnapshotRoundtrip, SmallerBudgetRestoresTheMostRecentSubset) {
  SnapDir snap;
  SubproblemCache src(big_config());
  populate(src, 40);
  ASSERT_TRUE(save_cache_snapshot(src, snap.path));

  CacheConfig small;
  small.capacity_nodes = 16 * 4;  // room for 16 of the 40 4-node entries
  SubproblemCache dst(small);
  const SnapshotLoadResult lr = load_cache_snapshot(dst, snap.path);
  // The restoring cache's own budget governs: a verified snapshot larger
  // than capacity loads as a truncated (most-recent) working set.
  EXPECT_TRUE(lr.loaded()) << lr.detail;
  EXPECT_GT(dst.entry_count(), 0u);
  EXPECT_LT(dst.entry_count(), src.entry_count());
  EXPECT_LE(dst.node_cost(), small.capacity_nodes);
  // One LRU: exactly the 16 most recent entries survive.
  EXPECT_EQ(dst.entry_count(), 16u);
  CacheEntry e;
  EXPECT_TRUE(dst.lookup(make_entry(39).key, e));
  EXPECT_TRUE(dst.lookup(make_entry(24).key, e));
  EXPECT_FALSE(dst.lookup(make_entry(23).key, e));
}

// -- hostile files ----------------------------------------------------------

TEST(CacheSnapshotHostile, MissingFileIsColdNotFatal) {
  SnapDir snap;
  SubproblemCache cache(big_config());
  const SnapshotLoadResult lr = load_cache_snapshot(cache, snap.path);
  EXPECT_EQ(lr.status, SnapshotLoadStatus::kMissing);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(CacheSnapshotHostile, DisabledCacheReportsDisabled) {
  SnapDir snap;
  SubproblemCache src(big_config());
  populate(src, 3);
  ASSERT_TRUE(save_cache_snapshot(src, snap.path));
  SubproblemCache off{CacheConfig{}};  // capacity 0
  EXPECT_EQ(load_cache_snapshot(off, snap.path).status,
            SnapshotLoadStatus::kDisabled);
}

TEST(CacheSnapshotHostile, UnknownVersionColdStarts) {
  SnapDir snap;
  SubproblemCache src(big_config());
  populate(src, 3);
  ASSERT_TRUE(save_cache_snapshot(src, snap.path));
  std::string bytes = read_file(snap.path);
  bytes[4] = char(0xEE);  // version word
  write_file(snap.path, bytes);
  SubproblemCache dst(big_config());
  const SnapshotLoadResult lr = load_cache_snapshot(dst, snap.path);
  EXPECT_EQ(lr.status, SnapshotLoadStatus::kVersionMismatch);
  EXPECT_EQ(dst.entry_count(), 0u);
}

TEST(CacheSnapshotHostile, TruncationAtEveryByteColdStartsCleanly) {
  SnapDir snap;
  SubproblemCache src(big_config());
  populate(src, 4);
  ASSERT_TRUE(save_cache_snapshot(src, snap.path));
  const std::string bytes = read_file(snap.path);
  ASSERT_GT(bytes.size(), 0u);
  const std::string cut_path = snap.dir + "/cut.snap";
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    write_file(cut_path, bytes.substr(0, cut));
    SubproblemCache dst(big_config());
    const SnapshotLoadResult lr = load_cache_snapshot(dst, cut_path);
    EXPECT_FALSE(lr.loaded()) << "cut=" << cut << " loaded: " << lr.detail;
    EXPECT_EQ(dst.entry_count(), 0u) << "cut=" << cut << " left a warm cache";
  }
  std::remove(cut_path.c_str());
}

TEST(CacheSnapshotHostile, BitFlipAtEveryByteIsDetected) {
  // Every byte of the container is either framing (checked structurally) or
  // payload (checked by its section CRC): no single corrupted byte may ever
  // reach the cache.  The file is kept small so the sweep stays fast.
  SnapDir snap;
  SubproblemCache src(big_config());
  populate(src, 2);
  ASSERT_TRUE(save_cache_snapshot(src, snap.path));
  const std::string bytes = read_file(snap.path);
  const std::string flip_path = snap.dir + "/flip.snap";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutant = bytes;
    mutant[i] = static_cast<char>(mutant[i] ^ 0xFF);
    write_file(flip_path, mutant);
    SubproblemCache dst(big_config());
    const SnapshotLoadResult lr = load_cache_snapshot(dst, flip_path);
    EXPECT_FALSE(lr.loaded())
        << "flipped byte " << i << " loaded: " << lr.detail;
    EXPECT_EQ(dst.entry_count(), 0u) << "flipped byte " << i;
  }
  std::remove(flip_path.c_str());
}

TEST(CacheSnapshotHostile, GarbageAndEmptyFilesColdStart) {
  SnapDir snap;
  SubproblemCache dst(big_config());
  write_file(snap.path, "");
  EXPECT_EQ(load_cache_snapshot(dst, snap.path).status,
            SnapshotLoadStatus::kCorrupt);
  write_file(snap.path, "definitely not a snapshot container at all....");
  EXPECT_EQ(load_cache_snapshot(dst, snap.path).status,
            SnapshotLoadStatus::kCorrupt);
  EXPECT_EQ(dst.entry_count(), 0u);
}

TEST(CacheSnapshotHostile, ABadHeaderIsRejectedWithoutReadingTheBody) {
  // A 256 MiB sparse file of zeros: its all-zero header is rejected after
  // 8 bytes, so the load's peak RSS barely moves (reading the whole file
  // first would peak near 256 MB).
  SnapDir snap;
  const int fd = ::open(snap.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, off_t{256} << 20), 0);
  ::close(fd);
  SubproblemCache dst(big_config());
  rusage before{};
  ::getrusage(RUSAGE_SELF, &before);
  const SnapshotLoadResult r = load_cache_snapshot(dst, snap.path);
  rusage after{};
  ::getrusage(RUSAGE_SELF, &after);
  EXPECT_EQ(r.status, SnapshotLoadStatus::kCorrupt);
  EXPECT_EQ(r.detail, "bad snapshot magic");
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32 * 1024)  // KiB
      << "peak RSS grew by " << after.ru_maxrss - before.ru_maxrss << " KiB";
}

// -- the atomic write protocol ----------------------------------------------

TEST(CacheSnapshotAtomicity, SaveLeavesNoTempFileAndReplacesInPlace) {
  SnapDir snap;
  SubproblemCache a(big_config());
  populate(a, 3);
  ASSERT_TRUE(save_cache_snapshot(a, snap.path));
  const std::string first = read_file(snap.path);

  // A bigger cache overwrites the same path atomically...
  SubproblemCache b(big_config());
  populate(b, 8, /*seed0=*/100);
  ASSERT_TRUE(save_cache_snapshot(b, snap.path));
  EXPECT_NE(read_file(snap.path), first);
  // ...and the temp name never survives a completed save.
  EXPECT_NE(::access((snap.path + ".tmp").c_str(), F_OK), 0);
}

TEST(CacheSnapshotAtomicity, StaleTempFromADeadSaveIsCleanedUpByLoad) {
  SnapDir snap;
  SubproblemCache src(big_config());
  populate(src, 3);
  ASSERT_TRUE(save_cache_snapshot(src, snap.path));
  // A save that died mid-write leaves path.tmp; the good snapshot under the
  // final name must win and the remnant must be removed.
  write_file(snap.path + ".tmp", "half-written remnant");
  SubproblemCache dst(big_config());
  EXPECT_TRUE(load_cache_snapshot(dst, snap.path).loaded());
  EXPECT_EQ(dst.entry_count(), 3u);
  EXPECT_NE(::access((snap.path + ".tmp").c_str(), F_OK), 0);
}

TEST(CacheSnapshotAtomicity, UnwritablePathFailsWithoutTouchingTheCache) {
  SubproblemCache cache(big_config());
  populate(cache, 2);
  std::string err;
  EXPECT_FALSE(
      save_cache_snapshot(cache, "/no/such/dir/cache.snap", nullptr, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(cache.entry_count(), 2u);  // the source cache is untouched
}

// -- the section checksum ---------------------------------------------------

/// The sections of an MSNP image, as (payload, stored CRC) pairs.
std::vector<std::pair<std::string, std::uint32_t>> sections(
    const std::string& file) {
  const auto le = [&](std::size_t at, int n) {
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
      v |= std::uint64_t{static_cast<unsigned char>(file[at + i])} << (8 * i);
    return v;
  };
  std::vector<std::pair<std::string, std::uint32_t>> out;
  for (std::size_t at = 8; at + 16 <= file.size();) {
    const std::uint64_t len = le(at + 4, 8);
    const auto crc = static_cast<std::uint32_t>(le(at + 12, 4));
    out.emplace_back(file.substr(at + 16, len), crc);
    at += 16 + len;
  }
  return out;
}

TEST(CacheSnapshotCrc, SaveAndLoadAgreeWithTheBitwiseCrc32) {
  SnapDir snap;
  // Save: every section's stored CRC is the bitwise CRC-32 of its payload,
  // for an empty store (0-, 8- and 32-byte payloads) and for one whose
  // shard section passes 1 MiB (256-byte entries).
  for (const std::uint64_t count : {0u, 4200u}) {
    SubproblemCache cache(big_config());
    populate(cache, count);
    ASSERT_TRUE(save_cache_snapshot(cache, snap.path));
    const auto secs = sections(read_file(snap.path));
    ASSERT_EQ(secs.size(), 3u);
    EXPECT_GE(secs[1].first.size(), count * 256);
    for (const auto& [payload, crc] : secs)
      EXPECT_EQ(crc, corpus::crc32(payload)) << payload.size() << " bytes";
  }

  // Load: a section of an unknown tag is refused only after its CRC
  // passed, so the detail tells which check refused it.  With the bitwise
  // CRC it is the tag; with one bit of the CRC flipped, the CRC.
  std::string bytes(std::size_t{1} << 20, '\0');
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (char& c : bytes) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(x >> 56);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(bytes.size());
  for (const std::size_t n : lengths) {
    const std::string_view payload(bytes.data(), n);
    for (const std::uint32_t flip : {0u, 1u}) {
      std::string file;
      corpus::put_le(file, kSnapshotMagic, 4);
      corpus::put_le(file, kSnapshotVersion, 4);
      corpus::put_le(file, 7, 4);  // no such section tag
      corpus::put_le(file, n, 8);
      corpus::put_le(file, corpus::crc32(payload) ^ flip, 4);
      file.append(payload);
      write_file(snap.path, file);
      SubproblemCache dst(big_config());
      const SnapshotLoadResult lr = load_cache_snapshot(dst, snap.path);
      EXPECT_EQ(lr.status, SnapshotLoadStatus::kCorrupt);
      EXPECT_EQ(lr.detail,
                flip != 0 ? "section CRC mismatch" : "unknown section tag")
          << n << " bytes";
    }
  }
}

}  // namespace
}  // namespace merlin
