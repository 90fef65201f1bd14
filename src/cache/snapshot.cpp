#include "cache/snapshot.h"

#include <cerrno>
#include <string_view>
#include <utility>
#include <vector>

#include <zlib.h>

#include "io/bytes.h"

namespace merlin {

namespace {

// Section vocabulary of the container (snapshot.h has the framing).
constexpr std::uint32_t kSectionMeta = 1;
constexpr std::uint32_t kSectionShard = 2;
constexpr std::uint32_t kSectionEnd = 3;

// Top bit of an entry's curve count: a net-memo entry, whose u32 loop count
// (CacheEntry::merlin_loops) follows the count.  A Gamma group entry never
// sets it, so a group-only store keeps its v1 bytes.
constexpr std::uint32_t kMemoEntryFlag = 0x80000000u;

// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF), zlib's.
std::uint32_t crc32(std::string_view data) {
  return static_cast<std::uint32_t>(::crc32_z(
      0, reinterpret_cast<const Bytef*>(data.data()), data.size()));
}

// -- entry codec ------------------------------------------------------------

void encode_entry(std::string& out, const CacheEntry& e) {
  ByteWriter w(out);
  w.u64(e.key.hi).u64(e.key.lo);
  const auto ncurves = static_cast<std::uint32_t>(e.curves.size());
  if (e.merlin_loops == 0)
    w.u32(ncurves);
  else
    w.u32(ncurves | kMemoEntryFlag).u32(e.merlin_loops);
  for (const std::vector<Solution>& curve : e.curves) {
    w.u32(static_cast<std::uint32_t>(curve.size()));
    for (const Solution& s : curve)
      w.f64(s.req_time).f64(s.load).f64(s.area).f64(s.wirelen).u32(s.node);
  }
  w.u32(static_cast<std::uint32_t>(e.nodes.size()));
  for (const SolNode& n : e.nodes)
    w.u8(static_cast<std::uint8_t>(n.kind)).i32(n.idx).i32(n.at.x).i32(n.at.y)
        .f64(n.wire_width).u32(n.a).u32(n.b);
}

/// Decodes one entry and validates its internal invariants: node links are
/// child-before-parent (each link addresses an earlier node or kNullSol),
/// solution provenance stays inside the entry, step kinds are known.  A
/// violation means corruption the CRC happened to pass through — refuse it.
bool decode_entry(ByteReader& r, CacheEntry& e) {
  e.key.hi = r.u64();
  e.key.lo = r.u64();
  std::uint32_t ncurves = r.u32();
  e.merlin_loops = 0;
  if ((ncurves & kMemoEntryFlag) != 0) {
    ncurves &= ~kMemoEntryFlag;
    e.merlin_loops = r.u32();
    if (e.merlin_loops == 0) return false;  // the flag promises a real count
  }
  e.curves.clear();
  // Every curve costs at least 4 bytes of payload; a count beyond that is a
  // hostile length — reject before reserving anything.
  if (!r.ok() || ncurves > r.remaining() / 4) return false;
  e.curves.reserve(ncurves);
  std::vector<Solution> pending;  // sanity-checked against nnodes below
  for (std::uint32_t c = 0; c < ncurves && r.ok(); ++c) {
    const std::uint32_t npoints = r.u32();
    if (!r.ok() || npoints > r.remaining() / 36) return false;
    std::vector<Solution> curve;
    curve.reserve(npoints);
    for (std::uint32_t p = 0; p < npoints && r.ok(); ++p) {
      Solution s;
      s.req_time = r.f64();
      s.load = r.f64();
      s.area = r.f64();
      s.wirelen = r.f64();
      s.node = r.u32();
      curve.push_back(s);
    }
    e.curves.push_back(std::move(curve));
  }
  const std::uint32_t nnodes = r.u32();
  if (!r.ok() || nnodes > r.remaining() / 29) return false;
  e.nodes.clear();
  e.nodes.reserve(nnodes);
  for (std::uint32_t i = 0; i < nnodes && r.ok(); ++i) {
    SolNode n;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(StepKind::kBuffer)) return false;
    n.kind = static_cast<StepKind>(kind);
    n.idx = r.i32();
    n.at.x = r.i32();
    n.at.y = r.i32();
    n.wire_width = r.f64();
    n.a = r.u32();
    n.b = r.u32();
    if (n.a != kNullSol && n.a >= i) return false;
    if (n.b != kNullSol && n.b >= i) return false;
    e.nodes.push_back(n);
  }
  if (!r.ok()) return false;
  for (const std::vector<Solution>& curve : e.curves)
    for (const Solution& s : curve)
      if (s.node != kNullSol && s.node >= nnodes) return false;
  return true;
}

void append_section(std::string& out, std::uint32_t tag,
                    std::string_view payload) {
  ByteWriter(out).u32(tag).u64(payload.size()).u32(crc32(payload))
      .bytes(payload);
}

SnapshotLoadResult fail_cold(SubproblemCache& cache, SnapshotLoadStatus status,
                             std::string detail) {
  // Every non-loaded outcome leaves the cache COLD, never half-warm: a
  // partially-restored working set would make warm results depend on where
  // the corruption fell.
  cache.clear();
  SnapshotLoadResult r;
  r.status = status;
  r.detail = std::move(detail);
  return r;
}

}  // namespace

bool save_cache_snapshot(const SubproblemCache& cache, const std::string& path,
                         SnapshotStats* stats, std::string* error) {
  // One shard section holding every entry, oldest first.
  std::string entries;
  ByteWriter(entries).u64(cache.entry_count());
  SnapshotStats st;
  cache.for_each_entry_oldest_first([&](std::size_t, const CacheEntry& e) {
    encode_entry(entries, e);
    ++st.entries;
    st.nodes += e.nodes.size();
  });

  std::string meta;
  ByteWriter(meta).u64(cache.config().capacity_nodes).u64(1)
      .u64(st.entries).u64(st.nodes);

  std::string file;
  ByteWriter(file).u32(kSnapshotMagic).u32(kSnapshotVersion);
  append_section(file, kSectionMeta, meta);
  append_section(file, kSectionShard, entries);
  append_section(file, kSectionEnd, {});
  st.bytes = file.size();

  // A crash at any point leaves either the old snapshot or the new one
  // under `path`, never a torn mixture.
  if (!write_file_atomic(path, file, error)) return false;
  if (stats != nullptr) *stats = st;
  return true;
}

SnapshotLoadResult load_cache_snapshot(SubproblemCache& cache,
                                       const std::string& path) {
  // A save that died mid-write leaves its temp file behind; it is garbage
  // by definition (the rename never happened) and must not accumulate.
  remove_stale_temp(path);

  if (!cache.enabled())
    return fail_cold(cache, SnapshotLoadStatus::kDisabled,
                     "cache has no capacity; snapshot not restored");

  // The 8-byte header first: a file that is not a v1 snapshot costs 8
  // bytes, however big.  The body read that follows is not capped — a
  // snapshot from a larger cache legitimately exceeds anything this cache's
  // capacity implies (it restores truncated), and zero-node entries cost no
  // budget at all, so no bound on the file follows from the configuration.
  std::string file;
  std::string io_error;
  const auto read_failed = [&] {
    return fail_cold(cache,
                     errno == ENOENT ? SnapshotLoadStatus::kMissing
                                     : SnapshotLoadStatus::kCorrupt,
                     io_error);
  };
  if (!read_file_head(path, file, 8, &io_error)) return read_failed();
  {
    ByteReader head(file);
    if (head.u32() != kSnapshotMagic)
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "bad snapshot magic");
    const std::uint32_t version = head.u32();
    if (!head.ok())
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "truncated snapshot header");
    if (version != kSnapshotVersion)
      return fail_cold(cache, SnapshotLoadStatus::kVersionMismatch,
                       "snapshot version " + std::to_string(version) +
                           " (expected " + std::to_string(kSnapshotVersion) +
                           ")");
  }
  if (!read_file(path, file, &io_error)) return read_failed();

  ByteReader in(file);
  if (in.u32() != kSnapshotMagic || in.u32() != kSnapshotVersion)
    return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                     "snapshot header changed while loading");

  // Walk the sections: framing first (tag/length in bounds), then the CRC,
  // and only then the payload parse — hostile bytes are rejected before
  // they can direct any allocation.
  bool saw_meta = false;
  bool saw_end = false;
  std::uint64_t declared_entries = 0;
  FlushBatch batch;
  SnapshotStats st;
  st.bytes = file.size();
  while (in.remaining() > 0) {
    if (saw_end)
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "bytes after end sentinel");
    const std::uint32_t tag = in.u32();
    const std::uint64_t len = in.u64();
    const std::uint32_t crc = in.u32();
    const std::string_view payload = in.bytes(len);
    if (!in.ok())
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "truncated section (header or length past the end)");
    if (crc32(payload) != crc)
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "section CRC mismatch");

    if (tag == kSectionMeta) {
      if (saw_meta)
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "duplicate meta section");
      ByteReader r(payload);
      (void)r.u64();  // saved capacity — informational; ours governs
      (void)r.u64();  // saved shard-section count — sections load in order
      declared_entries = r.u64();
      (void)r.u64();  // saved node total
      if (!r.exhausted())
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "malformed meta section");
      saw_meta = true;
    } else if (tag == kSectionShard) {
      if (!saw_meta)
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "shard section before meta");
      ByteReader r(payload);
      const std::uint64_t n = r.u64();
      for (std::uint64_t i = 0; i < n; ++i) {
        CacheEntry e;
        if (!decode_entry(r, e))
          return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                           "malformed cache entry");
        st.nodes += e.nodes.size();
        ++st.entries;
        batch.staged.push_back(std::move(e));
      }
      if (!r.exhausted())
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "trailing bytes in shard section");
    } else if (tag == kSectionEnd) {
      if (len != 0)
        return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                         "non-empty end sentinel");
      saw_end = true;
    } else {
      return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                       "unknown section tag");
    }
  }
  if (!saw_meta || !saw_end)
    return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                     "snapshot truncated (missing end sentinel)");
  if (st.entries != declared_entries)
    return fail_cold(cache, SnapshotLoadStatus::kCorrupt,
                     "entry count disagrees with meta");

  // Verified.  Restore through the ordinary publish path: entries were
  // saved oldest-first, so sequential inserts (each pushing to the LRU
  // front) reproduce the exact recency order, and the cache's own budget
  // evicts from the oldest end if this configuration is smaller than the
  // one that saved.  Files of the earlier sharded writer hold one section
  // per shard; their entries restore in file order, shard after shard.
  cache.clear();
  const CacheApplyOutcome oc = cache.apply(std::move(batch));
  SnapshotLoadResult r;
  r.status = SnapshotLoadStatus::kLoaded;
  r.stats = st;
  r.detail = "restored " + std::to_string(oc.inserted) + "/" +
             std::to_string(st.entries) + " entries (" +
             std::to_string(cache.node_cost()) + " nodes)";
  return r;
}

}  // namespace merlin
