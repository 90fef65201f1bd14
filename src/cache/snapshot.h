#pragma once
// Crash-safe persistence for the shared SubproblemCache.
//
// A snapshot is the daemon's warm state on disk: every CacheEntry of the
// store (cache/store.h — already arena-decoupled, so serialization is a
// plain field walk), in deterministic LRU order, wrapped in a checksummed,
// versioned container.  merlin_d's scheduler saves one between jobs: on
// drain, on the --snapshot-every cadence and on the req.snapshot admin
// frame.  On start the daemon loads the file back so the first request
// after a restart hits a warm cache instead of re-deriving every
// sub-problem (docs/SERVING.md, "Snapshot & recovery").
//
// Container layout (all integers little-endian):
//
//   u32 magic      kSnapshotMagic ("MSNP")
//   u32 version    kSnapshotVersion
//   sections, each:
//     u32 tag      kSectionMeta | kSectionShard | kSectionEnd
//     u64 length   payload bytes that follow the crc
//     u32 crc      CRC-32 (IEEE, reflected) of the payload
//     payload
//   ...ending with a zero-length kSectionEnd sentinel.
//
// The writer emits one meta section (u64 capacity, u64 shard-section count
// = 1, u64 entries, u64 nodes) and one shard section with every entry,
// oldest first.  The loader accepts any number of shard sections and
// restores them in file order, so files of the earlier sharded writer
// (one section per shard) still load.
//
// A shard payload is a u64 entry count and the entries, each: the 128-bit
// key, a u32 curve count, the curves (u32 point count, then per point
// req_time/load/area/wirelen f64 and a u32 node), a u32 node count and the
// nodes.  A net-memo entry (CacheEntry::merlin_loops > 0) sets bit 31 of
// its curve count and writes its u32 loop count right after it; Gamma
// group entries never do, so their bytes are those of the first v1 files.
//
// Robustness contract (tests/test_snapshot.cpp holds the loader to it):
//
//   * save is atomic: the image is written with write_file_atomic
//     (io/bytes.h: temp file, fsync, rename(2) onto `path`, directory
//     fsync) — a reader can never observe a torn write under the final
//     name, and a crash mid-save leaves the old snapshot intact (plus a
//     stale temp file the next save or load cleans up).
//   * load NEVER throws and NEVER crashes on hostile bytes: every length
//     is bounds-checked before any allocation, every payload is CRC
//     checked before it is parsed, and every failure path leaves the cache
//     COLD (cleared) with a status explaining why — a corrupt snapshot
//     costs warmth, not availability.
//   * the roundtrip is bit-identical: entries materialize exactly as they
//     were interned (same curves, same provenance, same LRU order), so a
//     restarted daemon's results are digest-equal to a continuously-warm
//     one's.

#include <cstdint>
#include <string>

#include "cache/shard.h"

namespace merlin {

/// First four bytes of every snapshot file, "MSNP" as a little-endian u32.
inline constexpr std::uint32_t kSnapshotMagic = 0x504E534Du;
/// Container revision; bump on any layout change (a mismatched file loads
/// as kVersionMismatch and the cache cold-starts).
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// cache-entry: SnapshotStats
/// What one save or load moved: entry/node totals and the container size.
struct SnapshotStats {
  std::uint64_t entries = 0;
  std::uint64_t nodes = 0;
  std::uint64_t bytes = 0;
};

/// Why a load produced a warm or cold cache.
enum class SnapshotLoadStatus : std::uint8_t {
  kLoaded = 0,           ///< snapshot verified and restored (cache is warm)
  kMissing = 1,          ///< no file at `path` (a first boot; cache is cold)
  kCorrupt = 2,          ///< bad magic/framing/CRC/fields (cache is cold)
  kVersionMismatch = 3,  ///< container revision unknown (cache is cold)
  kDisabled = 4,         ///< the cache has no capacity to restore into
};

[[nodiscard]] constexpr const char* snapshot_load_status_name(
    SnapshotLoadStatus s) {
  switch (s) {
    case SnapshotLoadStatus::kLoaded: return "loaded";
    case SnapshotLoadStatus::kMissing: return "missing";
    case SnapshotLoadStatus::kCorrupt: return "corrupt";
    case SnapshotLoadStatus::kVersionMismatch: return "version_mismatch";
    case SnapshotLoadStatus::kDisabled: return "disabled";
  }
  return "unknown";
}

/// Outcome of load_cache_snapshot.  `detail` is a human-readable line
/// (what failed and where, or what was restored).
struct SnapshotLoadResult {
  SnapshotLoadStatus status = SnapshotLoadStatus::kMissing;
  SnapshotStats stats;
  std::string detail;
  [[nodiscard]] bool loaded() const {
    return status == SnapshotLoadStatus::kLoaded;
  }
};

/// cache-entry: save_cache_snapshot
/// Serializes every entry of `cache` (oldest first) into an
/// atomically-replaced snapshot at `path`.  Returns false with `error`
/// filled on any I/O failure; the previous snapshot (if any) survives every
/// failure mode.  Walks the store, so it must not overlap a batch run or an
/// apply on `cache` (merlin_d's scheduler saves only between jobs).
bool save_cache_snapshot(const SubproblemCache& cache, const std::string& path,
                         SnapshotStats* stats = nullptr,
                         std::string* error = nullptr);

/// cache-entry: load_cache_snapshot
/// Verifies and restores the snapshot at `path` into `cache` (which is
/// cleared first).  Entries re-enter LRU order as saved, and
/// the cache's own budget still governs — a snapshot larger than the
/// configured capacity restores to a truncated (most-recent) working set.
/// Never throws: any corruption, truncation or version skew reports via
/// the returned status and leaves the cache cold.  The 8-byte header is
/// read and checked before the rest, so a file that is not a v1 snapshot
/// costs 8 bytes of reading however large it is.  Also removes the stale
/// temp file a save that died mid-write left behind.
SnapshotLoadResult load_cache_snapshot(SubproblemCache& cache,
                                       const std::string& path);

}  // namespace merlin
