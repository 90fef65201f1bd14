#pragma once
// Fixed sample encodings of every binary format the daemon reads or writes:
// one MRLN payload per message type, a small MSNP cache (and the same cache
// as the earlier two-shard writer saved it), and a flight-ring file.  test_format_pins pins their exact bytes (so a codec refactor that
// moves one byte fails), and test_decoder_fuzz seeds its mutator from them.
// The values mirror the round-trip tests in test_serve, test_snapshot and
// test_registry.  Built only through public encoders and a local
// little-endian appender, so the corpus never depends on the codec it pins.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/shard.h"
#include "cache/store.h"
#include "obs/flightrec.h"
#include "serve/protocol.h"

namespace merlin::corpus {

/// FNV-1a 64 of a byte string.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Appends `v` as `n` little-endian bytes.
inline void put_le(std::string& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// One payload per MsgType, in enum order.  Types without a payload struct
/// (pings, drain, shutdown, snapshot, metrics requests, ok, bye) carry an
/// empty payload, as the daemon and client send them.
inline std::vector<std::pair<MsgType, std::string>> sample_payloads() {
  SubmitCircuitReq circuit;
  circuit.gates = 123;
  circuit.seed = 456;
  circuit.flow = 2;
  circuit.deadline_ms = 2500;

  SubmitNetReq net;
  net.flow = 1;
  net.deadline_ms = 77;
  const char raw[] = "net with\nnewlines and \0 binary";
  net.net_text.assign(raw, sizeof(raw) - 1);

  JobReq job;
  job.job_id = 0x0102030405060708ull;

  PongResp pong;
  pong.jobs_completed = 11;
  pong.draining = 1;

  ResultResp result;
  result.job_id = 7;
  result.ok = 1;
  result.delay_ps = 1234.5;
  result.area = -0.0;
  result.buffers = 42;
  result.nets = 99;
  result.digest = 0xDEADBEEFCAFEF00Dull;
  result.queue_ms = 0.25;
  result.wall_ms = 17.0;
  result.error = "none";

  StatusResp status;
  status.job_id = 9;
  status.state = static_cast<std::uint8_t>(JobState::kRunning);
  status.position = 3;

  StatsResp stats;
  stats.job_id = 5;
  stats.json = R"({"schema": "merlin.stats", "version": 8})";

  MetricsResp metrics;
  metrics.json = R"({"lifetime": {"enabled": 1}})";
  metrics.prometheus = "merlin_jobs_total 3\n";

  ErrorResp error;
  error.code = static_cast<std::uint8_t>(ServeError::kQueueFull);
  error.retry_after_ms = 350;
  error.message = "try later";

  return {
      {MsgType::kReqPing, ""},
      {MsgType::kReqSubmitCircuit, circuit.encode()},
      {MsgType::kReqSubmitNet, net.encode()},
      {MsgType::kReqStatus, job.encode()},
      {MsgType::kReqStats, job.encode()},
      {MsgType::kReqDrain, ""},
      {MsgType::kReqShutdown, ""},
      {MsgType::kReqSnapshot, ""},
      {MsgType::kReqMetrics, ""},
      {MsgType::kRespPong, pong.encode()},
      {MsgType::kRespResult, result.encode()},
      {MsgType::kRespStatus, status.encode()},
      {MsgType::kRespStats, stats.encode()},
      {MsgType::kRespOk, ""},
      {MsgType::kRespBye, ""},
      {MsgType::kRespError, error.encode()},
      {MsgType::kRespMetrics, metrics.encode()},
  };
}

/// A deterministic cache entry: sink → wire → buffer → merge (children
/// before parents, one shared child) and two curves pointing into it.
inline CacheEntry sample_entry(std::uint64_t seed) {
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

/// Three entries: the sample cache whose MSNP file is pinned.
inline CacheConfig sample_cache_config() {
  CacheConfig cc;
  cc.capacity_nodes = 1u << 16;
  return cc;
}

inline void populate_sample_cache(SubproblemCache& cache) {
  FlushBatch batch;
  for (std::uint64_t i = 0; i < 3; ++i)
    batch.staged.push_back(sample_entry(i + 1));
  (void)cache.apply(std::move(batch));
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF): the MSNP section
/// checksum, computed bitwise here rather than borrowed from the codec.
inline std::uint32_t crc32(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

/// One MSNP entry record (cache/snapshot.h): key, curves, nodes.
inline void put_entry(std::string& out, const CacheEntry& e) {
  put_le(out, e.key.hi, 8);
  put_le(out, e.key.lo, 8);
  put_le(out, e.curves.size(), 4);
  for (const std::vector<Solution>& curve : e.curves) {
    put_le(out, curve.size(), 4);
    for (const Solution& s : curve) {
      for (const double v : {s.req_time, s.load, s.area, s.wirelen})
        put_le(out, std::bit_cast<std::uint64_t>(v), 8);
      put_le(out, s.node, 4);
    }
  }
  put_le(out, e.nodes.size(), 4);
  for (const SolNode& n : e.nodes) {
    put_le(out, static_cast<std::uint8_t>(n.kind), 1);
    for (const std::int32_t v : {n.idx, n.at.x, n.at.y})
      put_le(out, static_cast<std::uint32_t>(v), 4);
    put_le(out, std::bit_cast<std::uint64_t>(n.wire_width), 8);
    put_le(out, n.a, 4);
    put_le(out, n.b, 4);
  }
}

/// One MSNP section: u32 tag, u64 length, u32 CRC-32, payload.
inline void put_section(std::string& out, std::uint32_t tag,
                        std::string_view payload) {
  put_le(out, tag, 4);
  put_le(out, payload.size(), 8);
  put_le(out, crc32(payload), 4);
  out.append(payload);
}

/// The sample cache as the earlier two-shard writer saved it: "MSNP" v1, a
/// meta section (capacity, 2 shard sections, 3 entries, 12 nodes), one shard
/// section per shard (a key's shard was key.hi % 2, so entries 1 and 3 in
/// shard 0 and entry 2 in shard 1, each shard oldest first), then the end
/// sentinel.  888 bytes; the loader must keep accepting it.
inline std::string sample_two_shard_snapshot() {
  std::string meta;
  for (const std::uint64_t v : {std::uint64_t{1} << 16, std::uint64_t{2},
                                std::uint64_t{3}, std::uint64_t{12}})
    put_le(meta, v, 8);
  std::string out;
  put_le(out, 0x504E534Du, 4);  // "MSNP"
  put_le(out, 1, 4);            // container version
  put_section(out, 1, meta);
  for (const std::vector<std::uint64_t>& seeds :
       {std::vector<std::uint64_t>{1, 3}, std::vector<std::uint64_t>{2}}) {
    std::string shard;
    put_le(shard, seeds.size(), 8);
    for (const std::uint64_t seed : seeds) put_entry(shard, sample_entry(seed));
    put_section(out, 2, shard);
  }
  put_section(out, 3, {});
  return out;
}

/// One ring slot in its on-disk form: u64 ns, u64 job_id, u64 arg, u8
/// event, 7 pad bytes.
inline void put_ring_record(std::string& out, std::uint64_t ns,
                            std::uint64_t job_id, std::uint64_t arg,
                            std::uint8_t event) {
  put_le(out, ns, 8);
  put_le(out, job_id, 8);
  put_le(out, arg, 8);
  put_le(out, event, 1);
  put_le(out, 0, 7);
}

/// A four-slot ring that has seen six events (so it wrapped): slots hold
/// seq 4, 5, 2, 3; seq 3's slot is torn (event byte = kCount).  `load`
/// must return seq 2, 4, 5 oldest first, with total 6.
inline std::string sample_ring() {
  std::string out;
  put_le(out, FlightRecorder::kMagic, 4);
  put_le(out, FlightRecorder::kVersion, 4);
  put_le(out, 4, 4);   // capacity
  put_le(out, 32, 4);  // record size
  put_le(out, 6, 8);   // next_seq
  const auto torn = static_cast<std::uint8_t>(FlightEvent::kCount);
  put_ring_record(out, 1400, 104, 204, 1);      // seq 4
  put_ring_record(out, 1500, 105, 205, 2);      // seq 5
  put_ring_record(out, 1200, 102, 202, 6);      // seq 2
  put_ring_record(out, 1300, 103, 203, torn);   // seq 3
  return out;
}

/// Writes `bytes` to `path` (test fixture files only).
inline bool write_bytes(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

/// Reads `path` whole; empty when it cannot be opened.
inline std::string read_bytes(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

}  // namespace merlin::corpus
