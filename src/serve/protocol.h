#pragma once
// merlin_d wire protocol: length-prefixed frames over a unix stream socket.
//
// A frame is a 9-byte little-endian header followed by the payload:
//
//   u32 magic     kWireMagic ("MRLN")
//   u8  type      MsgType
//   u32 length    payload bytes that follow (<= kMaxFramePayload)
//
// Payloads are flat little-endian field sequences written and read with the
// shared byte codec (io/bytes.h: ByteWriter/ByteReader); strings are
// u32-length-prefixed UTF-8.  Every request gets exactly one response frame
// on the same connection, in order — the protocol is strictly synchronous
// per connection, and concurrency comes from opening several connections
// (perfbench's daemon_eco clients do exactly that).
//
// The message and error vocabularies below are dotted `kind.what` names,
// documented in docs/SERVING.md's wire tables, which tests/test_docs.cpp
// checks against msg_type_name / serve_error_name in both directions.
//
// Versioning: kWireVersion is carried in every pong; bump it on any frame
// or payload layout change and document the migration in docs/SERVING.md.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace merlin {

/// First four bytes of every frame, "MRLN" read as a little-endian u32.
inline constexpr std::uint32_t kWireMagic = 0x4E4C524Du;
/// Protocol revision, reported in PongResp.  v2: submit payloads carry a
/// trailing deadline_ms field, req.snapshot joined the request vocabulary,
/// and err.deadline / err.overloaded / err.no_snapshot joined the error
/// vocabulary (docs/SERVING.md, "Protocol revision 2").  v3: req.metrics /
/// resp.metrics joined the vocabulary — the daemon's process-lifetime
/// telemetry in both merlin.stats JSON and Prometheus text form
/// (docs/SERVING.md, "Protocol revision 3").
inline constexpr std::uint32_t kWireVersion = 3;
/// Frame header bytes: u32 magic + u8 type + u32 payload length.
inline constexpr std::size_t kFrameHeaderSize = 9;
/// Hard payload cap; longer frames are rejected with err.bad_frame before
/// any allocation happens (a garbage length cannot balloon memory).
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// Every frame type.  Requests flow client→daemon, responses daemon→client.
enum class MsgType : std::uint8_t {
  kReqPing = 1,           ///< liveness + version probe        → kRespPong
  kReqSubmitCircuit = 2,  ///< random-circuit batch job        → kRespResult
  kReqSubmitNet = 3,      ///< single net in netfile text form → kRespResult
  kReqStatus = 4,         ///< job state + queue position      → kRespStatus
  kReqStats = 5,          ///< job's merlin.stats JSON         → kRespStats
  kReqDrain = 6,          ///< stop admitting, finish in-flight → kRespOk
  kReqShutdown = 7,       ///< drain, then exit                → kRespBye
  kReqSnapshot = 8,       ///< save the warm-cache snapshot now → kRespOk
  kReqMetrics = 9,        ///< lifetime telemetry (JSON + Prometheus) → kRespMetrics
  kRespPong = 64,
  kRespResult = 65,
  kRespStatus = 66,
  kRespStats = 67,
  kRespOk = 68,
  kRespBye = 69,
  kRespError = 70,  ///< any request can fail with an ErrorResp payload
  kRespMetrics = 71,
};

[[nodiscard]] constexpr bool msg_type_known(std::uint8_t raw) {
  return (raw >= 1 && raw <= 9) || (raw >= 64 && raw <= 71);
}

[[nodiscard]] constexpr const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kReqPing: return "req.ping";
    case MsgType::kReqSubmitCircuit: return "req.submit_circuit";
    case MsgType::kReqSubmitNet: return "req.submit_net";
    case MsgType::kReqStatus: return "req.status";
    case MsgType::kReqStats: return "req.stats";
    case MsgType::kReqDrain: return "req.drain";
    case MsgType::kReqShutdown: return "req.shutdown";
    case MsgType::kReqSnapshot: return "req.snapshot";
    case MsgType::kReqMetrics: return "req.metrics";
    case MsgType::kRespPong: return "resp.pong";
    case MsgType::kRespResult: return "resp.result";
    case MsgType::kRespStatus: return "resp.status";
    case MsgType::kRespStats: return "resp.stats";
    case MsgType::kRespOk: return "resp.ok";
    case MsgType::kRespBye: return "resp.bye";
    case MsgType::kRespError: return "resp.error";
    case MsgType::kRespMetrics: return "resp.metrics";
  }
  return "unknown";
}

/// Error vocabulary of ErrorResp.  err.queue_full, err.draining and
/// err.overloaded are admission outcomes (retriable — err.queue_full and
/// err.overloaded carry a retry-after hint); the rest are terminal for the
/// offending request.
enum class ServeError : std::uint8_t {
  kBadFrame = 1,    ///< bad magic / oversize length / unknown type
  kBadRequest = 2,  ///< well-framed payload that fails to decode or validate
  kQueueFull = 3,   ///< admission queue at capacity; retry after the hint
  kDraining = 4,    ///< daemon no longer admits jobs (drain/shutdown begun)
  kUnknownJob = 5,  ///< status/stats for a job id never admitted
  kInternal = 6,    ///< daemon-side exception while running the job
  kDeadline = 7,    ///< the request's deadline_ms expired before it ran
  kOverloaded = 8,  ///< admission tightened under load; retry after the hint
  kNoSnapshot = 9,  ///< req.snapshot on a daemon with no --snapshot path
};

[[nodiscard]] constexpr const char* serve_error_name(ServeError e) {
  switch (e) {
    case ServeError::kBadFrame: return "err.bad_frame";
    case ServeError::kBadRequest: return "err.bad_request";
    case ServeError::kQueueFull: return "err.queue_full";
    case ServeError::kDraining: return "err.draining";
    case ServeError::kUnknownJob: return "err.unknown_job";
    case ServeError::kInternal: return "err.internal";
    case ServeError::kDeadline: return "err.deadline";
    case ServeError::kOverloaded: return "err.overloaded";
    case ServeError::kNoSnapshot: return "err.no_snapshot";
  }
  return "unknown";
}

// -- frame codec ------------------------------------------------------------

/// Appends one complete frame (header + payload) to `out`.
void append_frame(std::string& out, MsgType type, std::string_view payload);

/// Outcome of scanning a receive buffer for one frame.
enum class DecodeStatus : std::uint8_t {
  kNeedMore,  ///< incomplete header or payload; read more bytes
  kFrame,     ///< one well-formed frame decoded
  kBadMagic,  ///< first four bytes are not kWireMagic
  kOversize,  ///< declared payload length exceeds kMaxFramePayload
  kBadType,   ///< magic and length fine, but the type byte is unknown
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kReqPing;
  std::string payload;
};

/// Scans the front of `buf` for one frame.  On kFrame, `frame` is filled and
/// `consumed` is the byte count to drop from the front of `buf`; on the
/// error statuses the buffer is unusable (close the connection after
/// replying err.bad_frame); on kNeedMore nothing is consumed.
DecodeStatus decode_frame(std::string_view buf, Frame& frame,
                          std::size_t& consumed);

// -- message payloads -------------------------------------------------------
// Each struct round-trips through encode()/decode(); decode returns false
// on underrun, overrun or field-level nonsense (the err.bad_request shape).

/// req.submit_circuit — the daemon-side mirror of `merlin_cli --circuit
/// GATES SEED --flow FLOW`: same CircuitSpec, same BatchOptions, so the
/// result is bit-identical to the one-shot run (docs/SERVING.md,
/// "Determinism contract").
struct SubmitCircuitReq {
  std::uint64_t gates = 0;
  std::uint64_t seed = 1;
  std::uint8_t flow = 3;
  /// Whole-request deadline, milliseconds from admission (0 = none).  A job
  /// whose deadline expires while queued earns err.deadline; one dispatched
  /// with time remaining runs under a per-net NetGuard deadline budget and
  /// degrades through the ladder instead of wedging the scheduler
  /// (docs/SERVING.md, "Deadlines & cancellation").  v2 field.
  std::uint32_t deadline_ms = 0;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

/// req.submit_net — one net in netfile text form (io/netfile.h grammar).
struct SubmitNetReq {
  std::uint8_t flow = 3;
  std::string net_text;
  /// Same semantics as SubmitCircuitReq::deadline_ms.  v2 field.
  std::uint32_t deadline_ms = 0;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

/// req.status / req.stats — both address a job by id.
struct JobReq {
  std::uint64_t job_id = 0;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

/// resp.pong.
struct PongResp {
  std::uint32_t version = kWireVersion;
  std::uint64_t jobs_completed = 0;
  std::uint8_t draining = 0;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

/// resp.result — the job's outcome summary.  `digest` is
/// batch_result_digest of the full result: equal digests across daemon and
/// CLI are the differential's transport.  queue_ms/wall_ms are wall-clock
/// facts (never part of any identity comparison).
struct ResultResp {
  std::uint64_t job_id = 0;
  std::uint8_t ok = 0;
  double delay_ps = 0.0;
  double area = 0.0;
  std::uint64_t buffers = 0;
  std::uint64_t nets = 0;
  std::uint64_t digest = 0;
  double queue_ms = 0.0;
  double wall_ms = 0.0;
  std::string error;  ///< empty when ok
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

/// Job lifecycle states reported by resp.status.
enum class JobState : std::uint8_t {
  kUnknown = 0,
  kQueued = 1,
  kRunning = 2,
  kDone = 3,
};

[[nodiscard]] constexpr const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kUnknown: return "unknown";
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
  }
  return "unknown";
}

/// resp.status.
struct StatusResp {
  std::uint64_t job_id = 0;
  std::uint8_t state = 0;        ///< JobState
  std::uint64_t position = 0;    ///< 0-based dispatch distance when queued
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

/// resp.stats — the job's merlin.stats JSON document (v6).
struct StatsResp {
  std::uint64_t job_id = 0;
  std::string json;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

/// resp.metrics — the daemon's process-lifetime telemetry, rendered both
/// ways at once: a merlin.stats v8 document whose `lifetime` section is
/// populated (the `counters`/`nets` sections describe no single job and
/// stay empty), and the same registry snapshot in Prometheus text
/// exposition format for scrapers.  req.metrics carries no payload.  v3.
struct MetricsResp {
  std::string json;
  std::string prometheus;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

/// resp.error.
struct ErrorResp {
  std::uint8_t code = 0;             ///< ServeError
  /// Backoff hint; nonzero only for err.queue_full and err.overloaded.
  std::uint32_t retry_after_ms = 0;
  std::string message;
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] bool decode(std::string_view payload);
};

}  // namespace merlin
