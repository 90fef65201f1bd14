#include "serve/protocol.h"

#include "io/bytes.h"

namespace merlin {

// -- frame codec ------------------------------------------------------------

void append_frame(std::string& out, MsgType type, std::string_view payload) {
  ByteWriter(out).u32(kWireMagic).u8(static_cast<std::uint8_t>(type))
      .str(payload);
}

DecodeStatus decode_frame(std::string_view buf, Frame& frame,
                          std::size_t& consumed) {
  consumed = 0;
  if (buf.size() < kFrameHeaderSize) return DecodeStatus::kNeedMore;
  ByteReader r(buf);
  const std::uint32_t magic = r.u32();
  if (magic != kWireMagic) return DecodeStatus::kBadMagic;
  const std::uint8_t raw_type = r.u8();
  const std::uint32_t len = r.u32();
  if (len > kMaxFramePayload) return DecodeStatus::kOversize;
  if (!msg_type_known(raw_type)) return DecodeStatus::kBadType;
  if (r.remaining() < len) return DecodeStatus::kNeedMore;
  frame.type = static_cast<MsgType>(raw_type);
  frame.payload.assign(r.bytes(len));
  consumed = kFrameHeaderSize + len;
  return DecodeStatus::kFrame;
}

// -- message payloads -------------------------------------------------------

std::string SubmitCircuitReq::encode() const {
  std::string out;
  ByteWriter(out).u64(gates).u64(seed).u8(flow).u32(deadline_ms);
  return out;
}

bool SubmitCircuitReq::decode(std::string_view payload) {
  ByteReader r(payload);
  gates = r.u64();
  seed = r.u64();
  flow = r.u8();
  deadline_ms = r.u32();
  return r.exhausted() && gates > 0 && flow >= 1 && flow <= 3;
}

std::string SubmitNetReq::encode() const {
  std::string out;
  ByteWriter(out).u8(flow).str(net_text).u32(deadline_ms);
  return out;
}

bool SubmitNetReq::decode(std::string_view payload) {
  ByteReader r(payload);
  flow = r.u8();
  net_text = r.str();
  deadline_ms = r.u32();
  return r.exhausted() && !net_text.empty() && flow >= 1 && flow <= 3;
}

std::string JobReq::encode() const {
  std::string out;
  ByteWriter(out).u64(job_id);
  return out;
}

bool JobReq::decode(std::string_view payload) {
  ByteReader r(payload);
  job_id = r.u64();
  return r.exhausted();
}

std::string PongResp::encode() const {
  std::string out;
  ByteWriter(out).u32(version).u64(jobs_completed).u8(draining);
  return out;
}

bool PongResp::decode(std::string_view payload) {
  ByteReader r(payload);
  version = r.u32();
  jobs_completed = r.u64();
  draining = r.u8();
  return r.exhausted();
}

std::string ResultResp::encode() const {
  std::string out;
  ByteWriter(out).u64(job_id).u8(ok).f64(delay_ps).f64(area).u64(buffers)
      .u64(nets).u64(digest).f64(queue_ms).f64(wall_ms).str(error);
  return out;
}

bool ResultResp::decode(std::string_view payload) {
  ByteReader r(payload);
  job_id = r.u64();
  ok = r.u8();
  delay_ps = r.f64();
  area = r.f64();
  buffers = r.u64();
  nets = r.u64();
  digest = r.u64();
  queue_ms = r.f64();
  wall_ms = r.f64();
  error = r.str();
  return r.exhausted();
}

std::string StatusResp::encode() const {
  std::string out;
  ByteWriter(out).u64(job_id).u8(state).u64(position);
  return out;
}

bool StatusResp::decode(std::string_view payload) {
  ByteReader r(payload);
  job_id = r.u64();
  state = r.u8();
  position = r.u64();
  return r.exhausted() && state <= static_cast<std::uint8_t>(JobState::kDone);
}

std::string StatsResp::encode() const {
  std::string out;
  ByteWriter(out).u64(job_id).str(json);
  return out;
}

bool StatsResp::decode(std::string_view payload) {
  ByteReader r(payload);
  job_id = r.u64();
  json = r.str();
  return r.exhausted();
}

std::string MetricsResp::encode() const {
  std::string out;
  ByteWriter(out).str(json).str(prometheus);
  return out;
}

bool MetricsResp::decode(std::string_view payload) {
  ByteReader r(payload);
  json = r.str();
  prometheus = r.str();
  return r.exhausted();
}

std::string ErrorResp::encode() const {
  std::string out;
  ByteWriter(out).u8(code).u32(retry_after_ms).str(message);
  return out;
}

bool ErrorResp::decode(std::string_view payload) {
  ByteReader r(payload);
  code = r.u8();
  retry_after_ms = r.u32();
  message = r.str();
  return r.exhausted();
}

}  // namespace merlin
