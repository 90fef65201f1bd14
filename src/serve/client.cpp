#include "serve/client.h"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/transport.h"

namespace merlin {

ServeClient::ServeClient(const std::string& socket_path, int retry_ms) {
  const sockaddr_un addr = unix_address(socket_path);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("socket(AF_UNIX)");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return;
    ::close(fd_);
    if (std::chrono::steady_clock::now() >= deadline)
      throw_errno("connect(" + socket_path + ")");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

void ServeClient::send_bytes(std::string_view bytes) {
  const SendResult r = send_all(fd_, bytes);
  if (r.err != 0)
    throw TransportError("send to daemon failed after " +
                             std::to_string(r.written) + "/" +
                             std::to_string(bytes.size()) +
                             " bytes: " + std::strerror(r.err),
                         r.err, r.written);
}

Frame ServeClient::read_reply() {
  Frame frame;
  const ReadResult r = read_frame(fd_, rxbuf_, frame);
  switch (r.status) {
    case ReadStatus::kFrame:
      return frame;
    case ReadStatus::kBadFrame:
      throw std::runtime_error("malformed frame from daemon");
    case ReadStatus::kClosed:
      throw TransportError(rxbuf_.empty()
                               ? "daemon closed the connection"
                               : "daemon closed mid-reply (torn frame)",
                           0, 0);
    default:
      throw TransportError(std::string("recv from daemon failed: ") +
                               std::strerror(r.err),
                           r.err, 0);
  }
}

Frame ServeClient::roundtrip(MsgType type, std::string_view payload) {
  std::string frame;
  append_frame(frame, type, payload);
  send_bytes(frame);
  return read_reply();
}

namespace {

[[noreturn]] void throw_error_resp(const Frame& f) {
  ErrorResp e;
  if (f.type == MsgType::kRespError && e.decode(f.payload))
    throw std::runtime_error(
        std::string("daemon error ") +
        serve_error_name(static_cast<ServeError>(e.code)) +
        (e.message.empty() ? "" : ": " + e.message));
  throw std::runtime_error(std::string("unexpected reply frame ") +
                           msg_type_name(f.type));
}

/// The `want` reply decoded, or the daemon's error (or the surprise frame)
/// thrown.
template <typename Resp>
Resp expect(const Frame& f, MsgType want) {
  Resp resp;
  if (f.type != want || !resp.decode(f.payload)) throw_error_resp(f);
  return resp;
}

/// A payload-less acknowledgement of type `want`, or the error thrown.
void expect_ack(const Frame& f, MsgType want) {
  if (f.type != want) throw_error_resp(f);
}

/// A submit's verdict: the result, or the daemon's typed error returned.
SubmitReply submit_reply(const Frame& f) {
  SubmitReply reply;
  if (f.type == MsgType::kRespResult && reply.result.decode(f.payload)) {
    reply.ok = true;
    return reply;
  }
  if (f.type == MsgType::kRespError && reply.error.decode(f.payload))
    return reply;
  throw_error_resp(f);
}

}  // namespace

PongResp ServeClient::ping() {
  return expect<PongResp>(roundtrip(MsgType::kReqPing, {}), MsgType::kRespPong);
}

SubmitReply ServeClient::submit_circuit(std::uint64_t gates,
                                        std::uint64_t seed,
                                        std::uint8_t flow,
                                        std::uint32_t deadline_ms) {
  SubmitCircuitReq req;
  req.gates = gates;
  req.seed = seed;
  req.flow = flow;
  req.deadline_ms = deadline_ms;
  return submit_reply(roundtrip(MsgType::kReqSubmitCircuit, req.encode()));
}

SubmitReply ServeClient::submit_net(const std::string& net_text,
                                    std::uint8_t flow,
                                    std::uint32_t deadline_ms) {
  SubmitNetReq req;
  req.flow = flow;
  req.net_text = net_text;
  req.deadline_ms = deadline_ms;
  return submit_reply(roundtrip(MsgType::kReqSubmitNet, req.encode()));
}

StatusResp ServeClient::status(std::uint64_t job_id) {
  JobReq req;
  req.job_id = job_id;
  return expect<StatusResp>(roundtrip(MsgType::kReqStatus, req.encode()),
                            MsgType::kRespStatus);
}

StatsResp ServeClient::stats(std::uint64_t job_id) {
  JobReq req;
  req.job_id = job_id;
  return expect<StatsResp>(roundtrip(MsgType::kReqStats, req.encode()),
                           MsgType::kRespStats);
}

MetricsResp ServeClient::metrics() {
  return expect<MetricsResp>(roundtrip(MsgType::kReqMetrics, {}),
                             MsgType::kRespMetrics);
}

void ServeClient::drain() {
  expect_ack(roundtrip(MsgType::kReqDrain, {}), MsgType::kRespOk);
}

void ServeClient::shutdown() {
  expect_ack(roundtrip(MsgType::kReqShutdown, {}), MsgType::kRespBye);
}

void ServeClient::snapshot() {
  expect_ack(roundtrip(MsgType::kReqSnapshot, {}), MsgType::kRespOk);
}

}  // namespace merlin
