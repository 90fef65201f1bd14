#pragma once
// Blocking unix-socket client for merlin_d — the library merlin_stat,
// perfbench's daemon workload, the serve tests and ad-hoc tooling drive the
// daemon with.  One request frame
// out, one response frame back (the protocol is synchronous per
// connection); run several clients for concurrency.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serve/protocol.h"

namespace merlin {

/// Socket-layer failure talking to the daemon: a send that could not
/// deliver the whole frame (EPIPE, timeout, reset) or a read that ended
/// mid-reply.  Subclasses runtime_error, so callers that only care that
/// "the transport broke" keep working; callers that care WHICH byte died
/// read the errno and the progress made.
class TransportError : public std::runtime_error {
 public:
  TransportError(const std::string& what, int err, std::size_t bytes_written)
      : std::runtime_error(what), err_(err), bytes_written_(bytes_written) {}
  /// errno of the failing syscall (0 when the peer just closed cleanly).
  [[nodiscard]] int error_code() const { return err_; }
  /// Bytes of the current send actually accepted before the failure — a
  /// nonzero value means the daemon may have seen a torn frame.
  [[nodiscard]] std::size_t bytes_written() const { return bytes_written_; }

 private:
  int err_;
  std::size_t bytes_written_;
};

/// Submit verdict: either the job's result or the daemon's error (most
/// interestingly err.queue_full, whose retry_after_ms feeds backoff).
struct SubmitReply {
  bool ok = false;
  ResultResp result;  ///< valid when ok
  ErrorResp error;    ///< valid when !ok
};

class ServeClient {
 public:
  /// Connects to the daemon.  retry_ms > 0 keeps retrying the connect for
  /// that long (100 ms apart) — the just-forked-daemon race, where the
  /// socket file appears a beat after the process.  Throws
  /// std::runtime_error when the connection cannot be established.
  explicit ServeClient(const std::string& socket_path, int retry_ms = 0);
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Typed helpers.  All throw TransportError on socket failure; the
  /// non-submit helpers also throw std::runtime_error on a resp.error reply
  /// (its message names the error).  Submit returns the error instead —
  /// backpressure, deadline expiry and overload shedding are expected
  /// outcomes, not exceptions.  deadline_ms > 0 asks the daemon to reject
  /// the job (err.deadline) rather than run it once that much time has
  /// passed since admission.
  [[nodiscard]] PongResp ping();
  [[nodiscard]] SubmitReply submit_circuit(std::uint64_t gates,
                                           std::uint64_t seed,
                                           std::uint8_t flow = 3,
                                           std::uint32_t deadline_ms = 0);
  [[nodiscard]] SubmitReply submit_net(const std::string& net_text,
                                       std::uint8_t flow = 3,
                                       std::uint32_t deadline_ms = 0);
  [[nodiscard]] StatusResp status(std::uint64_t job_id);
  [[nodiscard]] StatsResp stats(std::uint64_t job_id);
  [[nodiscard]] MetricsResp metrics();  ///< req.metrics; expects resp.metrics
  void drain();     ///< expects resp.ok
  void shutdown();  ///< expects resp.bye
  void snapshot();  ///< req.snapshot; expects resp.ok

  /// Raw exchange: one frame out, one frame back.  The escape hatch for
  /// tests probing the daemon's error handling.
  [[nodiscard]] Frame roundtrip(MsgType type, std::string_view payload);

  /// Rawest exchange: arbitrary bytes out (valid frame or garbage), one
  /// frame back.
  void send_bytes(std::string_view bytes);
  [[nodiscard]] Frame read_reply();

 private:
  int fd_ = -1;
  std::string rxbuf_;
};

}  // namespace merlin
