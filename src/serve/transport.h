#pragma once
// The one frame-socket path under merlin_d's client and server: the unix
// address both sides build, the send-all loop every frame leaves through,
// and the read loop every frame arrives through.  The functions report
// what happened and never decide what it means — the client turns a
// failure into a TransportError, the server into a hang-up or an
// err.bad_frame — so nothing here branches on who called it.

#include <cstddef>
#include <string>
#include <string_view>

#include <sys/un.h>

#include "serve/protocol.h"

namespace merlin {

/// Throws std::runtime_error("`what`: strerror(errno)").
[[noreturn]] void throw_errno(const std::string& what);

/// The AF_UNIX address of `path`; throws std::runtime_error when the path
/// is empty or does not fit sun_path.
[[nodiscard]] sockaddr_un unix_address(const std::string& path);

/// Outcome of send_all: `err` is 0 when every byte went out, otherwise the
/// errno of the failing send (EPIPE for a hung-up peer, EAGAIN when an
/// SO_SNDTIMEO expired; a zero-byte send maps to EIO, so a short write is
/// never success).  `written` counts the bytes the kernel accepted.
struct SendResult {
  int err = 0;
  std::size_t written = 0;
};

/// Writes all of `bytes` to `fd` (MSG_NOSIGNAL; EINTR retried).
[[nodiscard]] SendResult send_all(int fd, std::string_view bytes);

/// What read_frame found.
enum class ReadStatus {
  kFrame,     ///< one frame decoded and removed from the buffer
  kClosed,    ///< the peer closed; the buffer holds whatever arrived
  kTimedOut,  ///< recv hit SO_RCVTIMEO (EAGAIN); the buffer is kept
  kBadFrame,  ///< the buffered bytes are not a frame (see `decode`)
  kError,     ///< recv failed with `err`
};

struct ReadResult {
  ReadStatus status = ReadStatus::kFrame;
  DecodeStatus decode = DecodeStatus::kFrame;  ///< why, under kBadFrame
  int err = 0;  ///< errno under kTimedOut and kError
};

/// Decodes the next frame out of `buf`, receiving into it 4 KiB at a time
/// until one is complete.  Frames already buffered are returned without a
/// recv; bytes past the returned frame stay in `buf` for the next call.
[[nodiscard]] ReadResult read_frame(int fd, std::string& buf, Frame& frame);

}  // namespace merlin
