#include "serve/transport.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>

namespace merlin {

void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path empty or too long: '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

SendResult send_all(int fd, std::string_view bytes) {
  SendResult r;
  while (r.written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + r.written,
                             bytes.size() - r.written, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      r.err = n < 0 && errno != 0 ? errno : EIO;
      return r;
    }
    r.written += static_cast<std::size_t>(n);
  }
  return r;
}

ReadResult read_frame(int fd, std::string& buf, Frame& frame) {
  char tmp[4096];
  for (;;) {
    std::size_t consumed = 0;
    const DecodeStatus st = decode_frame(buf, frame, consumed);
    if (st == DecodeStatus::kFrame) {
      buf.erase(0, consumed);
      return {};
    }
    if (st != DecodeStatus::kNeedMore)
      return {ReadStatus::kBadFrame, st, 0};
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      return {err == EAGAIN || err == EWOULDBLOCK ? ReadStatus::kTimedOut
                                                  : ReadStatus::kError,
              st, err};
    }
    if (n == 0) return {ReadStatus::kClosed, st, 0};
    buf.append(tmp, static_cast<std::size_t>(n));
  }
}

}  // namespace merlin
