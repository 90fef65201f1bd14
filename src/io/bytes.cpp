#include "io/bytes.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace merlin {

bool ByteReader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint64_t ByteReader::le(int n) {
  if (!take(static_cast<std::size_t>(n))) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i)
    v |= std::uint64_t{static_cast<unsigned char>(data_[pos_++])} << (8 * i);
  return v;
}

std::string_view ByteReader::bytes(std::size_t n) {
  if (!take(n)) return {};
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

namespace {

// Fills `error` with "what: strerror(errno)" and returns false, leaving
// errno as the failed call set it.
bool fail(std::string* error, const std::string& what) {
  const int saved = errno;
  if (error != nullptr) *error = what + ": " + std::strerror(saved);
  errno = saved;
  return false;
}

std::string temp_path(const std::string& path) { return path + ".tmp"; }

}  // namespace

bool read_file(const std::string& path, std::string& out, std::string* error,
               std::size_t max_bytes) {
  out.clear();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return fail(error, "open(" + path + ")");
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(error, "read(" + path + ")");
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    if (static_cast<std::size_t>(n) > max_bytes - out.size()) {
      ::close(fd);
      errno = EFBIG;
      return fail(error, "read(" + path + ")");
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

bool write_file_atomic(const std::string& path, std::string_view bytes,
                       std::string* error) {
  const std::string tmp = temp_path(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail(error, "open(" + tmp + ")");
  // Every failure past open removes the temp: a failed write must not
  // leave a half-written file behind, and the previous `path` stays as is.
  const auto abandon = [&](const std::string& what, int open_fd) {
    fail(error, what);
    if (open_fd >= 0) ::close(open_fd);
    ::unlink(tmp.c_str());
    return false;
  };
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return abandon("write(" + tmp + ")", fd);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) return abandon("fsync(" + tmp + ")", fd);
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    return abandon("rename(" + tmp + " -> " + path + ")", -1);
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; the data fsync above is the hard floor
    ::close(dfd);
  }
  return true;
}

void remove_stale_temp(const std::string& path) {
  ::unlink(temp_path(path).c_str());
}

}  // namespace merlin
