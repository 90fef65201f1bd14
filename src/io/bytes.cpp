#include "io/bytes.h"

#include <algorithm>
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

bool read_file_head(const std::string& path, std::string& out,
                    std::size_t max_bytes, std::string* error) {
  out.clear();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return fail(error, "open(" + path + ")");
  char buf[1 << 16];
  while (out.size() < max_bytes) {
    const ssize_t n =
        ::read(fd, buf, std::min(sizeof buf, max_bytes - out.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(error, "read(" + path + ")");
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

bool read_file(const std::string& path, std::string& out, std::string* error,
               std::size_t max_bytes) {
  // One byte past the bound tells "exactly max_bytes" from "more".
  const std::size_t limit =
      max_bytes == static_cast<std::size_t>(-1) ? max_bytes : max_bytes + 1;
  if (!read_file_head(path, out, limit, error)) return false;
  if (out.size() <= max_bytes) return true;
  out.clear();
  errno = EFBIG;
  return fail(error, "read(" + path + ")");
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
