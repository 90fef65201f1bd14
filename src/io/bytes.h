#pragma once
// The one byte layer under every binary format: a little-endian field
// codec, a whole-file reader and a crash-safe file writer.  MRLN frames and
// payloads (serve/protocol.h), MSNP snapshots (cache/snapshot.h), the
// flight-recorder loader (obs/flightrec.h) and the daemon's metrics dump
// all go through it.  It links nothing, so obs/, cache/ and serve/ can all
// sit on top of it.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace merlin {

/// Appends little-endian fields to a byte string; calls chain.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}
  ByteWriter& u8(std::uint8_t v) { return le(v, 1); }
  ByteWriter& u32(std::uint32_t v) { return le(v, 4); }
  ByteWriter& i32(std::int32_t v) {
    return u32(static_cast<std::uint32_t>(v));
  }
  ByteWriter& u64(std::uint64_t v) { return le(v, 8); }
  ByteWriter& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  ByteWriter& str(std::string_view v) {
    return u32(static_cast<std::uint32_t>(v.size())).bytes(v);
  }
  /// Raw bytes, no prefix.
  ByteWriter& bytes(std::string_view v) {
    out_.append(v.data(), v.size());
    return *this;
  }

 private:
  ByteWriter& le(std::uint64_t v, int n) {
    // One append per field: a push_back per byte re-checks capacity each
    // time and was most of a snapshot's encode cost.
    char buf[8];
    for (int i = 0; i < n; ++i)
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out_.append(buf, static_cast<std::size_t>(n));
    return *this;
  }
  std::string& out_;
};

/// Reads little-endian fields back.  Any underrun (or a length that points
/// past the end) latches ok() to false and every later read returns zero or
/// empty, so a decoder can read all its fields and check once.  No read
/// touches a byte outside the buffer, and no length read from the data
/// directs an allocation before it is checked against what remains.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}
  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(le(4));
  }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::uint64_t u64() { return le(8); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  /// u32 length prefix + raw bytes.
  [[nodiscard]] std::string str() { return std::string(bytes(u32())); }
  /// The next `n` raw bytes (a view into the buffer; empty on underrun).
  [[nodiscard]] std::string_view bytes(std::size_t n);
  /// True iff every read so far was in bounds.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True iff every read was in bounds and the whole buffer was consumed.
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] bool take(std::size_t n);
  [[nodiscard]] std::uint64_t le(int n);
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads the first `max_bytes` bytes of the file at `path` into `out` (all
/// of it when the file is shorter), so a reader can check a header before
/// it sizes anything from one.  Failure is reported as by read_file.
bool read_file_head(const std::string& path, std::string& out,
                    std::size_t max_bytes, std::string* error = nullptr);

/// Reads the whole file at `path` into `out`.  On failure returns false,
/// fills `error` (when given) with the failed call and its reason, and
/// leaves errno as that call set it (ENOENT: no such file; EFBIG: the file
/// holds more than `max_bytes`, which bounds what a hostile path can cost).
bool read_file(const std::string& path, std::string& out,
               std::string* error = nullptr,
               std::size_t max_bytes = static_cast<std::size_t>(-1));

/// Replaces `path` with `bytes` atomically and durably: the bytes go to
/// `path + ".tmp"`, which is fsync'ed and renamed onto `path`, and then the
/// directory is fsync'ed so the rename survives a crash.  A reader never
/// sees a torn file under `path`, and every failure removes the temp file
/// and leaves the previous `path` intact.  One writer per path at a time.
bool write_file_atomic(const std::string& path, std::string_view bytes,
                       std::string* error = nullptr);

/// Removes the temp file a write_file_atomic to `path` that died mid-write
/// (a crash, not a failure it saw) left behind.
void remove_stale_temp(const std::string& path);

}  // namespace merlin
