#include "obs/flightrec.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <string_view>

#include "io/bytes.h"
#include "obs/sink.h"

namespace merlin {
namespace {

struct FlightHeader {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t capacity = 0;
  std::uint32_t record_size = 0;
  std::uint64_t next_seq = 0;  // advanced with CAS-max; head = next_seq % cap
};
static_assert(sizeof(FlightHeader) == 24, "ring header layout is a contract");
// record() writes the in-memory form and load() reads little-endian fields.
static_assert(std::endian::native == std::endian::little,
              "the ring file is little-endian");

constexpr std::uint32_t kMaxCapacity = 1u << 24;

std::size_t ring_bytes(std::uint32_t capacity) {
  return sizeof(FlightHeader) +
         static_cast<std::size_t>(capacity) * sizeof(FlightRecord);
}

void set_error(std::string* error, const std::string& what) {
  if (error) *error = what;
}

}  // namespace

bool FlightRecorder::open(const std::string& path, std::uint32_t capacity,
                          std::string* error) {
  close();
  if (capacity == 0) capacity = kDefaultCapacity;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    set_error(error, "flightrec: cannot open " + path);
    return false;
  }
  const std::size_t len = ring_bytes(capacity);
  if (::ftruncate(fd, static_cast<off_t>(len)) != 0) {
    set_error(error, "flightrec: cannot size " + path);
    ::close(fd);
    return false;
  }
  void* base =
      ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) {
    set_error(error, "flightrec: cannot map " + path);
    return false;
  }
  auto* h = static_cast<FlightHeader*>(base);
  h->magic = kMagic;
  h->version = kVersion;
  h->capacity = capacity;
  h->record_size = sizeof(FlightRecord);
  h->next_seq = 0;
  base_ = base;
  map_len_ = len;
  capacity_ = capacity;
  seq_.store(0, std::memory_order_relaxed);
  return true;
}

void FlightRecorder::record(FlightEvent e, std::uint64_t job_id,
                            std::uint64_t arg) {
  if (base_ == nullptr) return;
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  auto* h = static_cast<FlightHeader*>(base_);
  auto* records = reinterpret_cast<FlightRecord*>(h + 1);
  FlightRecord& slot = records[seq % capacity_];
  slot.event = static_cast<std::uint8_t>(FlightEvent::kCount);  // mark torn
  slot.ns = obs_now_ns();
  slot.job_id = job_id;
  slot.arg = arg;
  slot.event = static_cast<std::uint8_t>(e);
  // Publish: advance next_seq monotonically.  A concurrent writer that
  // reserved a later slot may publish first; the CAS-max keeps next_seq
  // from moving backwards.
  std::atomic_ref<std::uint64_t> next(h->next_seq);
  std::uint64_t cur = next.load(std::memory_order_relaxed);
  while (cur < seq + 1 &&
         !next.compare_exchange_weak(cur, seq + 1, std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

void FlightRecorder::sigsync() {
  if (base_ != nullptr) ::msync(base_, map_len_, MS_ASYNC);
}

void FlightRecorder::close() {
  if (base_ != nullptr) {
    ::munmap(base_, map_len_);
    base_ = nullptr;
    map_len_ = 0;
    capacity_ = 0;
  }
}

bool FlightRecorder::load(const std::string& path, FlightDump* out,
                          std::string* error) {
  // The header first, at its fixed little-endian offsets (the FlightHeader
  // layout above): a file that is not a ring costs 24 bytes, however big.
  std::string bytes;
  if (!read_file_head(path, bytes, sizeof(FlightHeader), error)) return false;
  ByteReader in(bytes);
  const std::uint32_t magic = in.u32();
  const std::uint32_t version = in.u32();
  const std::uint32_t capacity = in.u32();
  const std::uint32_t record_size = in.u32();
  const std::uint64_t next_seq = in.u64();
  if (!in.ok()) {
    set_error(error, "flightrec: truncated header in " + path);
    return false;
  }
  if (magic != kMagic || version != kVersion ||
      record_size != sizeof(FlightRecord) || capacity == 0 ||
      capacity > kMaxCapacity) {
    set_error(error, "flightrec: bad header in " + path);
    return false;
  }
  // Then exactly the ring the header claims; one byte more tells a longer
  // file apart.
  if (!read_file_head(path, bytes, ring_bytes(capacity) + 1, error))
    return false;
  if (bytes.size() != ring_bytes(capacity)) {
    set_error(error, "flightrec: ring size disagrees with header in " + path);
    return false;
  }
  out->total = next_seq;
  out->capacity = capacity;
  out->events.clear();
  const std::uint64_t first = next_seq > capacity ? next_seq - capacity : 0;
  for (std::uint64_t s = first; s < next_seq; ++s) {
    ByteReader slot(std::string_view(bytes).substr(
        sizeof(FlightHeader) + (s % capacity) * sizeof(FlightRecord),
        sizeof(FlightRecord)));
    FlightRecord r;
    r.ns = slot.u64();
    r.job_id = slot.u64();
    r.arg = slot.u64();
    r.event = slot.u8();
    if (r.event >= static_cast<std::uint8_t>(FlightEvent::kCount))
      continue;  // torn or never-published slot
    out->events.push_back(r);
  }
  return true;
}

}  // namespace merlin
