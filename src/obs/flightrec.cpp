#include "obs/flightrec.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

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

bool FlightRecorder::dump(const std::string& path, std::string* error) const {
  if (base_ == nullptr) {
    set_error(error, "flightrec: not armed");
    return false;
  }
  // Snapshot the live bytes first so the copy is internally consistent up
  // to (at worst) one torn record, which load() drops.
  std::vector<char> bytes(map_len_);
  std::memcpy(bytes.data(), base_, map_len_);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(bytes.data(),
                           static_cast<std::streamsize>(bytes.size()))) {
      set_error(error, "flightrec: cannot write " + tmp);
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "flightrec: cannot rename " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    set_error(error, "flightrec: cannot read " + path);
    return false;
  }
  FlightHeader h;
  if (!in.read(reinterpret_cast<char*>(&h), sizeof h)) {
    set_error(error, "flightrec: truncated header in " + path);
    return false;
  }
  if (h.magic != kMagic || h.version != kVersion ||
      h.record_size != sizeof(FlightRecord) || h.capacity == 0 ||
      h.capacity > (1u << 24)) {
    set_error(error, "flightrec: bad header in " + path);
    return false;
  }
  std::vector<FlightRecord> ring(h.capacity);
  in.read(reinterpret_cast<char*>(ring.data()),
          static_cast<std::streamsize>(ring.size() * sizeof(FlightRecord)));
  if (in.gcount() !=
      static_cast<std::streamsize>(ring.size() * sizeof(FlightRecord))) {
    set_error(error, "flightrec: truncated ring in " + path);
    return false;
  }
  out->total = h.next_seq;
  out->capacity = h.capacity;
  out->events.clear();
  const std::uint64_t first =
      h.next_seq > h.capacity ? h.next_seq - h.capacity : 0;
  for (std::uint64_t s = first; s < h.next_seq; ++s) {
    const FlightRecord& r = ring[s % h.capacity];
    if (r.event >= static_cast<std::uint8_t>(FlightEvent::kCount))
      continue;  // torn or never-published slot
    out->events.push_back(r);
  }
  return true;
}

}  // namespace merlin
