#pragma once
// FlightRecorder — a crash-surviving black box of structured daemon events.
//
// A fixed-capacity ring of POD records lives in a file-backed MAP_SHARED
// mapping.  record() writes straight into the shared pages, so the ring
// survives ANY process death — including SIGKILL, where no handler can
// run — because the kernel owns the page cache and writes the dirty pages
// back regardless of how the process died.  The SIGSEGV/SIGABRT handlers
// in merlin_d only add machine-crash durability: sigsync() is a single
// msync(2), safe to call from a signal context.
//
// Writers: any thread (connection threads record admit/shed, the scheduler
// records dispatch/complete/deadline/evict/snapshot).  A slot is reserved
// with one atomic fetch_add, filled with plain stores, then the file
// header's next_seq is advanced with a CAS-max — so a reader of a crashed
// ring sees at worst a torn final record, which load() detects (event byte
// out of range) and drops.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace merlin {

/// Event vocabulary.  Names (flight_event_name) are a documented contract:
/// the table in docs/OBSERVABILITY.md must list exactly these
/// (tests/test_docs.cpp).
enum class FlightEvent : std::uint8_t {
  kAdmit,     ///< job accepted into the admission queue (arg: client id)
  kDispatch,  ///< scheduler handed the job to the engine (arg: queue depth)
  kComplete,  ///< job finished (arg: 1 ok / 0 failed)
  kShed,      ///< submission rejected for overload (arg: client id)
  kDeadline,  ///< deadline died in the queue (arg: queue wait, ms)
  kEvict,     ///< cache evictions during the job (arg: entries evicted)
  kSnapshot,  ///< warm-cache snapshot saved (arg: total saves)
  kCount,
};

[[nodiscard]] constexpr const char* flight_event_name(FlightEvent e) {
  switch (e) {
    case FlightEvent::kAdmit: return "admit";
    case FlightEvent::kDispatch: return "dispatch";
    case FlightEvent::kComplete: return "complete";
    case FlightEvent::kShed: return "shed";
    case FlightEvent::kDeadline: return "deadline";
    case FlightEvent::kEvict: return "evict";
    case FlightEvent::kSnapshot: return "snapshot";
    case FlightEvent::kCount: break;
  }
  return "unknown_event";
}

/// One ring slot.  Fixed 32-byte POD; the on-disk form is the in-memory
/// form (single-machine post-mortem format, like the cache snapshot).
struct FlightRecord {
  std::uint64_t ns = 0;      ///< obs_now_ns() at record time
  std::uint64_t job_id = 0;  ///< 0 when the event has no job identity
  std::uint64_t arg = 0;     ///< event-specific detail (see FlightEvent)
  std::uint8_t event = 0;    ///< FlightEvent
  std::uint8_t pad[7] = {};
};
static_assert(sizeof(FlightRecord) == 32, "ring slot layout is a contract");

/// Parsed ring contents, oldest event first.
struct FlightDump {
  std::uint64_t total = 0;  ///< events ever recorded (>= events.size())
  std::uint32_t capacity = 0;
  std::vector<FlightRecord> events;
};

class FlightRecorder {
 public:
  static constexpr std::uint32_t kMagic = 0x544C464Du;  // "MFLT" LE
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::uint32_t kDefaultCapacity = 1024;

  FlightRecorder() = default;
  ~FlightRecorder() { close(); }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Create (truncating any previous ring — each daemon boot starts a
  /// fresh black box) and map the ring file.  Returns false with *error
  /// set on failure.
  bool open(const std::string& path, std::uint32_t capacity = kDefaultCapacity,
            std::string* error = nullptr);

  [[nodiscard]] bool armed() const { return base_ != nullptr; }

  /// Append one event.  Wait-free (one fetch_add + plain stores + a
  /// bounded CAS-max); no-op when unarmed.
  void record(FlightEvent e, std::uint64_t job_id, std::uint64_t arg);

  /// Async-signal-safe flush of the mapped pages (msync).  Process-death
  /// durability needs nothing; this is for the SIGSEGV/SIGABRT handlers.
  void sigsync();

  void close();

  /// Parse a ring file (live, or left behind by a dead process).  Torn
  /// records are dropped; returns false only on a structural problem: a
  /// bad header, or a file whose size is not exactly the header's ring.
  static bool load(const std::string& path, FlightDump* out,
                   std::string* error = nullptr);

 private:
  void* base_ = nullptr;        ///< mapping base (header)
  std::size_t map_len_ = 0;
  std::uint32_t capacity_ = 0;
  std::atomic<std::uint64_t> seq_{0};  ///< slot reservation counter
};

}  // namespace merlin
