#pragma once
// Schema-versioned JSON export of an ObsSink, plus the minimal parser used
// to validate it (tests round-trip the export; merlin_cli re-parses before
// writing --stats-json output).  No third-party JSON dependency on purpose.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "obs/sink.h"

namespace merlin {

/// Schema identity of the export.  The schema grows additively: a new key
/// or section never bumps kStatsSchemaVersion; removing or renaming a key
/// does.  Readers ignore keys they do not know.  Every bump's migration
/// note lives in docs/OBSERVABILITY.md §7 ("JSON export").
inline constexpr const char* kStatsSchemaName = "merlin.stats";
inline constexpr int kStatsSchemaVersion = 8;

/// Scheduling-dependent run facts.  Kept in a separate "runtime" JSON
/// section so the deterministic sections (counters/gauges/layers/nets) can
/// be diffed across thread counts.
struct RuntimeInfo {
  std::size_t threads = 1;
  std::uint64_t steals = 0;
  double wall_ms = 0.0;
  std::vector<std::uint64_t> worker_tasks;  ///< tasks executed per worker
  std::vector<double> worker_cpu_ms;       ///< CPU time per worker thread
};

/// Identity of the request a stats document describes (the v4 `request`
/// section).  The defaults describe a one-shot CLI run; merlin_d fills in
/// the job id it assigned at admission, the client connection that submitted
/// it, and the queue wait — wall-clock, hence quarantined alongside
/// `runtime` rather than the deterministic sections.
struct RequestInfo {
  std::uint64_t id = 0;         ///< daemon-assigned job id (0 = one-shot run)
  const char* source = "cli";   ///< "cli" or "serve"
  std::uint64_t client = 0;     ///< submitting connection id (serve only)
  double queue_ms = 0.0;        ///< admission-queue wait (serve only)
};

/// Daemon survivability facts for the v5 `serve` section.  The totals are
/// cumulative over the daemon's lifetime at the moment the document was
/// produced; queue_depth/ewma_ms/overloaded are that moment's load state.
/// One-shot CLI runs leave the defaults (enabled 0).
struct ServeInfo {
  std::uint8_t enabled = 0;        ///< 1 when a daemon produced the document
  std::uint64_t jobs_admitted = 0;
  std::uint64_t jobs_rejected = 0;       ///< queue_full + draining + overloaded
  std::uint64_t overload_rejections = 0; ///< the err.overloaded subset
  std::uint64_t deadline_expired = 0;    ///< jobs whose deadline died in queue
  std::uint64_t reply_failures = 0;      ///< reply sends that failed (EPIPE &c)
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_loads = 0;      ///< successful warm restores (0 or 1)
  std::uint64_t queue_depth = 0;         ///< at this job's dispatch
  double ewma_ms = 0.0;                  ///< recent mean job wall time
  std::uint8_t overloaded = 0;           ///< shedding threshold crossed
};

/// Render the sink (plus optional runtime/request/serve/lifetime facts)
/// as a JSON document: schema/version, request, counters, gauges, layers,
/// nets (trace rows), latency_us percentiles over the trace wall times,
/// cache, serve, lifetime, runtime (with the per-name span rollups).
/// `lifetime` may be null (the one-shot shape: `"lifetime": {"enabled": 0}`).
[[nodiscard]] std::string stats_to_json(const ObsSink& sink,
                                        const RuntimeInfo& rt = {},
                                        const RequestInfo& req = {},
                                        const ServeInfo& serve = {},
                                        const LifetimeSnapshot* lifetime = nullptr);

/// Render a registry snapshot (plus the serve rollup) in the Prometheus
/// text exposition format — what `req.metrics` returns alongside the JSON
/// and what the CI serve job format-checks.  Histograms surface as
/// quantile summaries (merlin_<name>{quantile="..."} plus _count/_sum).
[[nodiscard]] std::string stats_to_prometheus(const LifetimeSnapshot& lifetime,
                                              const ServeInfo& serve);

// -- minimal JSON value / parser -------------------------------------------

/// A tiny JSON document model: just enough to round-trip stats_to_json.
/// Numbers are stored as double (stats values are counters and timings,
/// all exactly representable well past any realistic magnitude here).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;  // ordered: deterministic dumps

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool has(const std::string& key) const {
    return kind == Kind::kObject && object.count(key) != 0;
  }
  /// Object member access; throws std::out_of_range on missing key.
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    return object.at(key);
  }
};

/// Deepest array/object nesting json_parse accepts.  The exporter's
/// documents nest under ten levels; the limit keeps hostile input such as
/// a megabyte of '[' from exhausting the parser's stack.
inline constexpr int kJsonMaxDepth = 64;

/// Parse a JSON document.  Throws std::invalid_argument on malformed input
/// (including trailing garbage and nesting deeper than kJsonMaxDepth).
/// Supports the full JSON grammar minus \uXXXX escapes (which the exporter
/// never emits).
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Reconstruct a LatencyHistogram from an exported histogram object (one
/// carrying a `hist` run-length bucket array, e.g. `latency_us` or any
/// `lifetime` histogram).  The rebuilt bucket counts — and therefore every
/// quantile — match the exporter's exactly; sum/max are not part of the
/// bucket array (read the object's own `max` key).  Throws
/// std::invalid_argument on a malformed `hist` member.
[[nodiscard]] LatencyHistogram hist_from_json(const JsonValue& hist_obj);

}  // namespace merlin
