#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace merlin {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string fmt_double(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

class Writer {
 public:
  void key(const char* k) {
    comma();
    append_escaped(out_, k);
    out_.push_back(':');
    fresh_ = true;
  }
  void begin_obj() { comma(); out_.push_back('{'); fresh_ = true; }
  void end_obj() { out_.push_back('}'); fresh_ = false; }
  void begin_arr() { comma(); out_.push_back('['); fresh_ = true; }
  void end_arr() { out_.push_back(']'); fresh_ = false; }
  void num(std::uint64_t v) { comma(); out_ += std::to_string(v); fresh_ = false; }
  void num(double v) { comma(); out_ += fmt_double(v); fresh_ = false; }
  void str(const char* v) { comma(); append_escaped(out_, v); fresh_ = false; }
  std::string take() { return std::move(out_); }

 private:
  void comma() {
    if (!fresh_ && !out_.empty()) out_.push_back(',');
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/// One histogram object: count, nearest-rank quantiles (bucket lower
/// bounds), exact max, and the bucket array in run-length form — pairs
/// [count, run] covering all LatencyHistogram::kSlots slots in order.
/// Mostly-zero banks collapse to a handful of pairs.
void write_hist(Writer& w, const LatencyHistogram& h) {
  w.begin_obj();
  w.key("count"); w.num(h.count());
  w.key("p50"); w.num(h.quantile(50));
  w.key("p90"); w.num(h.quantile(90));
  w.key("p99"); w.num(h.quantile(99));
  w.key("p999"); w.num(h.quantile(99.9));
  w.key("max"); w.num(h.max_value());
  w.key("hist");
  w.begin_arr();
  const auto& b = h.buckets();
  for (std::size_t i = 0; i < b.size();) {
    std::size_t run = 1;
    while (i + run < b.size() && b[i + run] == b[i]) ++run;
    w.begin_arr();
    w.num(b[i]);
    w.num(static_cast<std::uint64_t>(run));
    w.end_arr();
    i += run;
  }
  w.end_arr();
  w.end_obj();
}

}  // namespace

std::string stats_to_json(const ObsSink& sink, const RuntimeInfo& rt,
                          const RequestInfo& req, const ServeInfo& serve,
                          const LifetimeSnapshot* lifetime) {
  Writer w;
  w.begin_obj();
  w.key("schema"); w.str(kStatsSchemaName);
  w.key("schema_version"); w.num(static_cast<std::uint64_t>(kStatsSchemaVersion));

  // v4: which request produced this document.  Always emitted so consumers
  // need no presence check; the zero request with source "cli" is the
  // one-shot shape.  queue_ms is a wall-clock fact (like `runtime`).
  w.key("request");
  w.begin_obj();
  w.key("id"); w.num(req.id);
  w.key("source"); w.str(req.source);
  w.key("client"); w.num(req.client);
  w.key("queue_ms"); w.num(req.queue_ms);
  w.end_obj();

  w.key("counters");
  w.begin_obj();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    auto c = static_cast<Counter>(i);
    w.key(counter_name(c));
    w.num(sink.counters.get(c));
  }
  w.end_obj();

  w.key("gauges");
  w.begin_obj();
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    auto g = static_cast<Gauge>(i);
    w.key(gauge_name(g));
    w.num(sink.gauges.get(g));
  }
  w.end_obj();

  w.key("layers");
  w.begin_arr();
  for (std::size_t l = 0; l < sink.layers().size(); ++l) {
    const LayerStats& s = sink.layers()[l];
    if (s.calls == 0 && s.pushed == 0) continue;
    w.begin_obj();
    w.key("layer"); w.num(static_cast<std::uint64_t>(l));
    w.key("calls"); w.num(s.calls);
    w.key("pushed"); w.num(s.pushed);
    w.key("pruned"); w.num(s.pruned);
    w.key("kept"); w.num(s.kept);
    w.end_obj();
  }
  w.end_arr();

  w.key("nets");
  w.begin_arr();
  for (const TraceRecord& t : sink.traces()) {
    w.begin_obj();
    w.key("net_id"); w.num(static_cast<std::uint64_t>(t.net_id));
    w.key("sinks"); w.num(static_cast<std::uint64_t>(t.sinks));
    w.key("wall_us"); w.num(t.wall_us);
    w.key("peak_curve_width"); w.num(t.peak_curve_width);
    w.key("merlin_loops"); w.num(static_cast<std::uint64_t>(t.merlin_loops));
    w.key("buffers"); w.num(static_cast<std::uint64_t>(t.buffers));
    w.key("status"); w.str(net_status_name(t.status));
    w.end_obj();
  }
  w.end_arr();

  {
    // v6: percentiles come from the shared histogram type (bucket lower
    // bounds) so this section and the daemon's lifetime histograms
    // quantize identically.
    LatencyHistogram lat;
    for (const TraceRecord& t : sink.traces()) lat.record(t.wall_us);
    w.key("latency_us");
    write_hist(w, lat);
  }

  // Deterministic rollup of the sub-problem cache (cache/shard.h): the
  // hit/miss split of every session lookup plus the shared store's publish
  // totals and end size.  Redundant with `counters`/`gauges` by design —
  // a schema-stable section tools can read without knowing enum order.
  w.key("cache");
  w.begin_obj();
  {
    const std::uint64_t hits = sink.counters.get(Counter::kGammaCacheHits);
    const std::uint64_t misses = sink.counters.get(Counter::kGammaCacheMisses);
    w.key("lookups"); w.num(hits + misses);
    w.key("hits"); w.num(hits);
    w.key("misses"); w.num(misses);
    w.key("shared_hits"); w.num(sink.counters.get(Counter::kCacheSharedHits));
    w.key("net_memo_hits"); w.num(sink.counters.get(Counter::kNetMemoHits));
    w.key("entries_staged");
    w.num(sink.counters.get(Counter::kCacheEntriesStaged));
    w.key("entries_flushed");
    w.num(sink.counters.get(Counter::kCacheEntriesFlushed));
    w.key("entries_evicted");
    w.num(sink.counters.get(Counter::kCacheEntriesEvicted));
    w.key("store_entries"); w.num(sink.gauges.get(Gauge::kCacheStoreEntries));
    w.key("store_nodes"); w.num(sink.gauges.get(Gauge::kCacheStoreNodes));
  }
  w.end_obj();

  // v5: the daemon's survivability rollup.  Always emitted (the zero
  // section with enabled 0 is the one-shot CLI shape); every value is a
  // wall-clock or serving fact, quarantined from identity comparisons like
  // `runtime` and `request`.
  w.key("serve");
  w.begin_obj();
  w.key("enabled"); w.num(static_cast<std::uint64_t>(serve.enabled));
  w.key("jobs_admitted"); w.num(serve.jobs_admitted);
  w.key("jobs_rejected"); w.num(serve.jobs_rejected);
  w.key("overload_rejections"); w.num(serve.overload_rejections);
  w.key("deadline_expired"); w.num(serve.deadline_expired);
  w.key("reply_failures"); w.num(serve.reply_failures);
  w.key("snapshot_saves"); w.num(serve.snapshot_saves);
  w.key("snapshot_loads"); w.num(serve.snapshot_loads);
  w.key("queue_depth"); w.num(serve.queue_depth);
  w.key("ewma_ms"); w.num(serve.ewma_ms);
  w.key("overloaded"); w.num(static_cast<std::uint64_t>(serve.overloaded));
  w.end_obj();

  // v6: the daemon's process-lifetime registry.  Always emitted; one-shot
  // runs emit the zero section with enabled 0.  The stage and per-span
  // histograms are wall-clock facts; net_buffers and net_curve_width are
  // deterministic (docs/OBSERVABILITY.md).
  w.key("lifetime");
  w.begin_obj();
  if (lifetime == nullptr || lifetime->enabled == 0) {
    w.key("enabled"); w.num(std::uint64_t{0});
  } else {
    const LifetimeSnapshot& lt = *lifetime;
    w.key("enabled"); w.num(std::uint64_t{1});
    w.key("jobs"); w.num(lt.jobs);
    w.key("counters");
    w.begin_obj();
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      auto c = static_cast<Counter>(i);
      w.key(counter_name(c));
      w.num(lt.counters.get(c));
    }
    w.end_obj();
    w.key("gauges");
    w.begin_obj();
    for (std::size_t i = 0; i < kGaugeCount; ++i) {
      auto g = static_cast<Gauge>(i);
      w.key(gauge_name(g));
      w.num(lt.gauges.get(g));
    }
    w.end_obj();
    w.key("hists");
    w.begin_obj();
    for (std::size_t i = 0; i < kLifetimeHistCount; ++i) {
      w.key(lifetime_hist_name(static_cast<LifetimeHist>(i)));
      write_hist(w, lt.hist[i]);
    }
    w.end_obj();
    w.key("spans");
    w.begin_obj();
    for (std::size_t i = 0; i < kSpanNameCount; ++i) {
      if (lt.span_us[i].count() == 0) continue;  // keep the section compact
      w.key(span_name(static_cast<SpanName>(i)));
      write_hist(w, lt.span_us[i]);
    }
    w.end_obj();
    w.key("window_s"); w.num(static_cast<std::uint64_t>(lt.window_s));
    w.key("windows");
    w.begin_arr();
    for (const WindowSample& s : lt.windows) {
      w.begin_obj();
      w.key("jobs"); w.num(s.jobs);
      w.key("shed"); w.num(s.shed);
      w.key("queue_depth"); w.num(s.queue_depth);
      w.key("req_s"); w.num(s.req_s);
      w.end_obj();
    }
    w.end_arr();
  }
  w.end_obj();

  w.key("runtime");
  w.begin_obj();
  w.key("threads"); w.num(static_cast<std::uint64_t>(rt.threads));
  w.key("steals"); w.num(rt.steals);
  w.key("wall_ms"); w.num(rt.wall_ms);
  w.key("worker_tasks");
  w.begin_arr();
  for (std::uint64_t t : rt.worker_tasks) w.num(t);
  w.end_arr();
  w.key("worker_cpu_ms");
  w.begin_arr();
  for (const double ms : rt.worker_cpu_ms) w.num(ms);
  w.end_arr();
  // Span rollups live here — not in their own top-level section — because
  // their totals are wall times: scheduling facts, never diffable.  They
  // come from the sink's rollup, so they are complete whether or not the
  // ring was armed or overwrote.  The span *structure* determinism
  // contract is tested on the ring itself, not through this export.
  w.key("spans");
  w.begin_arr();
  for (const SpanSummary& s : summarize_spans(sink)) {
    w.begin_obj();
    w.key("name"); w.str(span_name(s.name));
    w.key("count"); w.num(s.count);
    w.key("total_ns"); w.num(s.total_ns);
    w.end_obj();
  }
  w.end_arr();
  w.key("span_count");
  w.num(static_cast<std::uint64_t>(sink.spans().size()));
  w.key("spans_dropped"); w.num(sink.spans().dropped());
  w.end_obj();

  w.end_obj();
  return w.take();
}

// -- parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    std::ostringstream os;
    os << "json_parse: " << what << " at offset " << pos_;
    throw std::invalid_argument(os.str());
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth) fail("nesting too deep");
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = b;
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[key] = parse_value();
      skip_ws();
      char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == '}') { ++pos_; break; }
      fail("expected ',' or '}' in object");
    }
    return v;
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == ']') { ++pos_; break; }
      fail("expected ',' or ']' in array");
    }
    return v;
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          default: fail("unsupported escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = std::stod(std::string(s_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("malformed number");
    }
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

// -- Prometheus exposition --------------------------------------------------

namespace {

void prom_line(std::string& out, const char* metric, const char* labels,
               std::uint64_t v) {
  out += metric;
  out += labels;
  out.push_back(' ');
  out += std::to_string(v);
  out.push_back('\n');
}

void prom_line(std::string& out, const char* metric, const char* labels,
               double v) {
  out += metric;
  out += labels;
  out.push_back(' ');
  out += fmt_double(v);
  out.push_back('\n');
}

void prom_summary(std::string& out, const char* metric,
                  const std::string& label_kv, const LatencyHistogram& h) {
  struct Q { const char* q; double p; };
  for (const Q& q : {Q{"0.5", 50.0}, Q{"0.9", 90.0}, Q{"0.99", 99.0},
                     Q{"0.999", 99.9}}) {
    out += metric;
    out += "{" + label_kv + ",quantile=\"" + q.q + "\"} ";
    out += std::to_string(h.quantile(q.p));
    out.push_back('\n');
  }
  out += metric;
  out += std::string("_sum{") + label_kv + "} " + std::to_string(h.sum()) + "\n";
  out += metric;
  out += std::string("_count{") + label_kv + "} " + std::to_string(h.count()) +
         "\n";
}

}  // namespace

std::string stats_to_prometheus(const LifetimeSnapshot& lifetime,
                                const ServeInfo& serve) {
  std::string out;
  out += "# TYPE merlin_lifetime_enabled gauge\n";
  prom_line(out, "merlin_lifetime_enabled", "",
            static_cast<std::uint64_t>(lifetime.enabled));
  out += "# TYPE merlin_jobs_total counter\n";
  prom_line(out, "merlin_jobs_total", "", lifetime.jobs);
  out += "# TYPE merlin_counter_total counter\n";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    auto c = static_cast<Counter>(i);
    const std::string labels =
        std::string("{name=\"") + counter_name(c) + "\"}";
    prom_line(out, "merlin_counter_total", labels.c_str(),
              lifetime.counters.get(c));
  }
  out += "# TYPE merlin_gauge gauge\n";
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    auto g = static_cast<Gauge>(i);
    const std::string labels =
        std::string("{name=\"") + gauge_name(g) + "\"}";
    prom_line(out, "merlin_gauge", labels.c_str(), lifetime.gauges.get(g));
  }
  out += "# TYPE merlin_span_ns_total counter\n";
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    const std::string labels =
        std::string("{span=\"") + span_name(static_cast<SpanName>(i)) + "\"}";
    prom_line(out, "merlin_span_ns_total", labels.c_str(),
              lifetime.spans[i].total_ns);
  }
  out += "# TYPE merlin_lifetime_hist summary\n";
  for (std::size_t i = 0; i < kLifetimeHistCount; ++i) {
    const std::string kv = std::string("hist=\"") +
                           lifetime_hist_name(static_cast<LifetimeHist>(i)) +
                           "\"";
    prom_summary(out, "merlin_lifetime_hist", kv, lifetime.hist[i]);
  }
  out += "# TYPE merlin_serve_jobs_admitted_total counter\n";
  prom_line(out, "merlin_serve_jobs_admitted_total", "", serve.jobs_admitted);
  out += "# TYPE merlin_serve_jobs_rejected_total counter\n";
  prom_line(out, "merlin_serve_jobs_rejected_total", "", serve.jobs_rejected);
  out += "# TYPE merlin_serve_overload_rejections_total counter\n";
  prom_line(out, "merlin_serve_overload_rejections_total", "",
            serve.overload_rejections);
  out += "# TYPE merlin_serve_deadline_expired_total counter\n";
  prom_line(out, "merlin_serve_deadline_expired_total", "",
            serve.deadline_expired);
  out += "# TYPE merlin_serve_snapshot_saves_total counter\n";
  prom_line(out, "merlin_serve_snapshot_saves_total", "",
            serve.snapshot_saves);
  out += "# TYPE merlin_serve_queue_depth gauge\n";
  prom_line(out, "merlin_serve_queue_depth", "", serve.queue_depth);
  out += "# TYPE merlin_serve_ewma_ms gauge\n";
  prom_line(out, "merlin_serve_ewma_ms", "", serve.ewma_ms);
  out += "# TYPE merlin_serve_overloaded gauge\n";
  prom_line(out, "merlin_serve_overloaded", "",
            static_cast<std::uint64_t>(serve.overloaded));
  return out;
}

namespace {

// A bucket count or run length: a non-negative integer below 2^64.  Any
// other number makes the integer cast undefined; a negative run, wrapped
// to 2^64 - 1, would pass the slot-count check and walk `slot + i` off the
// bucket array.
std::uint64_t hist_field(const JsonValue& v) {
  if (!v.is_number() || !(v.number >= 0.0 && v.number < 0x1p64) ||
      v.number != std::floor(v.number))
    throw std::invalid_argument("hist_from_json: malformed [count, run]");
  return static_cast<std::uint64_t>(v.number);
}

}  // namespace

LatencyHistogram hist_from_json(const JsonValue& hist_obj) {
  if (!hist_obj.is_object() || !hist_obj.has("hist") ||
      !hist_obj.at("hist").is_array())
    throw std::invalid_argument("hist_from_json: no hist bucket array");
  LatencyHistogram h;
  std::size_t slot = 0;
  for (const JsonValue& pair : hist_obj.at("hist").array) {
    if (!pair.is_array() || pair.array.size() != 2)
      throw std::invalid_argument("hist_from_json: malformed [count, run]");
    const std::uint64_t count = hist_field(pair.array[0]);
    const std::uint64_t run = hist_field(pair.array[1]);
    if (run > LatencyHistogram::kSlots - slot)
      throw std::invalid_argument("hist_from_json: runs exceed slot count");
    if (count != 0)
      for (std::size_t i = 0; i < run; ++i) h.add_bucket(slot + i, count);
    slot += run;
  }
  if (slot != LatencyHistogram::kSlots)
    throw std::invalid_argument("hist_from_json: runs do not cover all slots");
  return h;
}

}  // namespace merlin
