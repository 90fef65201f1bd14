#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/sink.h"

namespace merlin {

std::vector<SpanRecord> SpanRing::snapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(buf_.size());
  // Once the ring has wrapped, head_ points at the oldest record.
  for (std::size_t i = 0; i < buf_.size(); ++i)
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  return out;
}

std::vector<SpanSummary> summarize_spans(const ObsSink& sink) {
  std::vector<SpanSummary> out;
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    const SpanTotal& t = sink.span_totals()[i];
    if (t.count != 0)
      out.push_back({static_cast<SpanName>(i), t.count, t.total_ns});
  }
  return out;
}

namespace {

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

std::string trace_to_json(const ObsSink& sink) {
  const std::vector<SpanRecord> spans = sink.spans().snapshot();

  // Timestamps are normalized to the earliest span so the timeline starts
  // at t=0 regardless of process uptime.
  std::uint64_t t0 = 0;
  bool have_t0 = false;
  std::uint32_t max_worker = 0;
  for (const SpanRecord& r : spans) {
    if (!have_t0 || r.begin_ns < t0) {
      t0 = r.begin_ns;
      have_t0 = true;
    }
    max_worker = std::max(max_worker, r.worker);
  }

  std::string out;
  out.reserve(128 + spans.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Metadata: one named process, one named thread track per worker.  tid 0
  // is reserved (some viewers treat it specially), so worker w maps to
  // tid w+1.
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"merlin\"}}";
  if (have_t0) {
    for (std::uint32_t w = 0; w <= max_worker; ++w) {
      out += ",{\"ph\":\"M\",\"pid\":1,\"tid\":";
      out += std::to_string(w + 1);
      out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker ";
      out += std::to_string(w);
      out += "\"}}";
    }
  }

  for (const SpanRecord& r : spans) {
    out += ",{\"name\":\"";
    out += span_name(r.name);
    out += "\",\"cat\":\"";
    out += r.scheduling() ? "sched" : "net";
    // Complete ("X") events carry ts+dur; zero-duration records become
    // thread-scoped instants ("i").  ts/dur are microseconds (doubles).
    if (r.instant()) {
      out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      append_number(out, static_cast<double>(r.begin_ns - t0) / 1000.0);
    } else {
      out += "\",\"ph\":\"X\",\"ts\":";
      append_number(out, static_cast<double>(r.begin_ns - t0) / 1000.0);
      out += ",\"dur\":";
      append_number(out, static_cast<double>(r.end_ns - r.begin_ns) / 1000.0);
    }
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(r.worker + 1);
    out += ",\"args\":{";
    if (!r.scheduling()) {
      out += "\"net\":";
      out += std::to_string(r.net_id);
      out += ",\"seq\":";
      out += std::to_string(r.seq);
      out += ",";
    }
    out += "\"arg\":";
    out += std::to_string(r.arg);
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace merlin
