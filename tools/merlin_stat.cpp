// merlin_stat: poll a running merlin_d's lifetime telemetry, or parse a
// flight-recorder ring file post-mortem.
//
//   merlin_stat --socket PATH [--watch [SECONDS]] [--json | --prom]
//   merlin_stat --flightrec FILE [--last N]
//
//     --socket PATH    daemon unix socket; sends one req.metrics frame and
//                      renders the lifetime tables (default mode)
//     --watch [S]      re-poll and re-render every S seconds (default 2)
//                      until interrupted
//     --json           print the raw merlin.stats v8 JSON instead
//     --prom           print the Prometheus text exposition instead
//     --flightrec FILE parse a flight-recorder ring (live, or left
//                      behind by a dead daemon) and print its events,
//                      oldest first — no daemon needed
//     --last N         with --flightrec: print only the last N events
//
// Exit codes: 0 success, 1 transport/parse failure, 2 usage error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "flags.h"
#include "flow/report.h"
#include "obs/flightrec.h"
#include "obs/json.h"
#include "serve/client.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: merlin_stat --socket PATH [--watch [SECONDS]] "
               "[--json | --prom]\n"
               "       merlin_stat --flightrec FILE [--last N]\n");
  std::exit(kExitUsage);
}

using merlin::JsonValue;

/// Safe JSON access: zero / empty for anything missing, so a v5 daemon (or
/// a document reporting enabled 0) renders as zeros, not a crash.
double num_at(const JsonValue& v, const std::string& key) {
  return v.has(key) && v.at(key).is_number() ? v.at(key).number : 0.0;
}

void hist_row(merlin::TextTable& t, const std::string& name,
              const JsonValue& h) {
  t.begin_row();
  t.cell(name);
  t.cell(static_cast<std::size_t>(num_at(h, "count")));
  t.cell(static_cast<std::size_t>(num_at(h, "p50")));
  t.cell(static_cast<std::size_t>(num_at(h, "p90")));
  t.cell(static_cast<std::size_t>(num_at(h, "p99")));
  t.cell(static_cast<std::size_t>(num_at(h, "p999")));
  t.cell(static_cast<std::size_t>(num_at(h, "max")));
}

int render_tables(const std::string& json) {
  JsonValue doc;
  try {
    doc = merlin::json_parse(json);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "merlin_stat: bad metrics JSON: %s\n", e.what());
    return kExitFailure;
  }
  if (!doc.is_object() || !doc.has("lifetime") || !doc.has("serve")) {
    std::fprintf(stderr, "merlin_stat: not a merlin.stats document\n");
    return kExitFailure;
  }
  const JsonValue& lt = doc.at("lifetime");
  const JsonValue& sv = doc.at("serve");
  std::printf("lifetime: enabled=%llu jobs=%llu  serve: admitted=%llu "
              "rejected=%llu queue=%llu ewma_ms=%.1f overloaded=%llu\n",
              static_cast<unsigned long long>(num_at(lt, "enabled")),
              static_cast<unsigned long long>(num_at(lt, "jobs")),
              static_cast<unsigned long long>(num_at(sv, "jobs_admitted")),
              static_cast<unsigned long long>(num_at(sv, "jobs_rejected")),
              static_cast<unsigned long long>(num_at(sv, "queue_depth")),
              num_at(sv, "ewma_ms"),
              static_cast<unsigned long long>(num_at(sv, "overloaded")));
  if (num_at(lt, "enabled") == 0.0) {
    std::printf("(lifetime telemetry disabled: per-job document or v5 daemon)\n");
    return kExitOk;
  }
  merlin::TextTable hists({"hist", "count", "p50", "p90", "p99", "p999", "max"});
  if (lt.has("hists"))
    for (const auto& [name, h] : lt.at("hists").object) hist_row(hists, name, h);
  if (lt.has("spans"))
    for (const auto& [name, h] : lt.at("spans").object) hist_row(hists, name, h);
  std::printf("%s", hists.render().c_str());
  if (lt.has("windows") && !lt.at("windows").array.empty()) {
    merlin::TextTable wins({"window", "jobs", "req_s", "queue", "shed"});
    std::size_t i = 0;
    for (const JsonValue& s : lt.at("windows").array) {
      wins.begin_row();
      wins.cell(i++);
      wins.cell(static_cast<std::size_t>(num_at(s, "jobs")));
      wins.cell(num_at(s, "req_s"), 2);
      wins.cell(static_cast<std::size_t>(num_at(s, "queue_depth")));
      wins.cell(static_cast<std::size_t>(num_at(s, "shed")));
    }
    std::printf("windows (%llus each, oldest first):\n%s",
                static_cast<unsigned long long>(num_at(lt, "window_s")),
                wins.render().c_str());
  }
  return kExitOk;
}

int run_flightrec(const std::string& path, std::size_t last) {
  merlin::FlightDump dump;
  std::string err;
  if (!merlin::FlightRecorder::load(path, &dump, &err)) {
    std::fprintf(stderr, "merlin_stat: %s\n", err.c_str());
    return kExitFailure;
  }
  std::printf("flightrec: %llu event(s) recorded, ring capacity %u, "
              "%zu readable\n",
              static_cast<unsigned long long>(dump.total), dump.capacity,
              dump.events.size());
  std::size_t start = 0;
  if (last > 0 && dump.events.size() > last)
    start = dump.events.size() - last;
  for (std::size_t i = start; i < dump.events.size(); ++i) {
    const merlin::FlightRecord& r = dump.events[i];
    std::printf("%llu %s job=%llu arg=%llu\n",
                static_cast<unsigned long long>(r.ns),
                merlin::flight_event_name(
                    static_cast<merlin::FlightEvent>(r.event)),
                static_cast<unsigned long long>(r.job_id),
                static_cast<unsigned long long>(r.arg));
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string flightrec_path;
  std::size_t last = 0;
  bool raw_json = false;
  bool raw_prom = false;
  unsigned watch_s = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](int more) {
      if (i + more >= argc) usage();
    };
    if (a == "--socket") {
      need(1);
      socket_path = argv[++i];
    } else if (a == "--flightrec") {
      need(1);
      flightrec_path = argv[++i];
    } else if (a == "--last") {
      need(1);
      if (!merlin::flags::parse_count(argv[++i], last)) usage();
    } else if (a == "--json") {
      raw_json = true;
    } else if (a == "--prom") {
      raw_prom = true;
    } else if (a == "--watch") {
      watch_s = 2;
      // Optional numeric operand (0 keeps the default).
      if (i + 1 < argc && argv[i + 1][0] != '-' &&
          !merlin::flags::parse_count(argv[++i], watch_s))
        usage();
      if (watch_s == 0) watch_s = 2;
    } else {
      usage();
    }
  }
  if (!flightrec_path.empty()) return run_flightrec(flightrec_path, last);
  if (socket_path.empty() || (raw_json && raw_prom)) usage();

  do {
    std::string json, prom;
    try {
      // One connection per poll: the daemon's protocol is synchronous per
      // connection, and a fresh connect also proves liveness each tick.
      merlin::ServeClient client(socket_path);
      merlin::MetricsResp m = client.metrics();
      json = std::move(m.json);
      prom = std::move(m.prometheus);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "merlin_stat: %s\n", e.what());
      return kExitFailure;
    }
    int rc = kExitOk;
    if (raw_json) {
      std::printf("%s\n", json.c_str());
    } else if (raw_prom) {
      std::printf("%s", prom.c_str());
    } else {
      rc = render_tables(json);
    }
    if (rc != kExitOk) return rc;
    if (watch_s > 0) {
      std::fflush(stdout);
      ::sleep(watch_s);
    }
  } while (watch_s > 0);
  return kExitOk;
}
