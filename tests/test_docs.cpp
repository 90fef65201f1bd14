// Documentation drift guards.  The docs are part of the contract:
//
//   * merlin_cli's option parser, its usage() string, and README.md's flag
//     table must list exactly the same set of --flags;
//   * every counter, gauge, phase, and span name the obs layer can emit must
//     be documented in docs/OBSERVABILITY.md (the reverse direction — no
//     stale names in the doc — is tools/check_docs.sh's job in CI).
//
// Compiled with MERLIN_SOURCE_DIR pointing at the repo root so the tests can
// read the sources regardless of the build directory location.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "obs/counters.h"
#include "obs/flightrec.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace merlin {
namespace {

std::string read_file(const std::string& rel) {
  const std::string path = std::string(MERLIN_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// All distinct `--flag` tokens in `text`.
std::set<std::string> extract_flags(const std::string& text) {
  std::set<std::string> flags;
  static const std::regex re("--[a-z][a-z0-9-]*");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
       it != std::sregex_iterator(); ++it)
    flags.insert(it->str());
  return flags;
}

std::string join(const std::set<std::string>& s) {
  std::string out;
  for (const std::string& x : s) out += x + " ";
  return out;
}

TEST(Docs, CliParserUsageStringAndReadmeAgreeOnFlags) {
  const std::string cli = read_file("tools/merlin_cli.cpp");

  // Flags the parser actually accepts: every `a == "--x"` comparison.
  std::set<std::string> parser;
  static const std::regex cmp_re("==\\s*\"(--[a-z][a-z0-9-]*)\"");
  for (auto it = std::sregex_iterator(cli.begin(), cli.end(), cmp_re);
       it != std::sregex_iterator(); ++it)
    parser.insert((*it)[1].str());
  ASSERT_FALSE(parser.empty());

  // Flags the binary prints in its usage() string.
  const std::size_t ub = cli.find("void usage()");
  const std::size_t ue = cli.find("std::exit", ub);
  ASSERT_NE(ub, std::string::npos);
  ASSERT_NE(ue, std::string::npos);
  const std::set<std::string> usage = extract_flags(cli.substr(ub, ue - ub));

  // Flags README.md documents in its merlin_cli flag table (rows shaped
  // `| \`--flag ...\` | ... |`).
  const std::string readme = read_file("README.md");
  std::set<std::string> documented;
  std::istringstream lines(readme);
  std::string line;
  while (std::getline(lines, line))
    if (line.rfind("| `--", 0) == 0)
      for (const std::string& f : extract_flags(line)) documented.insert(f);

  EXPECT_EQ(parser, usage)
      << "parser accepts [" << join(parser) << "] but usage() advertises ["
      << join(usage) << "]";
  EXPECT_EQ(parser, documented)
      << "parser accepts [" << join(parser) << "] but README documents ["
      << join(documented) << "]";
}

TEST(Docs, EveryObservableNameIsDocumented) {
  const std::string doc = read_file("docs/OBSERVABILITY.md");
  for (std::size_t i = 0; i < kCounterCount; ++i)
    EXPECT_NE(doc.find(counter_name(static_cast<Counter>(i))),
              std::string::npos)
        << "counter `" << counter_name(static_cast<Counter>(i))
        << "` missing from docs/OBSERVABILITY.md";
  for (std::size_t i = 0; i < kGaugeCount; ++i)
    EXPECT_NE(doc.find(gauge_name(static_cast<Gauge>(i))), std::string::npos)
        << "gauge `" << gauge_name(static_cast<Gauge>(i))
        << "` missing from docs/OBSERVABILITY.md";
  for (std::size_t i = 0; i < kSpanNameCount; ++i)
    EXPECT_NE(doc.find(span_name(static_cast<SpanName>(i))), std::string::npos)
        << "span `" << span_name(static_cast<SpanName>(i))
        << "` missing from docs/OBSERVABILITY.md";
  for (std::size_t i = 0; i < kLifetimeHistCount; ++i)
    EXPECT_NE(doc.find(lifetime_hist_name(static_cast<LifetimeHist>(i))),
              std::string::npos)
        << "lifetime histogram `"
        << lifetime_hist_name(static_cast<LifetimeHist>(i))
        << "` missing from docs/OBSERVABILITY.md";
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(FlightEvent::kCount); ++i)
    EXPECT_NE(doc.find(flight_event_name(static_cast<FlightEvent>(i))),
              std::string::npos)
        << "flight-recorder event `"
        << flight_event_name(static_cast<FlightEvent>(i))
        << "` missing from docs/OBSERVABILITY.md";
}

TEST(Docs, ObservabilityDocStatesTheCurrentSchemaVersion) {
  const std::string doc = read_file("docs/OBSERVABILITY.md");
  EXPECT_NE(doc.find("merlin.stats"), std::string::npos);
  const std::string version_line =
      "\"schema_version\": " + std::to_string(kStatsSchemaVersion);
  EXPECT_NE(doc.find(version_line), std::string::npos)
      << "docs/OBSERVABILITY.md must show the current schema_version ("
      << kStatsSchemaVersion << ") in its worked example";
}

}  // namespace
}  // namespace merlin
