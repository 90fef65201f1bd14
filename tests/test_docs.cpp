// Documentation drift guards: the one check that the docs match the source.
// The docs are part of the contract, so every table that names a piece of
// the source lists exactly what the source defines, in both directions:
//
//   * every intra-repo markdown link resolves;
//   * docs/OBSERVABILITY.md's counter, gauge, span and lifetime-telemetry
//     rows, docs/ROBUSTNESS.md's fault-site registry and docs/SERVING.md's
//     wire tables match the name functions of their enums;
//   * docs/ALGORITHM.md's kernel-entry table and docs/API.md's cache-API
//     table match the `/// kernel-entry:` / `/// cache-entry:` annotations
//     in the headers (no enum holds those names);
//   * each tool's option parser, its usage() string and its flag table
//     agree;
//   * every stats schema version the docs and the src/ and tools/ comments
//     state is the current one.
//
// Every failure names the offending entry and points at it as
// "at FILE:LINE: text".  Compiled with MERLIN_SOURCE_DIR pointing at the
// repo root so the tests can read the sources regardless of the build
// directory location.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/flightrec.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/faultinject.h"
#include "serve/protocol.h"

namespace merlin {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& rel) {
  const std::string path = std::string(MERLIN_SOURCE_DIR) + "/" + rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> read_lines(const std::string& rel) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(rel));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Repo-relative paths of the files in directory `rel` ending in `ext`,
/// sorted.
std::vector<std::string> files_in(const std::string& rel,
                                  const std::string& ext) {
  std::vector<std::string> out;
  for (const auto& e :
       fs::directory_iterator(std::string(MERLIN_SOURCE_DIR) + "/" + rel))
    if (e.path().extension() == ext)
      out.push_back(rel + "/" + e.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

/// Repo-relative paths of the .h and .cpp files anywhere under directory
/// `rel`, sorted.
std::vector<std::string> sources_under(const std::string& rel) {
  std::vector<std::string> out;
  const fs::path root(MERLIN_SOURCE_DIR);
  for (const auto& e : fs::recursive_directory_iterator(root / rel))
    if (e.path().extension() == ".h" || e.path().extension() == ".cpp")
      out.push_back(fs::relative(e.path(), root).generic_string());
  std::sort(out.begin(), out.end());
  return out;
}

/// "FILE:LINE: text" for line `i` (0-based) of `rel`.
std::string at(const std::string& rel, std::size_t i, const std::string& text) {
  return rel + ":" + std::to_string(i + 1) + ": " + text;
}

/// Name → where it is written ("FILE:LINE: text", first occurrence).
using Located = std::map<std::string, std::string>;

const std::regex kSnake("[a-z][a-z0-9_]*");
const std::regex kDotted("[a-z]+\\.[a-z_]+");
const std::regex kIdent("[A-Za-z_][A-Za-z0-9_]*");

/// The names of the `| `name` ...` table rows of `rel` that fully match
/// `shape`.  With a `marker`, only the rows between
/// `<!-- marker:begin -->` and `<!-- marker:end -->` count.
Located table_rows(const std::string& rel, const std::regex& shape,
                   const std::string& marker = "") {
  static const std::regex row_re("^\\| `([^`]+)`");
  Located rows;
  bool inside = marker.empty();
  const std::vector<std::string> lines = read_lines(rel);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (!marker.empty() && line.find("<!-- " + marker + ":") == 0) {
      inside = line.find(":begin -->") != std::string::npos;
      continue;
    }
    std::smatch m;
    if (inside && std::regex_search(line, m, row_re) &&
        std::regex_match(m[1].str(), shape))
      rows.emplace(m[1].str(), at(rel, i, line));
  }
  return rows;
}

/// The names of the `/// <tag>: Name` annotations in `headers`.
Located annotations(const std::vector<std::string>& headers,
                    const std::string& tag) {
  const std::regex re("^/// " + tag + ": ([A-Za-z_][A-Za-z0-9_]*)");
  Located out;
  for (const std::string& hdr : headers) {
    const std::vector<std::string> lines = read_lines(hdr);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::smatch m;
      if (std::regex_search(lines[i], m, re))
        out.emplace(m[1].str(), at(hdr, i, lines[i]));
    }
  }
  return out;
}

/// `names` (from the enums' name functions), each located at the first
/// line of `headers` that spells it as a string literal, else at the first
/// header.
Located defined_in(const std::vector<std::string>& names,
                   const std::vector<std::string>& headers) {
  Located out;
  for (const std::string& hdr : headers) {
    const std::vector<std::string> lines = read_lines(hdr);
    for (const std::string& name : names)
      for (std::size_t i = 0; i < lines.size() && out.count(name) == 0; ++i)
        if (lines[i].find('"' + name + '"') != std::string::npos)
          out.emplace(name, at(hdr, i, lines[i]));
  }
  for (const std::string& name : names) out.emplace(name, headers.front());
  return out;
}

/// name(E(0)) .. name(E(count - 1)).
template <typename E>
std::vector<std::string> enum_names(std::size_t count,
                                    const char* (*name)(E)) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i)
    out.emplace_back(name(static_cast<E>(i)));
  return out;
}

std::vector<std::string> concat(std::vector<std::vector<std::string>> parts) {
  std::vector<std::string> out;
  for (const std::vector<std::string>& p : parts)
    out.insert(out.end(), p.begin(), p.end());
  return out;
}

std::vector<std::string> lifetime_names() {
  return concat({enum_names<LifetimeHist>(kLifetimeHistCount,
                                          lifetime_hist_name),
                 enum_names<FlightEvent>(
                     static_cast<std::size_t>(FlightEvent::kCount),
                     flight_event_name)});
}

/// One failure per name on only one side, pointing at where it is written.
void expect_same_names(const Located& source, const std::string& source_what,
                       const Located& doc, const std::string& doc_what) {
  EXPECT_FALSE(source.empty()) << "no names found in " << source_what;
  EXPECT_FALSE(doc.empty()) << "no table rows found in " << doc_what;
  for (const auto& [name, where] : source)
    if (doc.count(name) == 0)
      ADD_FAILURE() << "UNDOCUMENTED: `" << name << "` (from " << source_what
                    << ") has no row in " << doc_what << "\n  at " << where;
  for (const auto& [name, where] : doc)
    if (source.count(name) == 0)
      ADD_FAILURE() << "STALE: `" << name << "` (row of " << doc_what
                    << ") is not in " << source_what << "\n  at " << where;
}

TEST(Docs, IntraRepoLinksResolve) {
  // Every `[text](target)` outside fenced code, in every *.md of the repo
  // but the build trees, .git and related/, must name an existing file or
  // directory, relative to the doc or to the repo root.  URLs, pure
  // #anchors and targets with spaces (code like `[&](const Net& n)`) are
  // not links; a target's own #anchor is stripped.
  const fs::path root(MERLIN_SOURCE_DIR);
  std::vector<std::string> docs;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    const std::string name = it->path().filename().string();
    if (it.depth() == 0 && it->is_directory() &&
        (name.rfind("build", 0) == 0 || name == ".git" || name == "related")) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && it->path().extension() == ".md")
      docs.push_back(fs::relative(it->path(), root).generic_string());
  }
  std::sort(docs.begin(), docs.end());
  ASSERT_FALSE(docs.empty());

  static const std::regex link_re("\\]\\(([^)]+)\\)");
  for (const std::string& rel : docs) {
    const fs::path base = (root / rel).parent_path();
    const std::vector<std::string> lines = read_lines(rel);
    bool fenced = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      if (line.rfind("```", 0) == 0) {
        fenced = !fenced;
        continue;
      }
      if (fenced) continue;
      for (auto m = std::sregex_iterator(line.begin(), line.end(), link_re);
           m != std::sregex_iterator(); ++m) {
        std::string target = (*m)[1].str();
        if (target.rfind("http://", 0) == 0 ||
            target.rfind("https://", 0) == 0 ||
            target.rfind("mailto:", 0) == 0 ||
            target.find(' ') != std::string::npos)
          continue;
        target = target.substr(0, target.find('#'));
        if (target.empty()) continue;
        if (!fs::exists(base / target) && !fs::exists(root / target))
          ADD_FAILURE() << "BROKEN LINK: " << rel << " -> " << target
                        << "\n  at " << at(rel, i, line);
      }
    }
  }
}

TEST(Docs, EveryObservableNameIsDocumented) {
  // Every snake_case row of OBSERVABILITY.md is a counter, gauge, lifetime
  // histogram or flight event, and each of those has a row.
  expect_same_names(
      defined_in(concat({enum_names<Counter>(kCounterCount, counter_name),
                         enum_names<Gauge>(kGaugeCount, gauge_name),
                         lifetime_names()}),
                 {"src/obs/counters.h", "src/obs/registry.h",
                  "src/obs/flightrec.h"}),
      "src/obs/{counters,registry,flightrec}.h",
      table_rows("docs/OBSERVABILITY.md", kSnake), "docs/OBSERVABILITY.md");
}

TEST(Docs, SpanTableMatchesSpanNames) {
  expect_same_names(
      defined_in(enum_names<SpanName>(kSpanNameCount, span_name),
                 {"src/obs/trace.h"}),
      "span_name() in src/obs/trace.h",
      table_rows("docs/OBSERVABILITY.md", kDotted),
      "docs/OBSERVABILITY.md's span table");
}

TEST(Docs, FaultSiteRegistryMatchesFaultSiteNames) {
  expect_same_names(
      defined_in(enum_names<FaultSite>(kFaultSiteCount, fault_site_name),
                 {"src/runtime/faultinject.h"}),
      "fault_site_name() in src/runtime/faultinject.h",
      table_rows("docs/ROBUSTNESS.md", kDotted),
      "docs/ROBUSTNESS.md's injection site registry");
}

TEST(Docs, KernelEntryTableMatchesAnnotations) {
  expect_same_names(annotations({"src/curve/kernel.h"}, "kernel-entry"),
                    "the kernel-entry annotations in src/curve/kernel.h",
                    table_rows("docs/ALGORITHM.md", kIdent, "kernel-entries"),
                    "docs/ALGORITHM.md's kernel-entries table");
}

TEST(Docs, CacheApiTableMatchesAnnotations) {
  expect_same_names(annotations(files_in("src/cache", ".h"), "cache-entry"),
                    "the cache-entry annotations in src/cache/*.h",
                    table_rows("docs/API.md", kIdent, "cache-api"),
                    "docs/API.md's cache-api table");
}

TEST(Docs, WireTablesMatchProtocolNames) {
  // Every raw byte the decoder accepts as a message type, or that names
  // one, and every raw byte that names an error code.
  std::vector<std::string> names;
  for (unsigned raw = 0; raw < 256; ++raw) {
    const auto b = static_cast<std::uint8_t>(raw);
    const std::string msg = msg_type_name(static_cast<MsgType>(b));
    if (msg_type_known(b) || msg != "unknown") names.push_back(msg);
    const std::string err = serve_error_name(static_cast<ServeError>(b));
    if (err != "unknown") names.push_back(err);
  }
  expect_same_names(
      defined_in(names, {"src/serve/protocol.h"}),
      "msg_type_name()/serve_error_name() in src/serve/protocol.h",
      table_rows("docs/SERVING.md", kDotted, "wire-protocol"),
      "docs/SERVING.md's wire-protocol tables");
}

TEST(Docs, LifetimeTelemetryTablesMatchNames) {
  expect_same_names(
      defined_in(lifetime_names(), {"src/obs/registry.h", "src/obs/flightrec.h"}),
      "lifetime_hist_name()/flight_event_name()",
      table_rows("docs/OBSERVABILITY.md", kSnake, "lifetime-telemetry"),
      "docs/OBSERVABILITY.md's lifetime-telemetry tables");
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
  // Per tool: the flags its parser accepts (every `a == "--x"`
  // comparison), the flags its usage() string advertises and, where it
  // has one, the leading flag of each `| \`--flag ...\` |` row of its flag
  // table (descriptions mention other flags) must be one set.
  struct Tool {
    const char* source;
    const char* flag_table;  ///< nullptr: the tool has no flag table
  };
  for (const Tool& t : {Tool{"tools/merlin_cli.cpp", "README.md"},
                        Tool{"tools/merlin_d.cpp", "docs/SERVING.md"},
                        Tool{"tools/merlin_stat.cpp", nullptr}}) {
    SCOPED_TRACE(t.source);
    const std::string src = read_file(t.source);

    std::set<std::string> parser;
    static const std::regex cmp_re("==\\s*\"(--[a-z][a-z0-9-]*)\"");
    for (auto it = std::sregex_iterator(src.begin(), src.end(), cmp_re);
         it != std::sregex_iterator(); ++it)
      parser.insert((*it)[1].str());
    ASSERT_FALSE(parser.empty());

    const std::size_t ub = src.find("void usage()");
    const std::size_t ue = src.find("std::exit", ub);
    ASSERT_NE(ub, std::string::npos);
    ASSERT_NE(ue, std::string::npos);
    const std::set<std::string> usage = extract_flags(src.substr(ub, ue - ub));
    EXPECT_EQ(parser, usage)
        << "parser accepts [" << join(parser) << "] but usage() advertises ["
        << join(usage) << "]";

    if (t.flag_table == nullptr) continue;
    std::set<std::string> documented;
    static const std::regex row_re("^\\| `(--[a-z][a-z0-9-]*)");
    for (const std::string& line : read_lines(t.flag_table)) {
      std::smatch m;
      if (std::regex_search(line, m, row_re)) documented.insert(m[1].str());
    }
    EXPECT_EQ(parser, documented)
        << "parser accepts [" << join(parser) << "] but " << t.flag_table
        << " documents [" << join(documented) << "]";
  }
}

TEST(Docs, ObservabilityDocStatesTheCurrentSchemaVersion) {
  const std::string doc = read_file("docs/OBSERVABILITY.md");
  EXPECT_NE(doc.find("merlin.stats"), std::string::npos);
  const std::string version_line =
      "\"schema_version\": " + std::to_string(kStatsSchemaVersion);
  EXPECT_NE(doc.find(version_line), std::string::npos)
      << "docs/OBSERVABILITY.md must show the current schema_version ("
      << kStatsSchemaVersion << ") in its worked example";

  // Every version any doc or source comment states is the current one:
  // each `"schema_version": N` literal and each `merlin.stats vN` that is
  // not the start of a `vA → vB` migration note.
  static const std::regex version_re(
      "\"schema_version\":\\s*(\\d+)"
      "|merlin\\.stats`?\\s+\\**v(\\d+)\\**(\\s*(→|->)\\s*v\\d+)?");
  std::vector<std::string> files = files_in("docs", ".md");
  for (const char* dir : {"src", "tools"})
    for (std::string& rel : sources_under(dir)) files.push_back(std::move(rel));
  for (const std::string& rel : files) {
    const std::vector<std::string> lines = read_lines(rel);
    for (std::size_t i = 0; i < lines.size(); ++i)
      for (auto m = std::sregex_iterator(lines[i].begin(), lines[i].end(),
                                         version_re);
           m != std::sregex_iterator(); ++m) {
        if ((*m)[3].matched) continue;
        const std::string v = (*m)[1].matched ? (*m)[1].str() : (*m)[2].str();
        EXPECT_EQ(v, std::to_string(kStatsSchemaVersion))
            << "stale stats schema version\n  at " << at(rel, i, lines[i]);
      }
  }
}

}  // namespace
}  // namespace merlin
