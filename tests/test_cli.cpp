// End-to-end checks of the merlin_cli binary: the documented exit-code
// taxonomy, one-line stderr diagnostics, and the robustness flags.  The
// binary path comes from the MERLIN_CLI_PATH compile definition (set by
// tests/CMakeLists.txt to the actual build product).

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "obs/sink.h"

namespace merlin {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Runs the CLI with `args`, capturing combined output and the exit code.
CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string(MERLIN_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  CliRun r;
  if (!pipe) return r;
  std::array<char, 4096> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::size_t line_count(const std::string& s) {
  std::size_t n = 0;
  for (char c : s)
    if (c == '\n') ++n;
  return n;
}

TEST(Cli, SuccessfulRunExitsZero) {
  const CliRun r = run_cli("--random 5 42 --flow 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("delay="), std::string::npos);
}

TEST(Cli, UsageErrorsExitTwo) {
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_EQ(run_cli("--definitely-not-a-flag").exit_code, 2);
  EXPECT_EQ(run_cli("--flow").exit_code, 2);    // missing argument
  EXPECT_EQ(run_cli("--inject").exit_code, 2);  // missing argument
  // Malformed numeric operands: trailing junk, no digits, a sign on a
  // count, overflow, a non-finite real.
  for (const char* bad :
       {"--circuit 10 1 --threads 4x", "--circuit 10 1 --threads abc",
        "--circuit 10 1 --threads -1", "--circuit 10 1 --threads +4",
        "--circuit 10 1 --cache-mb 99999999999999999999",
        "--circuit 10x 1", "--random 5 42 --flow 1.5",
        "--random 5 42 --area-limit 3e", "--random 5 42 --req-target nan",
        "--circuit 10 1 --net-deadline-ms inf"})
    EXPECT_EQ(run_cli(bad).exit_code, 2) << bad;
}

TEST(Cli, MissingInputFileExitsThreeWithOneLine) {
  const CliRun r = run_cli("/nonexistent/input.net");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_EQ(line_count(r.output), 1u) << r.output;
  EXPECT_NE(r.output.find("merlin_cli:"), std::string::npos);
}

TEST(Cli, BadConfigExitsFourWithOneLine) {
  const CliRun bad_policy = run_cli("--circuit 10 1 --fail-policy never");
  EXPECT_EQ(bad_policy.exit_code, 4);
  EXPECT_EQ(line_count(bad_policy.output), 1u) << bad_policy.output;

  const CliRun bad_spec = run_cli("--circuit 10 1 --inject explode:0.5:1");
  EXPECT_EQ(bad_spec.exit_code, 4);
  EXPECT_NE(bad_spec.output.find("merlin_cli:"), std::string::npos);
}

TEST(Cli, BudgetAbortExitsFive) {
  // A starvation-level budget under --fail-policy abort: some net trips
  // BudgetExceeded and the batch rethrows it.
  const CliRun r = run_cli(
      "--circuit 25 3 --flow 1 --net-step-budget 5 --fail-policy abort");
  EXPECT_EQ(r.exit_code, 5) << r.output;
  EXPECT_EQ(line_count(r.output), 1u) << r.output;
  EXPECT_NE(r.output.find("budget"), std::string::npos);
}

TEST(Cli, DegradePolicySurvivesTheSameBudgetWithExitZero) {
  const CliRun r =
      run_cli("--circuit 25 3 --flow 1 --net-step-budget 5");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("degraded="), std::string::npos);
}

TEST(Cli, InjectionFlagRunsChaosEndToEnd) {
  const CliRun r =
      run_cli("--circuit 25 3 --flow 1 --inject throw:0.5:9 --threads 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("status["), std::string::npos);
}

TEST(Cli, UnwritableStatsJsonPathExitsThreeWithOneLine) {
  const CliRun r =
      run_cli("--random 5 42 --flow 1 --stats-json /nonexistent/dir/s.json");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_EQ(line_count(r.output), 1u) << r.output;
  EXPECT_NE(r.output.find("merlin_cli:"), std::string::npos);
}

TEST(Cli, UnwritableTraceOutPathExitsThreeWithOneLine) {
  for (const char* mode :
       {"--random 5 42 --flow 1", "--circuit 10 1 --flow 1"}) {
    const CliRun r = run_cli(std::string(mode) +
                             " --trace-out /nonexistent/dir/t.json");
    EXPECT_EQ(r.exit_code, 3) << r.output;
    EXPECT_EQ(line_count(r.output), 1u) << r.output;
    EXPECT_NE(r.output.find("merlin_cli:"), std::string::npos);
  }
}

TEST(Cli, TraceOutWritesChromeTraceEventJson) {
  const std::string path =
      ::testing::TempDir() + "cli_trace_out.json";
  const CliRun r = run_cli("--circuit 12 5 --flow 3 --threads 2 --trace-out " +
                           path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("batch.net"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, ProgressPrintsASingleTickerLineOnStderr) {
  const CliRun quiet = run_cli("--circuit 12 5 --flow 1");
  const CliRun loud = run_cli("--circuit 12 5 --flow 1 --progress");
  EXPECT_EQ(loud.exit_code, 0) << loud.output;
  // The ticker rewrites one stderr line with \r; off by default.
  EXPECT_EQ(quiet.output.find("nets/s"), std::string::npos);
  EXPECT_NE(loud.output.find("nets/s"), std::string::npos);
  EXPECT_NE(loud.output.find('\r'), std::string::npos);
}

}  // namespace
}  // namespace merlin
