#pragma once
// Strict numeric flag operands, shared by merlin_cli, merlin_d and
// merlin_stat.  The whole operand must be one number of the
// target type: no sign on a count, no leading blanks or trailing junk, no
// overflow, and no non-finite real.  Callers turn a false return into their usage exit,
// so `--threads 4x` or `--queue-depth -1` fails loudly instead of parsing
// as 4 or wrapping to 2^64 - 1.

#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>
#include <type_traits>

namespace merlin::flags {

/// Parses an unsigned count into `out` (left untouched on failure).
template <typename T>
[[nodiscard]] bool parse_count(const char* s, T& out) {
  static_assert(std::is_unsigned_v<T>);
  const char* end = s + std::strlen(s);
  T v{};
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || ptr != end || ptr == s) return false;
  out = v;
  return true;
}

/// Parses a finite real (a leading '-' is allowed) into `out`.
[[nodiscard]] inline bool parse_real(const char* s, double& out) {
  const char* end = s + std::strlen(s);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || ptr != end || ptr == s || !std::isfinite(v))
    return false;
  out = v;
  return true;
}

}  // namespace merlin::flags
