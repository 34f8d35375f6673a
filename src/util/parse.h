// Strict whole-string number parsing, shared by every text-record reader
// (scenario replay files, session checkpoints, environment tier knobs).
//
// The repo-wide rule since PR 2 is that a malformed number is a hard error,
// never a silently-consumed prefix — util::Flags enforces it for CLI flags
// with exit(2); these helpers are the throwing/optional building blocks for
// parsers that must not exit. nullopt means "not a valid number of this
// type" (empty input, trailing junk, out of range, or a sign that the type
// forbids); the caller owns the diagnostic.
//
// The first character must be a digit, or '-' followed by a digit where the
// type allows a sign. The strto* functions underneath also skip leading
// whitespace and accept '+', so without this gate " 7" and "+3" would parse,
// and strtoull would wrap " -1" to 2^64 − 1.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace nowsched::util {

namespace detail {

/// True when `s` starts with a digit, or (only when `allow_minus`) with a
/// '-' immediately followed by a digit.
[[nodiscard]] inline bool plain_number_start(const std::string& s, bool allow_minus) {
  const std::size_t i = allow_minus && !s.empty() && s[0] == '-' ? 1 : 0;
  return i < s.size() && s[i] >= '0' && s[i] <= '9';
}

}  // namespace detail

[[nodiscard]] inline std::optional<std::int64_t> parse_int64(const std::string& s) {
  if (!detail::plain_number_start(s, true)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

[[nodiscard]] inline std::optional<std::uint64_t> parse_uint64(const std::string& s) {
  // strtoull happily wraps negative inputs; no sign is allowed at all.
  if (!detail::plain_number_start(s, false)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

[[nodiscard]] inline std::optional<double> parse_double(const std::string& s) {
  if (!detail::plain_number_start(s, true)) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  // "nan" and "inf" parse whole-string but are poison for every consumer
  // (NaN slides through range checks of the `x < lo || x > hi` shape and
  // can hang arrival-sampling loops); a text record never needs them.
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace nowsched::util
