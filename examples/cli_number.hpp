// Strict numeric flag parsing shared by the command-line drivers.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace wavesim::cli {

/// Parse all of `text` as a T. Anything else -- trailing junk, a sign on
/// an unsigned count, a value out of T's range, nan or inf -- is a usage
/// error (exit 2), never a silently wrapped or defaulted value.
template <typename T>
T number(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (ec != std::errc{} || ptr != end || ptr == text || !finite) {
    std::fprintf(stderr, "error: %s expects a%s number (got '%s')\n",
                 flag.c_str(),
                 std::is_unsigned_v<T> ? " non-negative whole" : "", text);
    std::exit(2);
  }
  return value;
}

}  // namespace wavesim::cli
