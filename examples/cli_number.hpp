// Strict numeric flag parsing shared by the command-line drivers.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace wavesim::cli {

/// Usage error for a flag whose value is not a number of the right kind.
[[noreturn]] inline void bad_number(const std::string& flag, const char* text,
                                    bool non_negative_whole) {
  std::fprintf(stderr, "error: %s expects a%s number (got '%s')\n",
               flag.c_str(), non_negative_whole ? " non-negative whole" : "",
               text);
  std::exit(2);
}

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
    bad_number(flag, text, std::is_unsigned_v<T>);
  }
  return value;
}

/// number<std::uint64_t>, except that after a 0x or 0X prefix the rest is
/// read whole as hex (seeds are printed in hex).
inline std::uint64_t seed(const std::string& flag, const char* text) {
  if (text[0] != '0' || (text[1] != 'x' && text[1] != 'X')) {
    return number<std::uint64_t>(flag, text);
  }
  std::uint64_t value = 0;
  const char* digits = text + 2;
  const char* end = digits + std::strlen(digits);
  const auto [ptr, ec] = std::from_chars(digits, end, value, 16);
  if (ec != std::errc{} || ptr != end || ptr == digits) {
    bad_number(flag, text, true);
  }
  return value;
}

}  // namespace wavesim::cli
