// Strict numeric flag parsing shared by the command-line drivers.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

#include "sim/number.hpp"

namespace wavesim::cli {

/// Usage error: print the message and exit 2.
[[noreturn]] inline void usage_error(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  std::exit(2);
}

/// sim::parse_number, with a bad value a usage error (exit 2).
template <typename T>
T number(const std::string& flag, const char* text) {
  try {
    return sim::parse_number<T>(flag, text);
  } catch (const std::invalid_argument& e) {
    usage_error(e);
  }
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
    usage_error(sim::bad_number(flag, text, true));
  }
  return value;
}

}  // namespace wavesim::cli
