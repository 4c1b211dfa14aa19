// Strict text-to-number parsing for command-line values.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace wavesim::sim {

/// The error for a flag whose value is not a number of the right kind.
inline std::invalid_argument bad_number(const std::string& flag,
                                        const char* text,
                                        bool non_negative_whole) {
  return std::invalid_argument(
      flag + " expects a" + (non_negative_whole ? " non-negative whole" : "") +
      " number (got '" + text + "')");
}

/// Parse all of `text` as a T. Anything else -- trailing junk, a sign on
/// an unsigned count, a value out of T's range, nan or inf -- throws
/// bad_number(), never yields a silently wrapped or defaulted value.
template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (ec != std::errc{} || ptr != end || ptr == text || !finite) {
    throw bad_number(flag, text, std::is_unsigned_v<T>);
  }
  return value;
}

}  // namespace wavesim::sim
