// Minimal dependency-free JSON document: build, serialize, parse.
//
// Used by the sweep harness and the bench drivers to export metrics with a
// stable schema. Objects preserve insertion order so that serialization is
// byte-stable across runs (a requirement for the determinism tests and for
// diffing committed baselines).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wavesim::sim {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() noexcept = default;
  JsonValue(std::nullptr_t) noexcept {}
  JsonValue(bool b) noexcept : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double v) noexcept : kind_(Kind::kNumber), number_(v) {}
  JsonValue(int v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(unsigned v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::int64_t v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::uint64_t v) noexcept : JsonValue(static_cast<double>(v)) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonValue object() { JsonValue v; v.kind_ = Kind::kObject; return v; }
  static JsonValue array() { JsonValue v; v.kind_ = Kind::kArray; return v; }

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const;
  double as_number() const;
  /// A whole number in [-2^53, 2^53], else throws std::runtime_error (no
  /// truncation, no out-of-range cast). Decoders read through whole_as
  /// with their field's own type instead.
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Object: insert or overwrite `key` (insertion order kept). Returns
  /// *this so schema construction chains.
  JsonValue& set(const std::string& key, JsonValue value);
  /// Object: member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const noexcept;
  /// Object: member access; throws std::out_of_range when absent.
  const JsonValue& at(const std::string& key) const;

  /// Array: append.
  JsonValue& push_back(JsonValue value);
  /// Array: element access; throws std::out_of_range.
  const JsonValue& at(std::size_t index) const;

  /// Array / object element count (0 for scalars).
  std::size_t size() const noexcept;

  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  const std::vector<JsonValue>& elements() const { return elements_; }

  /// Serialize. indent = 0 -> compact single line; indent > 0 -> pretty
  /// with that many spaces per level. Output is deterministic.
  std::string dump(int indent = 0) const;

  /// Parse a complete JSON text; throws std::runtime_error with an offset
  /// on malformed input.
  static JsonValue parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> elements_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Write `value.dump(2)` plus a trailing newline to `path`.
/// Returns false (and reports to stderr) when the file cannot be written.
bool write_json_file(const JsonValue& value, const std::string& path);

/// Read and parse `path`; throws std::runtime_error on I/O or parse errors.
JsonValue read_json_file(const std::string& path);

/// Throws std::runtime_error unless `value` is an object whose keys are
/// all in `known`, naming the first stranger ("unknown <what> field 'k'").
void check_known_keys(const JsonValue& value,
                      std::initializer_list<const char*> known,
                      const char* what);

/// 2^53: a double represents every integer up to this magnitude exactly.
inline constexpr std::int64_t kMaxExactInt = std::int64_t{1} << 53;

/// `v` as a whole number in [min, max]; nullopt when it is not a number,
/// has a fractional part or lies outside. Every decoder reads its JSON
/// integers through this one rule, so none truncates or wraps a value.
std::optional<std::int64_t> whole_in(const JsonValue& v, std::int64_t min,
                                     std::int64_t max = kMaxExactInt);

/// whole_in, or throws std::runtime_error "<what> must be a whole number
/// in [min, max]", where `what` names the field.
std::int64_t whole_or_throw(const JsonValue& v, const std::string& what,
                            std::int64_t min,
                            std::int64_t max = kMaxExactInt);

/// T's range clipped to the integers a double holds exactly, [-2^53, 2^53].
template <typename T>
constexpr std::pair<std::int64_t, std::int64_t> whole_range() {
  using Limits = std::numeric_limits<T>;
  return {std::max<std::int64_t>(Limits::min(), -kMaxExactInt),
          static_cast<std::int64_t>(
              std::min<std::uint64_t>(Limits::max(), kMaxExactInt))};
}

/// `v` as a T: whole_or_throw over whole_range<T>().
template <typename T>
T whole_as(const JsonValue& v, const std::string& what) {
  const auto [min, max] = whole_range<T>();
  return static_cast<T>(whole_or_throw(v, what, min, max));
}

}  // namespace wavesim::sim
