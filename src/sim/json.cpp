#include "sim/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace wavesim::sim {

namespace {

[[noreturn]] void fail(const char* what) { throw std::runtime_error(what); }

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; null is the convention
    out += "null";
    return;
  }
  // Integers (the common case: counts, seeds, cycles) print exactly;
  // everything else uses shortest-round-trip-ish %.17g.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) fail("JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) fail("JsonValue: not a number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  return whole_or_throw(*this, "JsonValue", -kMaxExactInt);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) fail("JsonValue: not a string");
  return string_;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  if (kind_ != Kind::kObject) fail("JsonValue: set() on non-object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw std::out_of_range("JsonValue: no member '" + key + "'");
  return *v;
}

JsonValue& JsonValue::push_back(JsonValue value) {
  if (kind_ != Kind::kArray) fail("JsonValue: push_back() on non-array");
  elements_.push_back(std::move(value));
  return *this;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  if (kind_ != Kind::kArray) fail("JsonValue: at(index) on non-array");
  return elements_.at(index);
}

std::size_t JsonValue::size() const noexcept {
  if (kind_ == Kind::kArray) return elements_.size();
  if (kind_ == Kind::kObject) return members_.size();
  return 0;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: append_number(out, number_); break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kArray: {
      if (elements_.empty()) { out += "[]"; break; }
      out += '[';
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        elements_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) { out += "{}"; break; }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        append_escaped(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ----------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) error("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void error(const char* what) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) error("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) error("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    // The parser recurses once per nesting level; cap the depth so a
    // hostile input ("[[[[..." ) fails cleanly instead of overflowing the
    // stack.
    if (depth_ >= kMaxDepth) error("nesting too deep");
    ++depth_;
    JsonValue v = parse_value_inner();
    --depth_;
    return v;
  }

  JsonValue parse_value_inner() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't': if (consume_literal("true")) return JsonValue(true); error("bad literal");
      case 'f': if (consume_literal("false")) return JsonValue(false); error("bad literal");
      case 'n': if (consume_literal("null")) return JsonValue(nullptr); error("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    if (peek() == '}') { ++pos_; return obj; }
    for (;;) {
      if (peek() != '"') error("expected string key");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) error("duplicate object key");
      expect(':');
      obj.set(key, parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') error("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    if (peek() == ']') { ++pos_; return arr; }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') error("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else error("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // the harness never emits them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: error("bad escape");
      }
    }
    error("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ > before;
    };
    if (!digits()) error("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) error("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) error("bad number");
    }
    try {
      return JsonValue(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::out_of_range&) {  // e.g. "1e999999"
      error("number out of range");
    }
  }

  static constexpr int kMaxDepth = 256;
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

void check_known_keys(const JsonValue& value,
                      std::initializer_list<const char*> known,
                      const char* what) {
  if (!value.is_object()) {
    throw std::runtime_error(std::string(what) + " must be an object");
  }
  for (const auto& [key, member] : value.members()) {
    (void)member;
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok) {
      throw std::runtime_error(std::string("unknown ") + what + " field '" +
                               key + "'");
    }
  }
}

std::optional<std::int64_t> whole_in(const JsonValue& v, std::int64_t min,
                                     std::int64_t max) {
  const double x = v.is_number() ? v.as_number() : 0.0;
  if (!v.is_number() || x != std::trunc(x) || x < static_cast<double>(min) ||
      x > static_cast<double>(max)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(x);
}

std::int64_t whole_or_throw(const JsonValue& v, const std::string& what,
                            std::int64_t min, std::int64_t max) {
  const std::optional<std::int64_t> x = whole_in(v, min, max);
  if (!x) {
    throw std::runtime_error(what + " must be a whole number in [" +
                             std::to_string(min) + ", " + std::to_string(max) +
                             "]");
  }
  return *x;
}

JsonValue read_json_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot read " + path);
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool truncated = std::ferror(f) != 0;
  std::fclose(f);
  if (truncated) throw std::runtime_error("read error on " + path);
  return JsonValue::parse(text);
}

bool write_json_file(const JsonValue& value, const std::string& path) {
  // Write-to-temp then rename, so readers polling `path` (the service's
  // result files, checkpoint metadata) never observe a torn document.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", tmp.c_str());
    return false;
  }
  const std::string text = value.dump(2);
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
            std::fputc('\n', f) != EOF;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "error: short write to %s\n", tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "error: cannot rename %s to %s\n", tmp.c_str(),
                 path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace wavesim::sim
