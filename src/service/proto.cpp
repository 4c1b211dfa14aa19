#include "service/proto.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace wavesim::service {

namespace {

[[noreturn]] void bad_field(const std::string& key, const std::string& what) {
  throw std::runtime_error("spec field '" + key + "': " + what);
}

const sim::JsonValue* get(const sim::JsonValue& obj, const std::string& key) {
  return obj.find(key);
}

double get_double(const sim::JsonValue& obj, const std::string& key,
                  double fallback) {
  const sim::JsonValue* v = get(obj, key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) bad_field(key, "expected a number");
  return v->as_number();
}

bool get_bool(const sim::JsonValue& obj, const std::string& key,
              bool fallback) {
  const sim::JsonValue* v = get(obj, key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) bad_field(key, "expected a bool");
  return v->as_bool();
}

std::string get_string(const sim::JsonValue& obj, const std::string& key,
                       const std::string& fallback) {
  const sim::JsonValue* v = get(obj, key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) bad_field(key, "expected a string");
  return v->as_string();
}

/// 2^53: a double represents every integer up to this magnitude exactly.
constexpr std::int64_t kMaxExact = std::int64_t{1} << 53;

/// A whole number in [min, max] (and exactly representable as a double).
std::int64_t whole_in(const sim::JsonValue& v, const std::string& key,
                      std::int64_t min, std::int64_t max = kMaxExact) {
  const double x = v.is_number() ? v.as_number() : 0.0;
  if (!v.is_number() || x != std::trunc(x) || x < static_cast<double>(min) ||
      x > static_cast<double>(max)) {
    bad_field(key, "expected an integer in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]");
  }
  return static_cast<std::int64_t>(x);
}

/// An integer field of type T: a whole number within T's range (capped
/// at +-2^53), never truncated or wrapped. Unsigned types (Cycle, the
/// seed) therefore reject negative values.
template <typename T>
T get_whole(const sim::JsonValue& obj, const std::string& key, T fallback) {
  const sim::JsonValue* v = get(obj, key);
  if (v == nullptr) return fallback;
  using Limits = std::numeric_limits<T>;
  const auto min = std::max<std::int64_t>(Limits::min(), -kMaxExact);
  const auto max = static_cast<std::int64_t>(
      std::min<std::uint64_t>(Limits::max(), kMaxExact));
  return static_cast<T>(whole_in(*v, key, min, max));
}

/// Throws naming the first key of `value` outside `known`.
void check_known_keys(const sim::JsonValue& value,
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

}  // namespace

std::vector<std::int32_t> parse_radices(const std::string& text) {
  std::vector<std::int32_t> radix;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = std::min(text.find('x', pos), text.size());
    const char* first = text.data() + pos;
    const char* last = text.data() + next;
    std::int32_t value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (first == last || ec != std::errc() || ptr != last) {
      throw std::invalid_argument("bad radix '" + std::string(first, last) +
                                  "' in topology '" + text + "'");
    }
    radix.push_back(value);
    if (next == text.size()) return radix;
    pos = next + 1;
  }
}

std::string format_radices(const std::vector<std::int32_t>& radix) {
  std::string out;
  for (std::size_t i = 0; i < radix.size(); ++i) {
    if (i > 0) out += 'x';
    out += std::to_string(radix[i]);
  }
  return out;
}

sim::JsonValue runspec_to_json(const snap::RunSpec& spec) {
  const sim::SimConfig& cfg = spec.config;
  sim::JsonValue doc =
      sim::JsonValue::object()
          .set("topo", format_radices(cfg.topology.radix))
          .set("mesh", !cfg.topology.torus)
          .set("protocol", sim::to_string(cfg.protocol.protocol))
          .set("routing", sim::to_string(cfg.router.routing))
          .set("pattern", spec.pattern)
          .set("vcs", cfg.router.wormhole_vcs)
          .set("k", cfg.router.wave_switches)
          .set("m", cfg.protocol.max_misroutes)
          .set("cache", cfg.protocol.circuit_cache_entries)
          .set("replacement", sim::to_string(cfg.protocol.replacement))
          .set("pcs_only", cfg.protocol.pcs_only)
          .set("virtual", cfg.router.virtual_circuits)
          .set("max_packet", cfg.protocol.max_packet_flits)
          .set("fault_rate", cfg.faults.link_fault_rate)
          .set("load", spec.offered_load)
          .set("length", spec.message_flits)
          .set("warmup", spec.warmup)
          .set("measure", spec.measure)
          .set("drain_cap", spec.drain_cap)
          .set("seed", spec.seed);
  // The storm block is the dynamic-fault subset jobs can request; full
  // wavesim.faults.v1 schedules stay a CLI feature (--faults FILE).
  if (cfg.faults.storm.at > 0) {
    doc.set("storm_at", cfg.faults.storm.at)
        .set("storm_fraction", cfg.faults.storm.fraction)
        .set("storm_repair_after", cfg.faults.storm.repair_after);
  }
  return doc;
}

snap::RunSpec runspec_from_json(const sim::JsonValue& value) {
  check_known_keys(
      value,
      {"topo", "mesh", "protocol", "routing", "pattern", "vcs", "k", "m",
       "cache", "replacement", "pcs_only", "virtual", "max_packet",
       "fault_rate", "load", "length", "warmup", "measure", "drain_cap",
       "seed", "storm_at", "storm_fraction", "storm_repair_after"},
      "spec");

  snap::RunSpec spec;
  sim::SimConfig& cfg = spec.config;
  try {
    cfg.topology.radix = parse_radices(get_string(value, "topo", "8x8"));
  } catch (const std::invalid_argument& e) {
    bad_field("topo", e.what());
  }
  cfg.topology.torus = !get_bool(value, "mesh", false);

  const std::string protocol = get_string(value, "protocol", "clrp");
  if (protocol == "wormhole") {
    cfg.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
  } else if (protocol == "clrp") {
    cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  } else if (protocol == "carp") {
    cfg.protocol.protocol = sim::ProtocolKind::kCarp;
  } else {
    bad_field("protocol", "expected wormhole | clrp | carp");
  }

  const std::string routing = get_string(value, "routing", "dor");
  if (routing == "dor") {
    cfg.router.routing = sim::RoutingKind::kDimensionOrder;
  } else if (routing == "duato") {
    cfg.router.routing = sim::RoutingKind::kDuatoAdaptive;
  } else if (routing == "west-first") {
    cfg.router.routing = sim::RoutingKind::kWestFirst;
  } else if (routing == "negative-first") {
    cfg.router.routing = sim::RoutingKind::kNegativeFirst;
  } else {
    bad_field("routing", "expected dor | duato | west-first | negative-first");
  }

  const std::string replacement = get_string(value, "replacement", "lru");
  if (replacement == "lru") {
    cfg.protocol.replacement = sim::ReplacementPolicy::kLru;
  } else if (replacement == "lfu") {
    cfg.protocol.replacement = sim::ReplacementPolicy::kLfu;
  } else if (replacement == "fifo") {
    cfg.protocol.replacement = sim::ReplacementPolicy::kFifo;
  } else if (replacement == "random") {
    cfg.protocol.replacement = sim::ReplacementPolicy::kRandom;
  } else {
    bad_field("replacement", "expected lru | lfu | fifo | random");
  }

  cfg.router.wormhole_vcs = get_whole<std::int32_t>(value, "vcs", 2);
  const auto k = get_whole<std::int32_t>(value, "k", 2);
  cfg.router.wave_switches = protocol == "wormhole" ? 0 : k;
  cfg.protocol.max_misroutes = get_whole<std::int32_t>(value, "m", 2);
  cfg.protocol.circuit_cache_entries =
      get_whole<std::int32_t>(value, "cache", 8);
  cfg.protocol.pcs_only = get_bool(value, "pcs_only", false);
  cfg.router.virtual_circuits = get_bool(value, "virtual", false);
  cfg.protocol.max_packet_flits =
      get_whole<std::int32_t>(value, "max_packet", 0);
  cfg.faults.link_fault_rate = get_double(value, "fault_rate", 0.0);

  spec.pattern = get_string(value, "pattern", "uniform");
  spec.offered_load = get_double(value, "load", 0.10);
  spec.message_flits = get_whole<std::int32_t>(value, "length", 64);
  spec.warmup = get_whole<Cycle>(value, "warmup", 2000);
  spec.measure = get_whole<Cycle>(value, "measure", 10000);
  // Same default cap formula as wavesim_cli, so a job without an
  // explicit drain_cap is the run the CLI would execute.
  spec.drain_cap = get_whole<Cycle>(value, "drain_cap",
                                    40 * (spec.warmup + spec.measure) +
                                        1'000'000);
  spec.seed = get_whole<std::uint64_t>(value, "seed", 1);

  const auto storm_at = get_whole<Cycle>(value, "storm_at", 0);
  if (storm_at > 0) {
    cfg.faults.storm.at = storm_at;
    cfg.faults.storm.fraction = get_double(value, "storm_fraction", 0.10);
    cfg.faults.storm.repair_after =
        get_whole<Cycle>(value, "storm_repair_after", 0);
  } else if (get(value, "storm_fraction") != nullptr ||
             get(value, "storm_repair_after") != nullptr) {
    bad_field("storm_fraction", "requires storm_at > 0");
  }

  cfg.validate();  // throws std::invalid_argument on a bad combination
  return spec;
}

SweepSpec sweep_spec_from_json(const sim::JsonValue& value) {
  check_known_keys(value, {"base", "measures"}, "sweep spec");
  const sim::JsonValue* base = value.find("base");
  const sim::JsonValue* measures = value.find("measures");
  if (base == nullptr || measures == nullptr || !measures->is_array() ||
      measures->size() == 0) {
    throw std::runtime_error(
        "sweep spec needs 'base' (run spec) and 'measures' (array)");
  }
  SweepSpec sweep;
  sweep.base = runspec_from_json(*base);
  for (std::size_t i = 0; i < measures->size(); ++i) {
    sweep.measures.push_back(
        static_cast<Cycle>(whole_in(measures->at(i), "measures", 1)));
  }
  return sweep;
}

check::SimcheckOptions simcheck_spec_from_json(const sim::JsonValue& value) {
  check_known_keys(value, {"count", "base_seed", "faulty", "max_failures"},
                   "simcheck spec");
  check::SimcheckOptions options;
  options.count = 20;
  if (const sim::JsonValue* v = value.find("count")) {
    options.count = static_cast<std::size_t>(whole_in(*v, "count", 1));
  }
  if (const sim::JsonValue* v = value.find("base_seed")) {
    options.base_seed =
        static_cast<std::uint64_t>(whole_in(*v, "base_seed", 0));
  }
  options.faulty = get_bool(value, "faulty", options.faulty);
  if (const sim::JsonValue* v = value.find("max_failures")) {
    // 0 would stop before recording any failure: a failing batch would
    // then report ok.
    options.max_failures =
        static_cast<std::size_t>(whole_in(*v, "max_failures", 1));
  }
  return options;
}

sim::JsonValue ok_response() {
  return sim::JsonValue::object().set("ok", true);
}

sim::JsonValue error_response(const std::string& message) {
  return sim::JsonValue::object().set("ok", false).set("error", message);
}

sim::JsonValue busy_response(const std::string& message,
                             std::int64_t retry_after_ms) {
  return error_response(message).set("retry_after_ms", retry_after_ms);
}

bool read_line(int fd, std::string& line, int timeout_ms) {
  // Requests are one line; 1 MiB bounds a hostile or broken client.
  constexpr std::size_t kMaxLine = 1u << 20;
  line.clear();
  char ch = 0;
  while (true) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) return false;  // timeout or poll error
    const ssize_t n = ::recv(fd, &ch, 1, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF mid-line or hard error
    }
    if (ch == '\n') return true;
    if (line.size() >= kMaxLine) return false;
    line.push_back(ch);
  }
}

bool write_line(int fd, const std::string& line) {
  std::string buffer = line;
  buffer.push_back('\n');
  std::size_t sent = 0;
  while (sent < buffer.size()) {
    // MSG_NOSIGNAL: a client that hung up yields an error return, not
    // SIGPIPE taking the daemon down.
    const ssize_t n = ::send(fd, buffer.data() + sent, buffer.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace wavesim::service
