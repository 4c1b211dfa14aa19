#include "check/scenario.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "sim/rng.hpp"

namespace wavesim::check {

namespace {

constexpr std::int32_t kMaxDims = 3;
constexpr std::int32_t kMaxRadix = 6;
constexpr std::int32_t kMaxNodes = 64;
constexpr std::int32_t kMaxVcs = 4;
constexpr std::int32_t kMaxSwitches = 3;
constexpr std::int32_t kMaxMisroutes = 3;
constexpr std::int32_t kMaxCacheEntries = 8;
constexpr std::int32_t kMaxFlits = 96;
constexpr double kMinLoad = 0.002;
constexpr double kMaxLoad = 0.25;
constexpr std::uint64_t kMinInject = 128;
constexpr std::uint64_t kMaxInject = 2048;
constexpr std::uint64_t kMinDrainCap = 50'000;
constexpr std::uint64_t kMaxDrainCap = 1'000'000;
constexpr std::int32_t kMaxEngineShards = 8;
constexpr double kMaxStormFraction = 0.5;
constexpr std::uint64_t kMaxStormRepair = 20'000;

std::int32_t num_nodes_of(const std::vector<std::int32_t>& radix) {
  std::int32_t n = 1;
  for (const std::int32_t r : radix) n *= r;
  return n;
}

bool power_of_two(std::int32_t n) { return n > 0 && (n & (n - 1)) == 0; }

bool all_equal(const std::vector<std::int32_t>& radix) {
  return std::all_of(radix.begin(), radix.end(),
                     [&](std::int32_t r) { return r == radix.front(); });
}

template <typename T>
T clamped(T v, T lo, T hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

sim::SimConfig Scenario::to_config() const {
  sim::SimConfig cfg;
  cfg.topology.radix = radix;
  cfg.topology.torus = torus;
  cfg.protocol.protocol = protocol;
  cfg.protocol.clrp_variant = variant;
  cfg.protocol.pcs_only = pcs_only;
  cfg.router.routing = routing;
  cfg.router.wormhole_vcs = wormhole_vcs;
  cfg.router.wave_switches = wave_switches;
  cfg.protocol.max_misroutes = max_misroutes;
  cfg.protocol.circuit_cache_entries = cache_entries;
  cfg.protocol.replacement = replacement;
  cfg.protocol.max_packet_flits = max_packet_flits;
  cfg.faults.link_fault_rate = link_fault_rate;
  if (storm_fraction > 0.0) {
    cfg.faults.storm.at = storm_at;
    cfg.faults.storm.fraction = storm_fraction;
    cfg.faults.storm.repair_after = storm_repair;
  }
  cfg.seed = seed;
  return cfg;
}

std::string Scenario::label() const {
  std::ostringstream os;
  for (std::size_t d = 0; d < radix.size(); ++d) {
    os << (d == 0 ? "" : "x") << radix[d];
  }
  os << (torus ? " torus " : " mesh ") << sim::to_string(protocol);
  if (protocol == sim::ProtocolKind::kClrp) {
    os << "/" << sim::to_string(variant);
    if (pcs_only) os << "/pcs-only";
  }
  os << " " << sim::to_string(routing) << " vcs=" << wormhole_vcs;
  if (protocol != sim::ProtocolKind::kWormholeOnly) {
    os << " k=" << wave_switches << " m=" << max_misroutes << " cache="
       << cache_entries << "/" << sim::to_string(replacement);
  }
  if (max_packet_flits > 0) os << " seg=" << max_packet_flits;
  if (link_fault_rate > 0.0) os << " faults=" << link_fault_rate;
  if (storm_fraction > 0.0) {
    os << " storm=" << storm_fraction << "@" << storm_at;
    if (storm_repair > 0) {
      os << "/r" << storm_repair;
    } else {
      os << "/perm";
    }
  }
  os << " " << pattern << "/" << size_dist << "[" << min_flits << ","
     << max_flits << "] load=" << load << " inject=" << inject_cycles;
  if (engine_shards >= 1) os << " engine=par:" << engine_shards;
  return os.str();
}

void Scenario::repair() {
  // Topology: 1..kMaxDims dimensions, radix 2..kMaxRadix each, at most
  // kMaxNodes nodes so one scenario stays cheap.
  if (radix.empty()) radix = {4, 4};
  if (static_cast<std::int32_t>(radix.size()) > kMaxDims) {
    radix.resize(kMaxDims);
  }
  for (auto& r : radix) r = clamped(r, 2, kMaxRadix);
  while (num_nodes_of(radix) > kMaxNodes) {
    auto largest = std::max_element(radix.begin(), radix.end());
    *largest = std::max(2, *largest / 2);
    if (*largest == 2 && num_nodes_of(radix) > kMaxNodes) radix.pop_back();
  }

  // Routing/topology consistency (see SimConfig::validate).
  if (routing == sim::RoutingKind::kWestFirst && radix.size() != 2) {
    routing = sim::RoutingKind::kNegativeFirst;
  }
  if (routing == sim::RoutingKind::kWestFirst ||
      routing == sim::RoutingKind::kNegativeFirst) {
    torus = false;
  }
  wormhole_vcs = clamped(wormhole_vcs, 1, kMaxVcs);
  if (torus && routing == sim::RoutingKind::kDimensionOrder) {
    wormhole_vcs = std::max(wormhole_vcs, 2);
  }
  if (routing == sim::RoutingKind::kDuatoAdaptive) {
    wormhole_vcs = std::max(wormhole_vcs, torus ? 3 : 2);
  }

  // Protocol knobs.
  if (protocol == sim::ProtocolKind::kWormholeOnly) {
    wave_switches = 0;
    pcs_only = false;
    link_fault_rate = 0.0;  // faults only hit circuit channels
  } else {
    wave_switches = clamped(wave_switches, 1, kMaxSwitches);
  }
  if (protocol != sim::ProtocolKind::kClrp) pcs_only = false;
  // With pcs_only nothing ever falls back to wormhole, so a fault that
  // disconnects a pair would spin on retries until the drain cap.
  if (pcs_only) link_fault_rate = 0.0;
  max_misroutes = clamped(max_misroutes, 0, kMaxMisroutes);
  cache_entries = clamped(cache_entries, 1, kMaxCacheEntries);
  if (max_packet_flits != 0) {
    max_packet_flits = clamped(max_packet_flits, 8, 64);
  }
  link_fault_rate = clamped(link_fault_rate, 0.0, 0.5);

  // Workload: pattern constraints come from workload/traffic.cpp.
  const std::int32_t nodes = num_nodes_of(radix);
  if (pattern == "transpose" && !all_equal(radix)) pattern = "uniform";
  if ((pattern == "bit-reversal" || pattern == "bit-complement") &&
      !power_of_two(nodes)) {
    pattern = "uniform";
  }
  if (size_dist != "uniform" && size_dist != "bimodal") size_dist = "fixed";
  min_flits = clamped(min_flits, 1, kMaxFlits);
  max_flits = clamped(max_flits, min_flits, kMaxFlits);
  if (size_dist == "fixed") max_flits = min_flits;
  load = clamped(load, kMinLoad, kMaxLoad);
  inject_cycles = clamped(inject_cycles, kMinInject, kMaxInject);
  drain_cap = clamped(drain_cap, kMinDrainCap, kMaxDrainCap);
  engine_shards = clamped(engine_shards, 0, kMaxEngineShards);

  // Dynamic fault storm: needs the wormhole fallback plus circuit planes
  // to fail, so wormhole-only and pcs_only configurations cannot carry one
  // (see SimConfig::validate). An active storm must land inside the
  // injection window (after it, traffic may drain before the storm ever
  // fires). Canonical inactive form is all-zero so shrinking towards zero
  // converges and repair stays idempotent.
  if (protocol == sim::ProtocolKind::kWormholeOnly || pcs_only) {
    storm_fraction = 0.0;
  }
  storm_fraction = clamped(storm_fraction, 0.0, kMaxStormFraction);
  if (storm_fraction > 0.0) {
    storm_at = clamped<std::uint64_t>(storm_at, 1, inject_cycles);
    storm_repair = clamped<std::uint64_t>(storm_repair, 0, kMaxStormRepair);
  } else {
    storm_at = 0;
    storm_repair = 0;
  }
}

Scenario Scenario::generate(std::uint64_t seed) {
  // Decouple the draw stream from the execution streams (which fork from
  // the same seed inside run_scenario) by salting the generator stream.
  sim::Rng rng(sim::hash_mix(seed ^ 0x5ca1ab1e0ddba11ULL));
  Scenario s;
  s.seed = seed;

  const std::int32_t dims =
      rng.chance(0.2) ? 1 : (rng.chance(0.75) ? 2 : 3);
  s.radix.clear();
  for (std::int32_t d = 0; d < dims; ++d) {
    s.radix.push_back(static_cast<std::int32_t>(rng.uniform_int(2, kMaxRadix)));
  }
  s.torus = rng.chance(0.7);

  const double protocol_draw = rng.uniform01();
  s.protocol = protocol_draw < 0.2   ? sim::ProtocolKind::kWormholeOnly
               : protocol_draw < 0.8 ? sim::ProtocolKind::kClrp
                                     : sim::ProtocolKind::kCarp;
  s.variant = static_cast<sim::ClrpVariant>(rng.uniform_int(0, 2));
  s.pcs_only = rng.chance(0.15);

  const double routing_draw = rng.uniform01();
  s.routing = routing_draw < 0.55   ? sim::RoutingKind::kDimensionOrder
              : routing_draw < 0.8  ? sim::RoutingKind::kDuatoAdaptive
              : routing_draw < 0.9  ? sim::RoutingKind::kWestFirst
                                    : sim::RoutingKind::kNegativeFirst;
  s.wormhole_vcs = static_cast<std::int32_t>(rng.uniform_int(1, kMaxVcs));
  s.wave_switches = static_cast<std::int32_t>(rng.uniform_int(1, kMaxSwitches));
  s.max_misroutes =
      static_cast<std::int32_t>(rng.uniform_int(0, kMaxMisroutes));
  s.cache_entries =
      static_cast<std::int32_t>(rng.uniform_int(1, kMaxCacheEntries));
  s.replacement = static_cast<sim::ReplacementPolicy>(rng.uniform_int(0, 3));
  s.max_packet_flits =
      rng.chance(0.3) ? static_cast<std::int32_t>(rng.uniform_int(8, 64)) : 0;
  s.link_fault_rate = rng.chance(0.3) ? 0.02 + 0.38 * rng.uniform01() : 0.0;

  static const char* const kPatterns[] = {
      "uniform", "hotspot",    "transpose",      "bit-reversal",
      "tornado", "neighbor",   "bit-complement", "working-set"};
  s.pattern = kPatterns[rng.next_below(std::size(kPatterns))];
  const double size_draw = rng.uniform01();
  s.size_dist =
      size_draw < 0.5 ? "fixed" : (size_draw < 0.8 ? "uniform" : "bimodal");
  s.min_flits = static_cast<std::int32_t>(rng.uniform_int(1, 32));
  s.max_flits =
      static_cast<std::int32_t>(rng.uniform_int(s.min_flits, kMaxFlits));
  s.load = kMinLoad + (kMaxLoad - kMinLoad) * rng.uniform01();
  s.inject_cycles = static_cast<std::uint64_t>(
      rng.uniform_int(static_cast<std::int64_t>(kMinInject),
                      static_cast<std::int64_t>(kMaxInject)));
  s.drain_cap = 120'000;
  // Half the scenarios run under the parallel engine (shard count drawn
  // too), turning every such property run into a seq/par equivalence test.
  s.engine_shards =
      rng.chance(0.5)
          ? static_cast<std::int32_t>(rng.uniform_int(1, kMaxEngineShards))
          : 0;
  // A third of the scenarios get a mid-run failure storm; of those, a third
  // never repair — permanent partitions are what the DV-vs-BFS reachability
  // oracle (and the stale-route mutation smoke) bite on hardest.
  if (rng.chance(1.0 / 3.0)) {
    s.storm_fraction = 0.10 + 0.30 * rng.uniform01();
    s.storm_at = static_cast<std::uint64_t>(
        rng.uniform_int(static_cast<std::int64_t>(kMinInject) / 2,
                        static_cast<std::int64_t>(kMaxInject)));
    s.storm_repair =
        rng.chance(1.0 / 3.0)
            ? 0
            : static_cast<std::uint64_t>(rng.uniform_int(500, 8'000));
  }

  s.repair();
  return s;
}

void Scenario::ensure_storm() {
  if (storm_fraction > 0.0) return;
  if (protocol == sim::ProtocolKind::kWormholeOnly) {
    protocol = sim::ProtocolKind::kClrp;
  }
  pcs_only = false;
  // Salt differs from generate()'s so the storm draws are independent of
  // the scenario draws even though both start from the same seed.
  sim::Rng rng(sim::hash_mix(seed ^ 0x57a2b1a57ed11c5ULL));
  storm_fraction = 0.10 + 0.30 * rng.uniform01();
  storm_at = static_cast<std::uint64_t>(
      rng.uniform_int(static_cast<std::int64_t>(kMinInject) / 2,
                      static_cast<std::int64_t>(kMaxInject)));
  storm_repair =
      rng.chance(1.0 / 3.0)
          ? 0
          : static_cast<std::uint64_t>(rng.uniform_int(500, 8'000));
  repair();
}

std::string to_hex_u64(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

bool parse_hex_u64(const std::string& text, std::uint64_t& out) {
  if (text.size() < 3 || text.size() > 18 || text[0] != '0' ||
      (text[1] != 'x' && text[1] != 'X')) {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 2; i < text.size(); ++i) {
    const char c = text[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  out = v;
  return true;
}

sim::JsonValue Scenario::to_json() const {
  sim::JsonValue radix_json = sim::JsonValue::array();
  for (const std::int32_t r : radix) radix_json.push_back(r);
  // The seed is a full 64-bit value; JSON numbers are doubles here, so it
  // travels as a hex string to round-trip exactly.
  return sim::JsonValue::object()
      .set("seed", to_hex_u64(seed))
      .set("radix", std::move(radix_json))
      .set("torus", torus)
      .set("protocol", sim::to_string(protocol))
      .set("variant", sim::to_string(variant))
      .set("pcs_only", pcs_only)
      .set("routing", sim::to_string(routing))
      .set("wormhole_vcs", wormhole_vcs)
      .set("wave_switches", wave_switches)
      .set("max_misroutes", max_misroutes)
      .set("cache_entries", cache_entries)
      .set("replacement", sim::to_string(replacement))
      .set("max_packet_flits", max_packet_flits)
      .set("link_fault_rate", link_fault_rate)
      .set("storm_fraction", storm_fraction)
      .set("storm_at", storm_at)
      .set("storm_repair", storm_repair)
      .set("pattern", pattern)
      .set("size_dist", size_dist)
      .set("min_flits", min_flits)
      .set("max_flits", max_flits)
      .set("load", load)
      .set("inject_cycles", inject_cycles)
      .set("drain_cap", drain_cap)
      .set("engine_shards", engine_shards);
}

namespace {

[[noreturn]] void bad_field(const std::string& field, const std::string& why) {
  throw std::runtime_error("wavesim.repro.v1 scenario field '" + field +
                           "': " + why);
}

const sim::JsonValue& member(const sim::JsonValue& obj,
                             const std::string& field) {
  const sim::JsonValue* v = obj.find(field);
  if (v == nullptr) bad_field(field, "missing");
  return *v;
}

double get_number(const sim::JsonValue& obj, const std::string& field) {
  const sim::JsonValue& v = member(obj, field);
  if (!v.is_number()) bad_field(field, "not a number");
  return v.as_number();
}

/// A whole number within T's range (sim::whole_in's rule, as job.v1).
template <typename T>
T whole(const sim::JsonValue& v, const std::string& field) {
  const auto [min, max] = sim::whole_range<T>();
  const std::optional<std::int64_t> x = sim::whole_in(v, min, max);
  if (!x) {
    bad_field(field, "not an integer in [" + std::to_string(min) + ", " +
                         std::to_string(max) + "]");
  }
  return static_cast<T>(*x);
}

std::int32_t get_int32(const sim::JsonValue& obj, const std::string& field) {
  return whole<std::int32_t>(member(obj, field), field);
}

std::uint64_t get_uint64(const sim::JsonValue& obj, const std::string& field) {
  return whole<std::uint64_t>(member(obj, field), field);
}

bool get_bool(const sim::JsonValue& obj, const std::string& field) {
  const sim::JsonValue& v = member(obj, field);
  if (!v.is_bool()) bad_field(field, "not a bool");
  return v.as_bool();
}

std::string get_string(const sim::JsonValue& obj, const std::string& field) {
  const sim::JsonValue& v = member(obj, field);
  if (!v.is_string()) bad_field(field, "not a string");
  return v.as_string();
}

template <typename Enum>
Enum get_enum(const sim::JsonValue& obj, const std::string& field) {
  const std::string name = get_string(obj, field);
  Enum out{};
  if (!sim::from_string(name, out)) bad_field(field, "unknown enum name");
  return out;
}

}  // namespace

Scenario Scenario::from_json(const sim::JsonValue& value) {
  if (!value.is_object()) {
    throw std::runtime_error("wavesim.repro.v1 scenario: not an object");
  }
  Scenario s;
  if (!parse_hex_u64(get_string(value, "seed"), s.seed)) {
    bad_field("seed", "not a 0x-prefixed hex string");
  }
  const sim::JsonValue& radix_json = member(value, "radix");
  if (!radix_json.is_array() || radix_json.size() == 0) {
    bad_field("radix", "not a non-empty array");
  }
  s.radix.clear();
  for (const auto& r : radix_json.elements()) {
    s.radix.push_back(whole<std::int32_t>(r, "radix"));
  }
  s.torus = get_bool(value, "torus");
  s.protocol = get_enum<sim::ProtocolKind>(value, "protocol");
  s.variant = get_enum<sim::ClrpVariant>(value, "variant");
  s.pcs_only = get_bool(value, "pcs_only");
  s.routing = get_enum<sim::RoutingKind>(value, "routing");
  s.wormhole_vcs = get_int32(value, "wormhole_vcs");
  s.wave_switches = get_int32(value, "wave_switches");
  s.max_misroutes = get_int32(value, "max_misroutes");
  s.cache_entries = get_int32(value, "cache_entries");
  s.replacement = get_enum<sim::ReplacementPolicy>(value, "replacement");
  s.max_packet_flits = get_int32(value, "max_packet_flits");
  s.link_fault_rate = get_number(value, "link_fault_rate");
  s.storm_fraction = get_number(value, "storm_fraction");
  s.storm_at = get_uint64(value, "storm_at");
  s.storm_repair = get_uint64(value, "storm_repair");
  s.pattern = get_string(value, "pattern");
  s.size_dist = get_string(value, "size_dist");
  s.min_flits = get_int32(value, "min_flits");
  s.max_flits = get_int32(value, "max_flits");
  s.load = get_number(value, "load");
  s.inject_cycles = get_uint64(value, "inject_cycles");
  s.drain_cap = get_uint64(value, "drain_cap");
  s.engine_shards = get_int32(value, "engine_shards");
  return s;
}

}  // namespace wavesim::check
