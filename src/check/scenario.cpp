#include "check/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <sstream>
#include <system_error>
#include <vector>

#include "sim/rng.hpp"
#include "snap/runspec_codec.hpp"

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
constexpr Cycle kMinInject = 128;
constexpr Cycle kMaxInject = 2048;
constexpr Cycle kMinDrainCap = 50'000;
constexpr Cycle kMaxDrainCap = 1'000'000;
constexpr std::int32_t kMaxEngineShards = 8;
constexpr double kMaxStormFraction = 0.5;
constexpr Cycle kMaxStormRepair = 20'000;

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
void clamp(T& v, T lo, T hi) {
  v = v < lo ? lo : (v > hi ? hi : v);
}

/// A storm failing 10-40% of the links inside the injection window; a
/// third of them never repair.
void draw_storm(sim::FaultStorm& storm, sim::Rng& rng) {
  storm.fraction = 0.10 + 0.30 * rng.uniform01();
  storm.at = static_cast<Cycle>(
      rng.uniform_int(static_cast<std::int64_t>(kMinInject) / 2,
                      static_cast<std::int64_t>(kMaxInject)));
  storm.repair_after =
      rng.chance(1.0 / 3.0)
          ? 0
          : static_cast<Cycle>(rng.uniform_int(500, 8'000));
}

}  // namespace

std::string Scenario::label() const {
  const sim::SimConfig& c = spec.config;
  const sim::ProtocolKind protocol = c.protocol.protocol;
  const sim::FaultStorm& storm = c.faults.storm;
  std::ostringstream os;
  os << snap::format_radices(c.topology.radix)
     << (c.topology.torus ? " torus " : " mesh ") << sim::to_string(protocol);
  if (protocol == sim::ProtocolKind::kClrp) {
    os << "/" << sim::to_string(c.protocol.clrp_variant);
    if (c.protocol.pcs_only) os << "/pcs-only";
  }
  os << " " << sim::to_string(c.router.routing)
     << " vcs=" << c.router.wormhole_vcs;
  if (protocol != sim::ProtocolKind::kWormholeOnly) {
    os << " k=" << c.router.wave_switches << " m=" << c.protocol.max_misroutes
       << " cache=" << c.protocol.circuit_cache_entries << "/"
       << sim::to_string(c.protocol.replacement);
  }
  if (spec.carp != "none") os << " calls=" << spec.carp;
  if (c.protocol.max_packet_flits > 0) {
    os << " seg=" << c.protocol.max_packet_flits;
  }
  if (c.faults.link_fault_rate > 0.0) {
    os << " faults=" << c.faults.link_fault_rate;
  }
  if (storm.fraction > 0.0) {
    os << " storm=" << storm.fraction << "@" << storm.at;
    if (storm.repair_after > 0) {
      os << "/r" << storm.repair_after;
    } else {
      os << "/perm";
    }
  }
  os << " " << spec.pattern << "/" << spec.sizes << "["
     << spec.message_flits << "," << spec.max_length()
     << "] load=" << spec.offered_load
     << " inject=" << spec.measure;
  if (engine_shards >= 1) os << " engine=par:" << engine_shards;
  return os.str();
}

void Scenario::repair() {
  sim::SimConfig& c = spec.config;
  std::vector<std::int32_t>& radix = c.topology.radix;
  sim::RouterConfig& router = c.router;
  sim::ProtocolConfig& protocol = c.protocol;
  sim::FaultStorm& storm = c.faults.storm;
  const bool wormhole_only =
      protocol.protocol == sim::ProtocolKind::kWormholeOnly;

  // Topology: 1..kMaxDims dimensions, radix 2..kMaxRadix each, at most
  // kMaxNodes nodes so one scenario stays cheap.
  if (radix.empty()) radix = {4, 4};
  if (static_cast<std::int32_t>(radix.size()) > kMaxDims) {
    radix.resize(kMaxDims);
  }
  for (auto& r : radix) clamp(r, 2, kMaxRadix);
  while (num_nodes_of(radix) > kMaxNodes) {
    auto largest = std::max_element(radix.begin(), radix.end());
    *largest = std::max(2, *largest / 2);
    if (*largest == 2 && num_nodes_of(radix) > kMaxNodes) radix.pop_back();
  }

  // Routing/topology consistency (see SimConfig::validate).
  sim::RoutingKind& routing = router.routing;
  if (routing == sim::RoutingKind::kWestFirst && radix.size() != 2) {
    routing = sim::RoutingKind::kNegativeFirst;
  }
  if (routing == sim::RoutingKind::kWestFirst ||
      routing == sim::RoutingKind::kNegativeFirst) {
    c.topology.torus = false;
  }
  clamp(router.wormhole_vcs, 1, kMaxVcs);
  if (c.topology.torus && routing == sim::RoutingKind::kDimensionOrder) {
    router.wormhole_vcs = std::max(router.wormhole_vcs, 2);
  }
  if (routing == sim::RoutingKind::kDuatoAdaptive) {
    router.wormhole_vcs =
        std::max(router.wormhole_vcs, c.topology.torus ? 3 : 2);
  }

  // Protocol knobs. Static faults only hit circuit channels; with pcs_only
  // nothing ever falls back to wormhole, so a fault that disconnects a
  // pair would spin on retries until the drain cap.
  if (wormhole_only) {
    router.wave_switches = 0;
  } else {
    clamp(router.wave_switches, 1, kMaxSwitches);
  }
  if (protocol.protocol != sim::ProtocolKind::kClrp) protocol.pcs_only = false;
  if (wormhole_only || protocol.pcs_only) c.faults.link_fault_rate = 0.0;
  clamp(protocol.max_misroutes, 0, kMaxMisroutes);
  clamp(protocol.circuit_cache_entries, 1, kMaxCacheEntries);
  if (protocol.max_packet_flits != 0) clamp(protocol.max_packet_flits, 8, 64);
  clamp(c.faults.link_fault_rate, 0.0, 0.5);

  // Workload: pattern constraints come from workload/traffic.cpp.
  std::string& pattern = spec.pattern;
  if (pattern == "transpose" && !all_equal(radix)) pattern = "uniform";
  if ((pattern == "bit-reversal" || pattern == "bit-complement") &&
      !power_of_two(num_nodes_of(radix))) {
    pattern = "uniform";
  }
  if (pattern != "working-set") spec.working_set = {};
  if (spec.sizes != "uniform" && spec.sizes != "bimodal") spec.sizes = "fixed";
  clamp(spec.message_flits, 1, kMaxFlits);
  clamp(spec.max_flits, spec.message_flits, kMaxFlits);
  if (spec.sizes == "fixed") spec.max_flits = 0;
  if (protocol.protocol != sim::ProtocolKind::kCarp || spec.carp != "random") {
    spec.carp = "none";
  }
  clamp(spec.offered_load, kMinLoad, kMaxLoad);
  spec.warmup = 0;
  clamp(spec.measure, kMinInject, kMaxInject);
  clamp(spec.drain_cap, kMinDrainCap, kMaxDrainCap);
  clamp(engine_shards, 0, kMaxEngineShards);
  c.seed = spec.seed;

  // Dynamic fault storm: needs the wormhole fallback plus circuit planes
  // to fail, so wormhole-only and pcs_only configurations cannot carry one
  // (see SimConfig::validate). An active storm must land inside the
  // injection window (after it, traffic may drain before the storm ever
  // fires). Canonical inactive form is all-zero so shrinking towards zero
  // converges and repair stays idempotent.
  if (wormhole_only || protocol.pcs_only) storm.fraction = 0.0;
  clamp(storm.fraction, 0.0, kMaxStormFraction);
  if (storm.fraction > 0.0) {
    clamp<Cycle>(storm.at, 1, spec.measure);
    clamp<Cycle>(storm.repair_after, 0, kMaxStormRepair);
  } else {
    storm = {};
  }
}

Scenario Scenario::generate(std::uint64_t seed) {
  // Decouple the draw stream from the run's streams (which
  // CheckpointableRun seeds from the same seed) by salting it.
  sim::Rng rng(sim::hash_mix(seed ^ 0x5ca1ab1e0ddba11ULL));
  Scenario s;
  snap::RunSpec& r = s.spec;
  sim::SimConfig& c = r.config;
  r.seed = seed;
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::int32_t>(rng.uniform_int(lo, hi));
  };

  const std::int32_t dims =
      rng.chance(0.2) ? 1 : (rng.chance(0.75) ? 2 : 3);
  c.topology.radix.clear();
  for (std::int32_t d = 0; d < dims; ++d) {
    c.topology.radix.push_back(draw(2, kMaxRadix));
  }
  c.topology.torus = rng.chance(0.7);

  const double protocol_draw = rng.uniform01();
  c.protocol.protocol = protocol_draw < 0.2 ? sim::ProtocolKind::kWormholeOnly
                        : protocol_draw < 0.8 ? sim::ProtocolKind::kClrp
                                              : sim::ProtocolKind::kCarp;
  c.protocol.clrp_variant = static_cast<sim::ClrpVariant>(draw(0, 2));
  c.protocol.pcs_only = rng.chance(0.15);

  const double routing_draw = rng.uniform01();
  c.router.routing = routing_draw < 0.55  ? sim::RoutingKind::kDimensionOrder
                     : routing_draw < 0.8 ? sim::RoutingKind::kDuatoAdaptive
                     : routing_draw < 0.9 ? sim::RoutingKind::kWestFirst
                                          : sim::RoutingKind::kNegativeFirst;
  c.router.wormhole_vcs = draw(1, kMaxVcs);
  c.router.wave_switches = draw(1, kMaxSwitches);
  c.protocol.max_misroutes = draw(0, kMaxMisroutes);
  c.protocol.circuit_cache_entries = draw(1, kMaxCacheEntries);
  c.protocol.replacement = static_cast<sim::ReplacementPolicy>(draw(0, 3));
  c.protocol.max_packet_flits = rng.chance(0.3) ? draw(8, 64) : 0;
  c.faults.link_fault_rate =
      rng.chance(0.3) ? 0.02 + 0.38 * rng.uniform01() : 0.0;

  static const char* const kPatterns[] = {
      "uniform", "hotspot",    "transpose",      "bit-reversal",
      "tornado", "neighbor",   "bit-complement", "working-set"};
  r.pattern = kPatterns[rng.next_below(std::size(kPatterns))];
  const double size_draw = rng.uniform01();
  r.sizes =
      size_draw < 0.5 ? "fixed" : (size_draw < 0.8 ? "uniform" : "bimodal");
  r.message_flits = draw(1, 32);
  r.max_flits = draw(r.message_flits, kMaxFlits);
  r.carp = "random";  // kept under CARP only
  r.offered_load = kMinLoad + (kMaxLoad - kMinLoad) * rng.uniform01();
  r.warmup = 0;
  r.measure = static_cast<Cycle>(draw(kMinInject, kMaxInject));
  r.drain_cap = 120'000;
  // Half the scenarios run under the parallel engine (shard count drawn
  // too), turning every such property run into a seq/par equivalence test.
  s.engine_shards = rng.chance(0.5) ? draw(1, kMaxEngineShards) : 0;
  // A third of the scenarios get a mid-run failure storm; of those, a third
  // never repair — permanent partitions are what the DV-vs-BFS reachability
  // oracle (and the stale-route mutation smoke) bite on hardest.
  if (rng.chance(1.0 / 3.0)) draw_storm(c.faults.storm, rng);

  s.repair();
  return s;
}

void Scenario::ensure_storm() {
  sim::ProtocolConfig& protocol = spec.config.protocol;
  if (spec.config.faults.storm.fraction > 0.0) return;
  if (protocol.protocol == sim::ProtocolKind::kWormholeOnly) {
    protocol.protocol = sim::ProtocolKind::kClrp;
  }
  protocol.pcs_only = false;
  // Salt differs from generate()'s so the storm draws are independent of
  // the scenario draws even though both start from the same seed.
  sim::Rng rng(sim::hash_mix(spec.seed ^ 0x57a2b1a57ed11c5ULL));
  draw_storm(spec.config.faults.storm, rng);
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
  const char* last = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data() + 2, last, v, 16);
  if (ec != std::errc() || ptr != last) return false;
  out = v;
  return true;
}

}  // namespace wavesim::check
