#include "sim/config.hpp"

#include <stdexcept>

#include "sim/technology.hpp"

namespace wavesim::sim {

const char* to_string(RoutingKind kind) noexcept {
  switch (kind) {
    case RoutingKind::kDimensionOrder: return "dor";
    case RoutingKind::kDuatoAdaptive: return "duato";
    case RoutingKind::kWestFirst: return "west-first";
    case RoutingKind::kNegativeFirst: return "negative-first";
  }
  return "?";
}

const char* to_string(ReplacementPolicy policy) noexcept {
  switch (policy) {
    case ReplacementPolicy::kLru: return "lru";
    case ReplacementPolicy::kLfu: return "lfu";
    case ReplacementPolicy::kFifo: return "fifo";
    case ReplacementPolicy::kRandom: return "random";
  }
  return "?";
}

const char* to_string(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::kWormholeOnly: return "wormhole";
    case ProtocolKind::kClrp: return "clrp";
    case ProtocolKind::kCarp: return "carp";
  }
  return "?";
}

const char* to_string(FaultEventKind kind) noexcept {
  switch (kind) {
    case FaultEventKind::kLinkDown: return "link-down";
    case FaultEventKind::kLinkUp: return "link-up";
    case FaultEventKind::kNodeDown: return "node-down";
    case FaultEventKind::kNodeUp: return "node-up";
  }
  return "?";
}

const char* to_string(ClrpVariant variant) noexcept {
  switch (variant) {
    case ClrpVariant::kFull: return "full";
    case ClrpVariant::kForceFirst: return "force-first";
    case ClrpVariant::kSingleSwitch: return "single-switch";
  }
  return "?";
}

namespace {

/// Match `name` against to_string over every enumerator in [first, last].
template <typename Enum>
bool match_enum(const std::string& name, Enum first, Enum last,
                Enum& out) noexcept {
  for (int v = static_cast<int>(first); v <= static_cast<int>(last); ++v) {
    const Enum candidate = static_cast<Enum>(v);
    if (name == to_string(candidate)) {
      out = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

bool from_string(const std::string& name, RoutingKind& out) noexcept {
  return match_enum(name, RoutingKind::kDimensionOrder,
                    RoutingKind::kNegativeFirst, out);
}

bool from_string(const std::string& name, ReplacementPolicy& out) noexcept {
  return match_enum(name, ReplacementPolicy::kLru, ReplacementPolicy::kRandom,
                    out);
}

bool from_string(const std::string& name, ProtocolKind& out) noexcept {
  return match_enum(name, ProtocolKind::kWormholeOnly, ProtocolKind::kCarp,
                    out);
}

bool from_string(const std::string& name, ClrpVariant& out) noexcept {
  return match_enum(name, ClrpVariant::kFull, ClrpVariant::kSingleSwitch, out);
}

bool from_string(const std::string& name, FaultEventKind& out) noexcept {
  return match_enum(name, FaultEventKind::kLinkDown, FaultEventKind::kNodeUp,
                    out);
}

void SimConfig::validate() const {
  auto fail = [](const std::string& why) {
    throw std::invalid_argument("SimConfig: " + why);
  };
  if (topology.radix.empty()) fail("topology needs >= 1 dimension");
  for (auto r : topology.radix) {
    if (r < 2) fail("every dimension radix must be >= 2");
  }
  if (router.wormhole_vcs < 1) fail("wormhole_vcs must be >= 1");
  if (topology.torus && router.routing == RoutingKind::kDimensionOrder &&
      router.wormhole_vcs < 2) {
    fail("torus DOR needs >= 2 wormhole VCs (dateline classes)");
  }
  if (router.routing == RoutingKind::kDuatoAdaptive &&
      router.wormhole_vcs < (topology.torus ? 3 : 2)) {
    fail("Duato adaptive needs >= 2 VCs on mesh / >= 3 on torus "
         "(escape channels + at least one adaptive channel)");
  }
  if (router.routing == RoutingKind::kWestFirst &&
      (topology.torus || topology.radix.size() != 2)) {
    fail("west-first routing needs a 2-D mesh");
  }
  if (router.routing == RoutingKind::kNegativeFirst && topology.torus) {
    fail("negative-first routing needs a mesh");
  }
  if (router.vc_buffer_depth < 1) fail("vc_buffer_depth must be >= 1");
  if (router.wave_switches < 0) fail("wave_switches must be >= 0");
  if (router.wave_clock_factor <= 0.0) fail("wave_clock_factor must be > 0");
  if (router.circuit_window < 1) fail("circuit_window must be >= 1");
  if (router.wormhole_pipeline_latency < 1 ||
      router.wormhole_pipeline_latency > kMaxPipelineLatency) {
    fail("wormhole_pipeline_latency must be in [1, " +
         std::to_string(kMaxPipelineLatency) + "]");
  }
  if (router.control_hop_cycles < 1) fail("control_hop_cycles must be >= 1");
  if (protocol.max_misroutes < 0) fail("max_misroutes must be >= 0");
  if (protocol.circuit_cache_entries < 1) {
    fail("circuit_cache_entries must be >= 1");
  }
  if (protocol.min_circuit_message_flits < 0) {
    fail("min_circuit_message_flits must be >= 0");
  }
  if (protocol.max_packet_flits < 0) fail("max_packet_flits must be >= 0");
  if (protocol.pcs_only) {
    if (protocol.protocol != ProtocolKind::kClrp) {
      fail("pcs_only requires the CLRP protocol");
    }
    if (protocol.min_circuit_message_flits != 0) {
      fail("pcs_only cannot bypass circuits for short messages");
    }
  }
  if (protocol.protocol != ProtocolKind::kWormholeOnly &&
      router.wave_switches < 1) {
    fail("circuit protocols (CLRP/CARP) need wave_switches >= 1");
  }
  // Range checks are written so NaN fails them, and they hold whether or
  // not the value switches a fault source on: a negative storm fraction
  // must not turn into a run with no storm.
  if (!(faults.link_fault_rate >= 0.0 && faults.link_fault_rate < 1.0)) {
    fail("link_fault_rate must be in [0, 1)");
  }
  if (!(faults.storm.fraction >= 0.0 && faults.storm.fraction < 1.0)) {
    fail("storm fraction must be in [0, 1)");
  }
  if (!(faults.churn.rate >= 0.0 && faults.churn.rate <= 1.0)) {
    fail("churn rate must be in [0, 1]");
  }
  if (faults.dynamic()) {
    if (router.wave_switches < 1) {
      fail("dynamic fault schedules target the circuit planes; they need "
           "wave_switches >= 1");
    }
    if (protocol.pcs_only) {
      fail("dynamic fault schedules need the wormhole fallback; pcs_only "
           "has none");
    }
    const std::int32_t nodes = num_nodes();
    const auto dims = static_cast<std::int32_t>(topology.radix.size());
    for (const FaultEvent& e : faults.events) {
      if (e.node < 0 || e.node >= nodes) {
        fail("fault event node " + std::to_string(e.node) +
             " out of range [0, " + std::to_string(nodes) + ")");
      }
      const bool link_event = e.kind == FaultEventKind::kLinkDown ||
                              e.kind == FaultEventKind::kLinkUp;
      if (link_event) {
        if (e.port < 0 || e.port >= 2 * dims) {
          fail("fault event port " + std::to_string(e.port) +
               " out of range [0, " + std::to_string(2 * dims) + ")");
        }
        if (!topology.torus) {
          // Mesh boundary: the named link must actually have a neighbor.
          const std::int32_t dim = e.port / 2;
          std::int32_t stride = 1;
          for (std::int32_t d = dims - 1; d > dim; --d) {
            stride *= topology.radix[static_cast<std::size_t>(d)];
          }
          const std::int32_t r = topology.radix[static_cast<std::size_t>(dim)];
          const std::int32_t c = (e.node / stride) % r;
          const bool positive = (e.port % 2) == 0;
          if ((positive && c == r - 1) || (!positive && c == 0)) {
            fail("fault event targets a mesh boundary port with no link "
                 "(node " + std::to_string(e.node) + ", port " +
                 std::to_string(e.port) + ")");
          }
        }
      }
      if (!link_event && nodes < 2) {
        fail("node fault events need >= 2 nodes");
      }
    }
    if (faults.churn.rate > 0.0 && faults.churn.until <= faults.churn.from) {
      fail("churn window must be non-empty (until > from)");
    }
    if (faults.dv.advert_period < 1) fail("dv advert_period must be >= 1");
    if (faults.dv.timeout_periods < 1) fail("dv timeout_periods must be >= 1");
    if (faults.dv.hop_cycles < 0) fail("dv hop_cycles must be >= 0");
  }
  if (software.wormhole_send_overhead < 0 ||
      software.circuit_first_send_overhead < 0 ||
      software.circuit_reuse_send_overhead < 0 ||
      software.buffer_realloc_penalty < 0) {
    fail("software overheads must be >= 0");
  }
  if (software.clrp_initial_buffer_flits < 1) {
    fail("clrp_initial_buffer_flits must be >= 1");
  }
}

double SimConfig::effective_wave_factor() const noexcept {
  return router.virtual_circuits ? 1.0 : router.wave_clock_factor;
}

std::int32_t SimConfig::num_nodes() const noexcept {
  std::int32_t n = 1;
  for (auto r : topology.radix) n *= r;
  return n;
}

double SimConfig::circuit_flits_per_cycle() const noexcept {
  const double split =
      router.split_channels ? static_cast<double>(router.wave_switches) : 1.0;
  return effective_wave_factor() / (split > 0.0 ? split : 1.0);
}

void SimConfig::apply_technology(const TechnologyModel& technology) {
  if (!technology.valid()) {
    throw std::invalid_argument("apply_technology: invalid timing model");
  }
  router.wave_clock_factor = technology.wave_clock_factor();
}

SimConfig SimConfig::small_mesh() {
  SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.topology.torus = false;
  return cfg;
}

SimConfig SimConfig::default_torus() {
  SimConfig cfg;
  cfg.topology.radix = {8, 8};
  cfg.topology.torus = true;
  return cfg;
}

SimConfig SimConfig::wormhole_baseline() {
  SimConfig cfg = default_torus();
  cfg.router.wave_switches = 0;
  cfg.protocol.protocol = ProtocolKind::kWormholeOnly;
  return cfg;
}

}  // namespace wavesim::sim
