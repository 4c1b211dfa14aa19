// Run configuration for the wave-switching simulator.
//
// One flat struct so benchmarks and tests can sweep any knob. validate()
// rejects inconsistent combinations with a descriptive message.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace wavesim::sim {

/// Wormhole-plane routing algorithm.
enum class RoutingKind {
  kDimensionOrder,   ///< deterministic DOR (dateline VCs on torus)
  kDuatoAdaptive,    ///< fully adaptive + DOR escape channels (Duato 93/95)
  kWestFirst,        ///< turn-model partially adaptive (2-D mesh only)
  kNegativeFirst,    ///< turn-model partially adaptive (any-D mesh)
};

/// Circuit-cache victim selection (paper Fig. 5 "Replace" field).
enum class ReplacementPolicy { kLru, kLfu, kFifo, kRandom };

/// Which wave-switching routing protocol manages circuits.
enum class ProtocolKind {
  kWormholeOnly,  ///< baseline: every message uses S0 wormhole switching
  kClrp,          ///< Cache-Like Routing Protocol (automatic circuits)
  kCarp,          ///< Compiler-Aided Routing Protocol (explicit circuits)
};

/// CLRP phase-structure simplifications discussed in paper section 3.1.
enum class ClrpVariant {
  kFull,          ///< phase1 all switches -> phase2 (Force) -> wormhole
  kForceFirst,    ///< skip phase 1: first probe already carries Force
  kSingleSwitch,  ///< phases try only InitialSwitch, no modulo-k retry
};

const char* to_string(RoutingKind kind) noexcept;
const char* to_string(ReplacementPolicy policy) noexcept;
const char* to_string(ProtocolKind kind) noexcept;
const char* to_string(ClrpVariant variant) noexcept;

/// Inverses of to_string (exact match); return false on an unknown name,
/// leaving `out` untouched. Used by the scenario/replay loaders, which must
/// reject corrupt input instead of guessing.
bool from_string(const std::string& name, RoutingKind& out) noexcept;
bool from_string(const std::string& name, ReplacementPolicy& out) noexcept;
bool from_string(const std::string& name, ProtocolKind& out) noexcept;
bool from_string(const std::string& name, ClrpVariant& out) noexcept;

struct TopologyConfig {
  /// Radix per dimension, e.g. {8, 8} for an 8x8 grid. Size = #dimensions.
  std::vector<std::int32_t> radix{8, 8};
  /// Wraparound links (torus) or not (mesh).
  bool torus = true;
  friend bool operator==(const TopologyConfig&, const TopologyConfig&) = default;
};

/// Largest wormhole_pipeline_latency: the wormhole fabric keeps one
/// outbox slot per cycle a flit can spend on a link.
inline constexpr std::int32_t kMaxPipelineLatency = 1024;

struct RouterConfig {
  /// Wormhole data virtual channels per S0 physical channel ("w").
  std::int32_t wormhole_vcs = 2;
  /// Flit buffer depth of each wormhole VC.
  std::int32_t vc_buffer_depth = 4;
  /// Number of wave-pipelined circuit switches per router ("k").
  std::int32_t wave_switches = 2;
  /// Wormhole routing algorithm on S0.
  RoutingKind routing = RoutingKind::kDimensionOrder;
  /// Wave-pipelined clock multiplier for circuit channels (paper: ~4x).
  double wave_clock_factor = 4.0;
  /// If true, the data link is split into k narrower channels so each
  /// circuit gets wave_clock_factor/k flits per cycle (single-chip design);
  /// if false each switch has a full-width channel (multi-chip design).
  bool split_channels = false;
  /// End-to-end window for circuit transfers, in flits.
  std::int32_t circuit_window = 32;
  /// Paper footnote 1: "A physical circuit is a circuit made of physical
  /// channels. A virtual circuit is a circuit made of virtual channels."
  /// With virtual_circuits, S1..Sk model reserved virtual-channel paths:
  /// circuits still remove per-hop routing and contention, but data moves
  /// at the base clock (1 flit/cycle) with wormhole per-hop latency --
  /// isolating the wave-pipelining contribution from the reuse
  /// contribution in ablations.
  bool virtual_circuits = false;
  /// Router pipeline latency (cycles a flit spends per hop beyond link
  /// traversal) for the wormhole plane, in [1, kMaxPipelineLatency].
  std::int32_t wormhole_pipeline_latency = 2;
  /// Cycles a control flit (probe, ack, teardown, release request) spends
  /// per hop on the control channels. Control flits cross the same links
  /// as wormhole flits but skip VC/switch allocation, so this is slightly
  /// cheaper than a wormhole header hop.
  std::int32_t control_hop_cycles = 2;
  friend bool operator==(const RouterConfig&, const RouterConfig&) = default;
};

struct ProtocolConfig {
  ProtocolKind protocol = ProtocolKind::kClrp;
  ClrpVariant clrp_variant = ClrpVariant::kFull;
  /// Maximum misroutes for MB-m probe routing.
  std::int32_t max_misroutes = 2;
  /// Circuit-cache entries per node.
  std::int32_t circuit_cache_entries = 8;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  /// Below this message length (flits), CLRP sends via wormhole without
  /// attempting a circuit (0 = always try a circuit).
  std::int32_t min_circuit_message_flits = 0;
  /// Wormhole messages longer than this are segmented into packets of at
  /// most this many flits (0 = no segmentation). Packets of one message
  /// may travel on different VCs; the destination reassembles by count.
  std::int32_t max_packet_flits = 0;
  /// "The simplest version of wave router is obtained by setting k=1 and
  /// w=0. In this case, all the messages use PCS" (paper section 2).
  /// With pcs_only, nothing falls back to wormhole switching: failed
  /// setups retry after a backoff and messages wait for their circuit.
  bool pcs_only = false;
  /// Seeded bug (docs/TESTING.md mutation table): Force probes also wait
  /// on channels still being established, violating the Theorem-1 premise.
  /// A runtime knob (wavecheck --bmc-mutate-force-unacked, tests) so no
  /// special build is needed to flip it per run.
  bool mutate_force_unacked = false;
  friend bool operator==(const ProtocolConfig&, const ProtocolConfig&) = default;
};

/// Software messaging-layer model (paper section 1: buffer allocation,
/// copying and packetization dominate send cost in multicomputers;
/// section 2: allocating message buffers at both ends when the circuit is
/// established lets every message on the circuit reuse them).
/// All zero by default (pure hardware latency).
struct SoftwareConfig {
  /// Send-side software cost of a wormhole message, cycles.
  std::int32_t wormhole_send_overhead = 0;
  /// Software cost of the first message on a fresh circuit (allocates the
  /// end-point buffers).
  std::int32_t circuit_first_send_overhead = 0;
  /// Software cost of subsequent messages reusing the circuit's buffers.
  std::int32_t circuit_reuse_send_overhead = 0;
  /// Delivery-buffer flits CLRP allocates speculatively when a circuit is
  /// established ("a reasonably large buffer can be allocated").
  std::int32_t clrp_initial_buffer_flits = 64;
  /// Penalty, cycles, when a message exceeds the circuit's allocated
  /// buffer and it must be re-allocated ("buffers may have to be
  /// re-allocated for longer messages"). CARP avoids this by sizing the
  /// buffer to the longest message of the set.
  std::int32_t buffer_realloc_penalty = 0;
  friend bool operator==(const SoftwareConfig&, const SoftwareConfig&) = default;
};

/// Dynamic fault event kinds (docs/FAULTS.md). Link events name the
/// bidirectional link leaving `node` through `port`; both directions and
/// all k circuit switches fail together. Node events fail every circuit
/// link incident to the node (its PCS switches go down); the node itself
/// keeps injecting/ejecting wormhole traffic.
enum class FaultEventKind { kLinkDown, kLinkUp, kNodeDown, kNodeUp };

const char* to_string(FaultEventKind kind) noexcept;
bool from_string(const std::string& name, FaultEventKind& out) noexcept;

/// One scheduled fault event, applied at the top of cycle `at` before any
/// traffic of that cycle moves.
struct FaultEvent {
  Cycle at = 0;
  FaultEventKind kind = FaultEventKind::kLinkDown;
  NodeId node = 0;
  PortId port = 0;  ///< ignored for node events
  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Failure burst: at cycle `at`, `fraction` of all bidirectional links
/// fail at once (drawn deterministically from the run seed); each comes
/// back `repair_after` cycles later (0 = permanent). Active iff
/// fraction > 0.
struct FaultStorm {
  Cycle at = 0;
  double fraction = 0.0;
  Cycle repair_after = 0;
  friend bool operator==(const FaultStorm&, const FaultStorm&) = default;
};

/// Poisson link churn over [from, until): per-cycle failure probability
/// `rate` across the network, each failed link repaired after an
/// exponential delay with mean `mean_repair` (0 = permanent). Active iff
/// rate > 0.
struct FaultChurn {
  double rate = 0.0;
  Cycle from = 0;
  Cycle until = 0;
  Cycle mean_repair = 0;
  friend bool operator==(const FaultChurn&, const FaultChurn&) = default;
};

/// RIP-style distance-vector reachability layer parameters (triggered
/// updates, split horizon with poisoned reverse, route timeouts). Runs
/// over the S0 control plane, which never fails.
struct DistanceVectorConfig {
  /// Cycles between full periodic advertisements while the plane is
  /// active (faults recent or updates in flight).
  Cycle advert_period = 256;
  /// A route not refreshed for timeout_periods * advert_period cycles is
  /// withdrawn (metric = infinity).
  std::int32_t timeout_periods = 3;
  /// Per-hop latency of an advertisement; 0 = use control_hop_cycles.
  std::int32_t hop_cycles = 0;
  friend bool operator==(const DistanceVectorConfig&,
                         const DistanceVectorConfig&) = default;
};

struct FaultConfig {
  /// Fraction of unidirectional circuit data channels statically marked
  /// faulty (with the paired control channel). The S0 wormhole plane stays
  /// fault-free so the wormhole fallback always works — this matches the
  /// paper's fault story, which is about MB-m probe setup resilience.
  double link_fault_rate = 0.0;
  /// Explicit dynamic fault events, applied at cycle boundaries. Dynamic
  /// faults also only touch the circuit planes; S0 stays healthy.
  std::vector<FaultEvent> events;
  FaultStorm storm;
  FaultChurn churn;
  DistanceVectorConfig dv;

  /// True when any dynamic fault source is configured (the fault plane is
  /// only constructed — and only costs anything — in that case).
  bool dynamic() const noexcept {
    return !events.empty() || storm.fraction > 0.0 || churn.rate > 0.0;
  }

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

struct SimConfig {
  TopologyConfig topology;
  RouterConfig router;
  ProtocolConfig protocol;
  SoftwareConfig software;
  FaultConfig faults;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument on an inconsistent configuration.
  void validate() const;

  std::int32_t num_nodes() const noexcept;
  /// Wave clock multiplier actually in effect (1.0 for virtual circuits).
  double effective_wave_factor() const noexcept;
  /// Effective circuit bandwidth in flits per base cycle.
  double circuit_flits_per_cycle() const noexcept;

  /// Derive wave_clock_factor from a technology timing model instead of
  /// asserting it (see sim/technology.hpp).
  void apply_technology(const struct TechnologyModel& technology);

  /// Canonical small configs used across tests/benches.
  static SimConfig small_mesh();    ///< 4x4 mesh, defaults
  static SimConfig default_torus(); ///< 8x8 torus, defaults
  static SimConfig wormhole_baseline();  ///< 8x8 torus, k=0, wormhole only

  friend bool operator==(const SimConfig&, const SimConfig&) = default;
};

}  // namespace wavesim::sim
