// PCS control plane: drives probes (MB-m search with Force semantics),
// setup acks, teardowns and release requests over the control channels.
//
// Control channels are single-flit virtual channels of the S0 physical
// links, so every control-flit hop claims one flit-time of link bandwidth
// through the shared LinkGate (the control plane steps before the wormhole
// plane each cycle, giving control traffic priority as in the paper's
// router, where the PCS routing control unit owns dedicated VCs).
//
// Race rules implemented exactly as argued in the proof of Theorem 1:
//  * a release request finding its circuit's mapping gone (concurrent
//    teardown) is discarded at that hop;
//  * the second of two release requests for the same circuit is discarded
//    at the source;
//  * a Force probe waits only on channels whose circuit has returned its
//    ack; if every requested channel belongs to a circuit still being
//    established the probe backtracks even with Force set.
#pragma once

#include <cstdint>
#include <vector>

#include "core/circuit.hpp"
#include "core/instrumentation.hpp"
#include "pcs/history.hpp"
#include "pcs/mbm.hpp"
#include "pcs/probe.hpp"
#include "pcs/registers.hpp"
#include "sim/types.hpp"
#include "topology/topology.hpp"
#include "wormhole/link_gate.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::core {

struct ControlPlaneParams {
  std::int32_t num_switches = 2;   ///< k
  std::int32_t max_misroutes = 2;  ///< m of MB-m
  std::int32_t hop_cycles = 2;     ///< per-hop latency of control flits
  /// A waiting Force probe re-sends its release request after this many
  /// cycles. A request can legitimately be discarded (e.g. it reaches the
  /// source while the victim's own setup ack is still in flight, or races
  /// a teardown); the retry guarantees the wait stays finite, preserving
  /// the Theorem-1 argument.
  std::int32_t release_retry_cycles = 128;
  /// Seeded bug plumbed through pcs::decide (see ProtocolConfig).
  bool mutate_force_unacked = false;
};

/// Probe finished: the circuit is established (success) or the search of
/// its switch is exhausted (failure; the circuit record stays kProbing so
/// the protocol layer can retry on another switch or fall back).
struct ProbeResult {
  ProbeId probe = kInvalidProbe;
  CircuitId circuit = kInvalidCircuit;
  NodeId src = kInvalidNode;
  bool success = false;
  std::int32_t switch_index = 0;
};

/// A release request reached the source of `circuit`.
struct ReleaseDemand {
  CircuitId circuit = kInvalidCircuit;
  NodeId src = kInvalidNode;
};

/// Teardown flit reached the circuit's end; all channels are free.
struct TeardownDone {
  CircuitId circuit = kInvalidCircuit;
};

/// An established circuit was killed by a dynamic link failure; its source
/// interface must invalidate the cache entry and recover the traffic
/// (fail_link handles probing/tearing-down circuits internally).
struct KilledCircuit {
  CircuitId circuit = kInvalidCircuit;
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
};

class ControlPlane {
 public:
  /// `instrumentation` may be nullptr (no event emission). When supplied
  /// it must outlive the plane; probe backtracks and misroutes are
  /// reported through it.
  ControlPlane(const topo::KAryNCube& topology, CircuitTable& circuits,
               wh::LinkGate& gate, const ControlPlaneParams& params,
               const Instrumentation* instrumentation = nullptr);

  std::int32_t num_switches() const noexcept { return params_.num_switches; }

  /// Static fault injection (before any traffic).
  void mark_faulty(NodeId node, std::int32_t switch_index, PortId port);

  /// Dynamic link failure: the bidirectional link leaving `node` through
  /// `port` dies on every wave switch. Kills every probe whose reserved
  /// path crosses it (failed ProbeResults drive the normal retry
  /// machinery), releases and retires every circuit crossing it, drops
  /// their in-flight control flits, and marks the channels faulty.
  /// Returns the killed *established* circuits for the Network to
  /// dispatch to their source interfaces.
  std::vector<KilledCircuit> fail_link(NodeId node, PortId port);
  /// The link recovered: its channels are selectable again (channels also
  /// carrying a static fault stay faulty).
  void restore_link(NodeId node, PortId port);

  /// Launch an MB-m probe for `circuit` (state must be kProbing) over the
  /// circuit's switch. Returns the probe id.
  ProbeId launch_probe(CircuitId circuit, bool force);

  /// Source-initiated teardown of an established, idle circuit.
  void start_teardown(CircuitId circuit);

  /// Advance one cycle: move every active probe and travelling control
  /// flit by at most one hop.
  void step(Cycle now);

  // -- event drains (call once per cycle) ---------------------------------
  // Each returns the events raised since its previous call. The buffer is
  // reused: the reference is valid until the next call of the same drain.
  const std::vector<ProbeResult>& take_probe_results();
  const std::vector<ReleaseDemand>& take_release_demands();
  const std::vector<TeardownDone>& take_teardowns_done();

  // -- introspection -------------------------------------------------------
  const pcs::SwitchRegisters& registers(NodeId node, std::int32_t sw) const {
    return registers_.at(node, sw);
  }
  std::size_t active_probes() const noexcept { return probes_.size(); }
  bool probe_active(ProbeId probe) const;

  /// One parked Force probe, for fsck invariant I7: `was_acked` records
  /// whether the wait target's circuit had returned its ack at the moment
  /// the probe decided to wait (re-evaluated on every re-decide). The
  /// decision-time snapshot is what Theorem 1 constrains; the channel may
  /// legitimately change state afterwards, between the wait and the
  /// probe's next re-decide.
  struct WaitingProbe {
    ProbeId probe = kInvalidProbe;
    NodeId node = kInvalidNode;
    std::int32_t switch_index = 0;
    PortId port = kInvalidPort;
    bool was_acked = false;
  };
  std::vector<WaitingProbe> waiting_probes() const;
  std::size_t travelling_flits() const noexcept { return flits_.size(); }
  bool idle() const noexcept { return probes_.empty() && flits_.empty(); }
  /// MB-m decisions evaluated so far. A parked Force probe whose register
  /// bank is unchanged reuses its wait decision without a new one. Host
  /// diagnostic, not simulation state: a restored run re-decides every
  /// parked probe once.
  std::uint64_t decisions() const noexcept { return decisions_; }

  struct Stats {
    std::uint64_t probes_launched = 0;
    std::uint64_t probes_succeeded = 0;
    std::uint64_t probes_failed = 0;
    std::uint64_t probe_advances = 0;
    std::uint64_t probe_backtracks = 0;
    std::uint64_t probe_misroutes = 0;
    std::uint64_t force_waits = 0;           ///< cycles spent waiting
    std::uint64_t release_requests_sent = 0;
    std::uint64_t release_requests_discarded = 0;
    std::uint64_t teardowns_started = 0;
    std::uint64_t teardowns_completed = 0;
    std::uint64_t acks_completed = 0;
    std::uint64_t probes_killed = 0;     ///< killed by a link failure
    std::uint64_t circuits_killed = 0;   ///< crossing a link that failed
    /// Largest number of decision steps any single probe has taken;
    /// bounded by the finite search space (livelock-freedom, Theorem 3).
    std::uint64_t max_probe_steps = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Human-readable state of every active probe and travelling flit
  /// (diagnostics; used by the watchdog reports and debugging).
  std::string debug_dump() const;

  /// Serialize registers, history, probes (including parked Force waits
  /// and pending release retries), travelling flits, undrained events,
  /// static-fault shadow, and stats (snapshot/restore). The cached
  /// CircuitRecord pointers are re-resolved against the circuit table on
  /// load, never serialized.
  void snap(snap::Archive& ar);

 private:
  struct Hop {
    NodeId from = kInvalidNode;
    PortId out_port = kInvalidPort;
    std::int32_t misroutes_before = 0;
  };

  struct ActiveProbe {
    pcs::Probe probe;
    /// The probe's circuit record. Safe to cache: CircuitTable entries
    /// are node-stable and the record outlives the probe (a probing
    /// circuit is never retired).
    CircuitRecord* rec = nullptr;
    NodeId node = kInvalidNode;       ///< current location
    PortId arrival_port = kInvalidPort;  ///< input port here (src: invalid)
    std::vector<Hop> stack;           ///< reserved path back to the source
    /// History Store row (not serialized: re-adopted on restore).
    pcs::HistoryStore::Slot history = pcs::HistoryStore::kNoSlot;
    bool waiting = false;             ///< Force probe parked on wait_port
    PortId wait_port = kInvalidPort;
    bool wait_was_acked = false;      ///< wait target acked at decision time
    /// Version of the bank at `node` when the probe decided to wait (not
    /// serialized: a restored probe decides afresh).
    std::uint64_t parked_version = kNotParked;
    CircuitId release_requested_for = kInvalidCircuit;
    Cycle release_requested_at = 0;
    Cycle ready_at = 0;               ///< earliest cycle of the next hop
    std::uint64_t steps = 0;
  };

  /// A non-probe control flit walking an existing circuit's control path.
  struct TravelFlit {
    pcs::ControlKind kind = pcs::ControlKind::kAck;
    CircuitId circuit = kInvalidCircuit;
    std::int32_t switch_index = 0;
    NodeId node = kInvalidNode;  ///< current location
    /// kAck / kReleaseRequest: input port of the circuit at `node`
    /// (direction toward the source). kTeardown: the circuit's output
    /// port at `node` (direction toward the destination).
    PortId port = kInvalidPort;
    Cycle ready_at = 0;  ///< earliest cycle of the next hop
    bool done = false;
  };

  static constexpr std::uint64_t kNotParked = ~std::uint64_t{0};

  /// The probe's MB-m view of `regs`, its bank at its current node. A
  /// busy channel may belong to a circuit already being torn down; a wait
  /// on it resolves when the teardown frees it.
  pcs::MbmView build_view(const ActiveProbe& ap,
                          const pcs::SwitchRegisters& regs) const {
    return pcs::view_of(regs, link_masks_[static_cast<std::size_t>(ap.node)] &
                                  ~history_.mask(ap.history, ap.node));
  }
  void step_probe(ActiveProbe& ap, Cycle now);
  void finish_probe_success(ActiveProbe& ap, Cycle now);
  void fail_probe(ActiveProbe& ap);
  void request_release(ActiveProbe& ap, PortId port, Cycle now);
  void step_flit(TravelFlit& flit, Cycle now);
  void erase_probe(ProbeId id);
  /// Release every channel `circuit` holds along its path (any mix of
  /// reserved / busy / already-freed hops).
  void release_path(const CircuitRecord& rec);
  bool path_crosses(const CircuitRecord& rec, NodeId node, PortId port,
                    NodeId peer, PortId back) const;
  void drop_flits_of(CircuitId circuit);

  const topo::KAryNCube& topology_;
  CircuitTable& circuits_;
  wh::LinkGate& gate_;
  ControlPlaneParams params_;  // [snap: skip] config, fixed at construction
  const Instrumentation* instr_ = nullptr;  // [snap: skip] observer wiring
  pcs::RegisterFile registers_;
  pcs::HistoryStore history_;
  /// Active probes in ascending id order (= creation order: ids are
  /// handed out monotonically). Probes are few and only ever erase
  /// themselves while being stepped, so a flat sorted vector beats a
  /// node-based map on every per-cycle access pattern.
  std::vector<ActiveProbe> probes_;
  std::vector<TravelFlit> flits_;
  std::vector<ProbeResult> probe_results_;
  std::vector<ReleaseDemand> release_demands_;
  std::vector<TeardownDone> teardowns_done_;
  /// The buffers last handed out by the take_* drains, swapped back in
  /// on the next drain so the event vectors keep their capacity.
  std::vector<ProbeResult> drained_results_;  // [snap: skip] already dispatched
  std::vector<ReleaseDemand> drained_demands_;  // [snap: skip] already dispatched
  std::vector<TeardownDone> drained_teardowns_;  // [snap: skip] already dispatched
  /// Per node: the ports that lead to a neighbor (pcs::link_mask).
  std::vector<std::uint32_t> link_masks_;  // [snap: skip] derived from the topology at construction
  std::uint64_t decisions_ = 0;  // [snap: skip] host diagnostic, see decisions()
  /// Channels statically faulted at init, per (node, switch, port):
  /// restore_link must not heal them. Empty until the first mark_faulty.
  std::vector<std::uint8_t> static_faulty_;
  ProbeId next_probe_ = 0;
  Stats stats_;
};

}  // namespace wavesim::core
