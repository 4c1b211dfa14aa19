// MB-m: misrouting backtracking probe routing with at most m misroutes
// (Gaughan & Yalamanchili, used by the paper for circuit setup).
//
// decide() is a pure function over the probe's local view of one node:
// given per-port availability, the history mask and the misroute budget it
// returns what the probe does this step. The control plane executes the
// decision (reserving channels, parking Force probes, moving flits).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcs/probe.hpp"
#include "topology/topology.hpp"

namespace wavesim::pcs {

/// Most output ports a node may have: the History Store keeps one bit per
/// port in a 32-bit mask, and views are fixed arrays of this size.
inline constexpr std::int32_t kMaxPorts = 32;

/// Availability of the (control, data) channel pair behind one output port
/// as seen by a probe.
enum class PortView : std::uint8_t {
  kAvailable,        ///< free pair, selectable
  kBusyEstablished,  ///< owned by a circuit whose ack has returned
  kBusyPending,      ///< owned by a probe or a circuit still awaiting ack
  kUnusable,         ///< faulty, searched (history), or off the mesh edge
};

enum class MbmAction : std::uint8_t {
  kAdvance,    ///< reserve `port` and move forward
  kDeliver,    ///< probe is at the destination: return the ack
  kWaitForce,  ///< Force probe waits for `port`'s established circuit
  kBacktrack,  ///< give up at this node, return over the reverse mapping
};

struct MbmDecision {
  MbmAction action = MbmAction::kBacktrack;
  PortId port = kInvalidPort;
  bool misroute = false;  ///< the advance consumes one misroute credit

  friend bool operator==(const MbmDecision&, const MbmDecision&) = default;
};

/// One probe-routing step at `node`.
///
/// Preference order (minimal ports sorted by largest remaining offset):
///   1. minimal available port                         -> advance
///   2. [force] minimal port busy w/ established circuit -> wait (tear down)
///   3. available misroute port, if misroutes < m      -> advance (misroute)
///   4. otherwise                                      -> backtrack
/// Matching the paper: a Force probe never waits on a channel that belongs
/// to a circuit still being established -- it backtracks instead, which is
/// the linchpin of the Theorem-1 deadlock-freedom argument.
///
/// `view[p]` must already fold in history, faults and mesh edges
/// (kUnusable); `view` holds exactly one entry per port. `arrival_port` is the input port the probe occupies at
/// `node` (kInvalidPort at the source); its opposite direction is excluded
/// from misroute candidates.
///
/// `mutate_force_unacked` is the WAVESIM_MUTATE_FORCE_UNACKED seeded bug
/// (docs/TESTING.md): a Force probe also waits on kBusyPending channels,
/// exactly the behavior Theorem 1 forbids. Runtime-plumbed (not an #ifdef
/// here) so the bounded model checker and the concrete control plane share
/// one switch and the model-vs-runtime agreement contract can be tested in
/// a normal build.
MbmDecision decide(const topo::KAryNCube& topology, NodeId node, NodeId dest,
                   std::span<const PortView> view, PortId arrival_port,
                   std::int32_t misroutes, std::int32_t max_misroutes,
                   bool force, bool mutate_force_unacked = false);

/// Minimal ports toward dest ordered by descending remaining offset
/// magnitude (ties by port index). Exposed for tests.
std::vector<PortId> ordered_minimal_ports(const topo::KAryNCube& topology,
                                          NodeId node, NodeId dest);

}  // namespace wavesim::pcs
