// MB-m: misrouting backtracking probe routing with at most m misroutes
// (Gaughan & Yalamanchili, used by the paper for circuit setup).
//
// The step is word-level, like the routing control unit of paper Fig. 3:
// a probe's view of one node is three port masks (MbmView) built from the
// status registers' port masks, the node's link mask and the History
// Store's searched-port mask. decide() is a pure function of that view,
// the misroute budget and the Force bit; it returns what the probe does
// this step. The control plane (ControlPlane::build_view) and the bounded
// model checker (ProtocolModel::build_view) both build an MbmView and call
// the same decide(), so the runtime and the model share one copy of the
// decision logic. The control plane executes the decision (reserving
// channels, parking Force probes, moving flits).
#pragma once

#include <cstdint>
#include <vector>

#include "pcs/probe.hpp"
#include "pcs/registers.hpp"
#include "topology/topology.hpp"

namespace wavesim::pcs {

/// A probe's view of the output ports of one node (bit p = port p). A port
/// in none of the three masks is unusable: faulty, already searched
/// (history), or off the mesh edge.
struct MbmView {
  std::uint32_t available = 0;    ///< free pair, selectable
  std::uint32_t established = 0;  ///< owned by a circuit whose ack has returned
  std::uint32_t pending = 0;  ///< owned by a probe or a circuit awaiting ack

  friend bool operator==(const MbmView&, const MbmView&) = default;
};

/// Ports of `node` that lead to a neighbor (all ports on a torus; a mesh
/// edge node lacks the ports that would leave the mesh).
std::uint32_t link_mask(const topo::KAryNCube& topology, NodeId node);

/// The view of a register bank restricted to the `usable` ports (link
/// mask minus searched ports). A reserved channel, or a busy one whose ack
/// has not returned, belongs to a circuit still being established.
inline MbmView view_of(const SwitchRegisters& regs,
                       std::uint32_t usable) noexcept {
  const std::uint32_t busy = regs.busy_mask();
  const std::uint32_t acked = regs.ack_mask();
  return MbmView{regs.free_mask() & usable, busy & acked & usable,
                 (regs.reserved_mask() | (busy & ~acked)) & usable};
}

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
/// Preference order (among minimal ports, the one with the largest
/// remaining |offset| wins, ties to the lower port):
///   1. minimal available port                         -> advance
///   2. [force] minimal port busy w/ established circuit -> wait (tear down)
///   3. available misroute port, if misroutes < m      -> advance (misroute)
///   4. otherwise                                      -> backtrack
/// Misroute candidates are available & ~minimal & ~arrival; the lowest
/// port wins. Matching the paper: a Force probe never waits on a channel
/// that belongs to a circuit still being established -- it backtracks
/// instead, which is the linchpin of the Theorem-1 deadlock-freedom
/// argument.
///
/// `view` must already fold in history, faults and mesh edges.
/// `arrival_port` is the input port the probe occupies at `node`
/// (kInvalidPort at the source); its opposite direction is excluded from
/// misroute candidates.
///
/// `mutate_force_unacked` is the force-on-unacked seeded bug
/// (docs/TESTING.md): a Force probe also waits on pending channels,
/// exactly the behavior Theorem 1 forbids. Runtime-plumbed (not an #ifdef
/// here) so the bounded model checker and the concrete control plane share
/// one switch and the model-vs-runtime agreement contract can be tested in
/// a normal build.
MbmDecision decide(const topo::KAryNCube& topology, NodeId node, NodeId dest,
                   const MbmView& view, PortId arrival_port,
                   std::int32_t misroutes, std::int32_t max_misroutes,
                   bool force, bool mutate_force_unacked = false);

/// Minimal ports toward dest ordered by descending remaining offset
/// magnitude (ties by port index). Exposed for tests.
std::vector<PortId> ordered_minimal_ports(const topo::KAryNCube& topology,
                                          NodeId node, NodeId dest);

}  // namespace wavesim::pcs
