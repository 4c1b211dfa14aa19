#include "pcs/mbm.hpp"

#include <array>
#include <bit>
#include <cstdlib>
#include <span>

namespace wavesim::pcs {

namespace {

/// The minimal ports toward a destination (at most one per dimension) as
/// a mask, with the remaining |offset| along each dimension.
struct MinimalPorts {
  std::uint32_t mask = 0;
  std::array<std::int32_t, kMaxPorts / 2> reach{};  ///< |offset| per dimension

  /// The port of `candidates` (a subset of mask) with the largest reach,
  /// ties to the lower port; kInvalidPort when `candidates` is empty.
  PortId best(std::uint32_t candidates) const noexcept {
    PortId pick = kInvalidPort;
    std::int32_t far = 0;
    for (; candidates != 0; candidates &= candidates - 1) {
      const PortId p = std::countr_zero(candidates);
      const std::int32_t r = reach[static_cast<std::size_t>(
          topo::KAryNCube::dim_of(p))];
      if (r > far) {
        far = r;
        pick = p;
      }
    }
    return pick;
  }
};

MinimalPorts minimal_ports(const topo::KAryNCube& topology, NodeId node,
                           NodeId dest) {
  const std::span<const std::int32_t> from = topology.coord_row(node);
  const std::span<const std::int32_t> to = topology.coord_row(dest);
  MinimalPorts out;
  for (std::int32_t d = 0; d < topology.num_dims(); ++d) {
    const std::int32_t off = topology.wrap_offset(to[d] - from[d], d);
    if (off == 0) continue;
    out.mask |= 1u << topo::KAryNCube::port_of(d, off > 0);
    out.reach[static_cast<std::size_t>(d)] = std::abs(off);
  }
  return out;
}

}  // namespace

std::uint32_t link_mask(const topo::KAryNCube& topology, NodeId node) {
  const std::span<const NodeId> neighbors = topology.neighbor_row(node);
  std::uint32_t mask = 0;
  for (PortId p = 0; p < topology.num_ports(); ++p) {
    if (neighbors[p] != kInvalidNode) mask |= 1u << p;
  }
  return mask;
}

std::vector<PortId> ordered_minimal_ports(const topo::KAryNCube& topology,
                                          NodeId node, NodeId dest) {
  const MinimalPorts minimal = minimal_ports(topology, node, dest);
  std::vector<PortId> out;
  for (std::uint32_t left = minimal.mask; left != 0;) {
    const PortId p = minimal.best(left);
    out.push_back(p);
    left &= ~(1u << p);
  }
  return out;
}

MbmDecision decide(const topo::KAryNCube& topology, NodeId node, NodeId dest,
                   const MbmView& view, PortId arrival_port,
                   std::int32_t misroutes, std::int32_t max_misroutes,
                   bool force, bool mutate_force_unacked) {
  if (node == dest) {
    return MbmDecision{MbmAction::kDeliver, kInvalidPort, false};
  }

  const MinimalPorts minimal = minimal_ports(topology, node, dest);

  // Seeded bug: treat still-establishing channels as waitable too. This is
  // exactly what the Theorem-1 proof forbids; the BMC and fsck I7 must both
  // catch it (docs/TESTING.md mutation table).
  const std::uint32_t waitable =
      view.established | (mutate_force_unacked ? view.pending : 0u);

  // 1. A free minimal channel pair.
  if (const std::uint32_t free_minimal = view.available & minimal.mask) {
    return MbmDecision{MbmAction::kAdvance, minimal.best(free_minimal), false};
  }
  // 2. Force mode: wait for a minimal channel held by an *established*
  //    circuit (CLRP will tear it down). Never wait on a pending one.
  if (force) {
    if (const std::uint32_t held = waitable & minimal.mask) {
      return MbmDecision{MbmAction::kWaitForce, minimal.best(held), false};
    }
  }
  // 3. Misroute through any other free pair, lowest port first. Never
  //    straight back where we came from: input port q of a node faces the
  //    neighbor in direction q, so the output link back toward the
  //    previous node is port q itself, and the reverse hop is what
  //    backtracking is for.
  if (misroutes < max_misroutes) {
    const std::uint32_t back = arrival_port >= 0 ? 1u << arrival_port : 0u;
    const std::uint32_t detour = ~minimal.mask & ~back;
    if (const std::uint32_t free_detour = view.available & detour) {
      return MbmDecision{MbmAction::kAdvance, std::countr_zero(free_detour),
                         true};
    }
    // A Force probe may also wait on a non-minimal established circuit if
    // that is the only way forward within the misroute budget; advancing
    // there after the wait consumes a misroute credit.
    if (force) {
      if (const std::uint32_t held = waitable & detour) {
        return MbmDecision{MbmAction::kWaitForce, std::countr_zero(held),
                           true};
      }
    }
  }
  // 4. Nothing workable here (including the Theorem-1 case: every
  //    requested channel belongs to a circuit still being established).
  return MbmDecision{MbmAction::kBacktrack, kInvalidPort, false};
}

}  // namespace wavesim::pcs
