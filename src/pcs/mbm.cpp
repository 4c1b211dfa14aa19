#include "pcs/mbm.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

namespace wavesim::pcs {

namespace {

/// Fixed-capacity minimal-port list (at most one port per dimension).
/// Keeps decide() free of per-step heap allocation.
struct MinimalPorts {
  std::array<PortId, kMaxPorts> ports;
  std::int32_t count = 0;

  bool contains(PortId p) const noexcept {
    for (std::int32_t i = 0; i < count; ++i) {
      if (ports[i] == p) return true;
    }
    return false;
  }
};

MinimalPorts collect_minimal(const topo::KAryNCube& topology, NodeId node,
                             NodeId dest) {
  const std::span<const std::int32_t> from = topology.coord_row(node);
  const std::span<const std::int32_t> to = topology.coord_row(dest);
  // Sorted by (-|offset|, port). The keys are unique (one port per
  // dimension) and few, so an insertion sort yields std::sort's order.
  std::array<std::pair<std::int32_t, PortId>, kMaxPorts> scored;
  std::int32_t n = 0;
  for (std::int32_t d = 0; d < topology.num_dims(); ++d) {
    const std::int32_t off = topology.wrap_offset(to[d] - from[d], d);
    if (off == 0) continue;
    const std::pair<std::int32_t, PortId> key{
        -std::abs(off), topo::KAryNCube::port_of(d, off > 0)};
    std::int32_t i = n++;
    for (; i > 0 && key < scored[i - 1]; --i) scored[i] = scored[i - 1];
    scored[i] = key;
  }
  MinimalPorts out;
  out.count = n;
  for (std::int32_t i = 0; i < n; ++i) out.ports[i] = scored[i].second;
  return out;
}

}  // namespace

std::vector<PortId> ordered_minimal_ports(const topo::KAryNCube& topology,
                                          NodeId node, NodeId dest) {
  const MinimalPorts minimal = collect_minimal(topology, node, dest);
  return std::vector<PortId>(minimal.ports.begin(),
                             minimal.ports.begin() + minimal.count);
}

MbmDecision decide(const topo::KAryNCube& topology, NodeId node, NodeId dest,
                   std::span<const PortView> view, PortId arrival_port,
                   std::int32_t misroutes, std::int32_t max_misroutes,
                   bool force, bool mutate_force_unacked) {
  if (static_cast<std::int32_t>(view.size()) != topology.num_ports()) {
    throw std::invalid_argument("mbm::decide: view size mismatch");
  }
  if (node == dest) {
    return MbmDecision{MbmAction::kDeliver, kInvalidPort, false};
  }

  const MinimalPorts minimal = collect_minimal(topology, node, dest);

  // Seeded bug: treat still-establishing channels as waitable too. This is
  // exactly what the Theorem-1 proof forbids; the BMC and fsck I7 must both
  // catch it (docs/TESTING.md mutation table).
  const auto waitable = [mutate_force_unacked](PortView v) {
    return v == PortView::kBusyEstablished ||
           (mutate_force_unacked && v == PortView::kBusyPending);
  };

  // 1. A free minimal channel pair.
  for (std::int32_t i = 0; i < minimal.count; ++i) {
    const PortId p = minimal.ports[i];
    if (view[p] == PortView::kAvailable) {
      return MbmDecision{MbmAction::kAdvance, p, false};
    }
  }
  // 2. Force mode: wait for a minimal channel held by an *established*
  //    circuit (CLRP will tear it down). Never wait on kBusyPending.
  if (force) {
    for (std::int32_t i = 0; i < minimal.count; ++i) {
      const PortId p = minimal.ports[i];
      if (waitable(view[p])) {
        return MbmDecision{MbmAction::kWaitForce, p, false};
      }
    }
  }
  // 3. Misroute through any other free pair (never straight back where we
  //    came from: the reverse hop is what backtracking is for).
  if (misroutes < max_misroutes) {
    for (PortId p = 0; p < topology.num_ports(); ++p) {
      if (view[p] != PortView::kAvailable) continue;
      // Input port q of a node faces the neighbor in direction q, so the
      // output link back toward the previous node is port q itself.
      if (p == arrival_port) continue;
      // Minimal ports were already rejected above.
      if (minimal.contains(p)) continue;
      return MbmDecision{MbmAction::kAdvance, p, true};
    }
    // A Force probe may also wait on a non-minimal established circuit if
    // that is the only way forward within the misroute budget.
    if (force) {
      for (PortId p = 0; p < topology.num_ports(); ++p) {
        if (!waitable(view[p])) continue;
        if (p == arrival_port) continue;
        if (minimal.contains(p)) continue;
        // Advancing here after the wait will consume a misroute credit.
        return MbmDecision{MbmAction::kWaitForce, p, true};
      }
    }
  }
  // 4. Nothing workable here (including the Theorem-1 case: every
  //    requested channel belongs to a circuit still being established).
  return MbmDecision{MbmAction::kBacktrack, kInvalidPort, false};
}

}  // namespace wavesim::pcs
