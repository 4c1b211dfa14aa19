#include "routing/dor.hpp"

#include <cassert>
#include <stdexcept>

namespace wavesim::route {

namespace detail {

std::int32_t first_unresolved_dim(const std::vector<std::int32_t>& offsets) {
  for (std::size_t d = 0; d < offsets.size(); ++d) {
    if (offsets[d] != 0) return static_cast<std::int32_t>(d);
  }
  return -1;
}

std::int32_t torus_vc_class(const topo::KAryNCube& topology, NodeId node,
                            NodeId dest, std::int32_t dim, bool positive) {
  if (!topology.torus()) return 0;
#ifdef WAVESIM_MUTATE_ESCAPE
  // Mutation smoke build: pretend no segment ever crosses the dateline.
  // Every torus ring of radix >= 4 then has a cyclic escape CDG, which
  // simcheck's structural oracle must detect and shrink.
  (void)node;
  (void)dest;
  (void)dim;
  (void)positive;
  return 0;
#else
  const std::int32_t c = topology.coord_row(node)[dim];
  const std::int32_t t = topology.coord_row(dest)[dim];
  // Class 1 on the pre-wraparound segment, class 0 once the remaining
  // segment no longer crosses the dateline. c == t cannot occur while this
  // dimension is still being routed.
  if (positive) return c < t ? 0 : 1;
  return c > t ? 0 : 1;
#endif
}

}  // namespace detail

DimensionOrderRouting::DimensionOrderRouting(const topo::KAryNCube& topology,
                                             std::int32_t num_vcs)
    : topology_(topology), num_vcs_(num_vcs) {
  if (num_vcs_ < min_vcs()) {
    throw std::invalid_argument("DimensionOrderRouting: too few VCs");
  }
}

std::int32_t DimensionOrderRouting::min_vcs() const noexcept {
  return topology_.torus() ? 2 : 1;
}

std::vector<VcId> DimensionOrderRouting::vcs_of_class(std::int32_t cls) const {
  std::vector<VcId> vcs;
  if (!topology_.torus()) {
    for (VcId v = 0; v < num_vcs_; ++v) vcs.push_back(v);
    return vcs;
  }
  const VcId half = num_vcs_ / 2;
  const VcId lo = cls == 0 ? 0 : half;
  const VcId hi = cls == 0 ? half : num_vcs_;
  for (VcId v = lo; v < hi; ++v) vcs.push_back(v);
  return vcs;
}

std::vector<RouteCandidate> DimensionOrderRouting::route(NodeId node,
                                                         PortId /*in_port*/,
                                                         VcId /*in_vc*/,
                                                         NodeId dest) const {
  assert(node != dest);
  const auto offsets = topology_.min_offsets(node, dest);
  const std::int32_t dim = detail::first_unresolved_dim(offsets);
  if (dim < 0) return {};
  const bool positive = offsets[dim] > 0;
  const PortId port = topo::KAryNCube::port_of(dim, positive);
  const std::int32_t cls =
      detail::torus_vc_class(topology_, node, dest, dim, positive);
  std::vector<RouteCandidate> candidates;
  for (VcId vc : vcs_of_class(cls)) {
    candidates.push_back(RouteCandidate{port, vc, /*escape=*/true});
  }
  return candidates;
}

}  // namespace wavesim::route
