#include "topology/topology.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace wavesim::topo {

KAryNCube::KAryNCube(std::vector<std::int32_t> radix, bool torus)
    : radix_(std::move(radix)), torus_(torus) {
  if (radix_.empty()) {
    throw std::invalid_argument("KAryNCube: need at least one dimension");
  }
  std::int64_t n = 1;
  for (auto r : radix_) {
    if (r < 2) throw std::invalid_argument("KAryNCube: radix must be >= 2");
    n *= r;
    if (n > (1 << 24)) {
      throw std::invalid_argument("KAryNCube: network too large");
    }
  }
  num_nodes_ = static_cast<std::int32_t>(n);
  const std::int32_t dims = num_dims();
  const std::int32_t ports = num_ports();
  coord_flat_.resize(static_cast<std::size_t>(num_nodes_) * dims);
  neighbors_.resize(static_cast<std::size_t>(num_channels()));
  // Walk the nodes in id order with an odometer over the coordinates
  // (dimension 0 fastest, as linearize()).
  std::int32_t* coord = coord_flat_.data();
  NodeId* next = neighbors_.data();
  for (NodeId id = 0; id < num_nodes_; ++id, coord += dims, next += ports) {
    if (id > 0) {
      std::copy_n(coord - dims, dims, coord);
      for (std::int32_t d = 0; d < dims && ++coord[d] == radix_[d]; ++d) {
        coord[d] = 0;
      }
    }
    std::int32_t stride = 1;
    for (std::int32_t d = 0; d < dims; ++d) {
      const std::int32_t r = radix_[d];
      const std::int32_t c = coord[d];
      // A mesh boundary has no neighbor; a torus wraps (r - 1) strides.
      next[port_of(d, true)] =
          c + 1 < r ? id + stride
                    : (torus_ ? id - (r - 1) * stride : kInvalidNode);
      next[port_of(d, false)] =
          c > 0 ? id - stride
                : (torus_ ? id + (r - 1) * stride : kInvalidNode);
      stride *= r;
    }
  }
}

std::vector<std::int32_t> KAryNCube::min_offsets(NodeId from, NodeId to) const {
  std::vector<std::int32_t> off(radix_.size(), 0);
  for (std::size_t d = 0; d < radix_.size(); ++d) {
    off[d] = min_offset(from, to, static_cast<std::int32_t>(d));
  }
  return off;
}

std::int32_t KAryNCube::distance(NodeId from, NodeId to) const {
  const std::span<const std::int32_t> a = coord_row(from);
  const std::span<const std::int32_t> b = coord_row(to);
  std::int32_t sum = 0;
  for (std::int32_t d = 0; d < num_dims(); ++d) {
    sum += std::abs(wrap_offset(b[d] - a[d], d));
  }
  return sum;
}

std::vector<PortId> KAryNCube::minimal_ports(NodeId from, NodeId to) const {
  std::vector<PortId> ports;
  const auto off = min_offsets(from, to);
  for (std::size_t d = 0; d < off.size(); ++d) {
    if (off[d] > 0) ports.push_back(port_of(static_cast<std::int32_t>(d), true));
    else if (off[d] < 0) ports.push_back(port_of(static_cast<std::int32_t>(d), false));
  }
  return ports;
}

bool KAryNCube::crosses_dateline(NodeId node, PortId port) const {
  if (!torus_) return false;
  const std::int32_t d = dim_of(port);
  const std::int32_t v = coord_row(node)[d];
  return is_positive(port) ? (v == radix_[d] - 1) : (v == 0);
}

}  // namespace wavesim::topo
