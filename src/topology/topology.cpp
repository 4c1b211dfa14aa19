#include "topology/topology.hpp"

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
  coords_.reserve(num_nodes_);
  coord_flat_.reserve(static_cast<std::size_t>(num_nodes_) * radix_.size());
  for (NodeId id = 0; id < num_nodes_; ++id) {
    coords_.push_back(delinearize(id, radix_));
    coord_flat_.insert(coord_flat_.end(), coords_.back().begin(),
                       coords_.back().end());
  }
  neighbors_.resize(static_cast<std::size_t>(num_channels()), kInvalidNode);
  for (NodeId id = 0; id < num_nodes_; ++id) {
    for (PortId port = 0; port < num_ports(); ++port) {
      const std::int32_t d = dim_of(port);
      Coord c = coords_[id];
      std::int32_t v = c[d] + (is_positive(port) ? 1 : -1);
      if (v < 0 || v >= radix_[d]) {
        if (!torus_) continue;  // mesh boundary: stays kInvalidNode
        v = (v + radix_[d]) % radix_[d];
      }
      c[d] = v;
      neighbors_[channel_index(id, port)] = node_of(c);
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
  const std::int32_t v = coord_of(node)[d];
  return is_positive(port) ? (v == radix_[d] - 1) : (v == 0);
}

}  // namespace wavesim::topo
