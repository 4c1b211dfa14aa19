// k-ary n-cube topology (mesh or torus). Hypercube = 2-ary n-cube.
//
// Port numbering per node: port 2*d   = dimension d, positive direction
//                          port 2*d+1 = dimension d, negative direction
// A flit leaving node A through port p arrives at neighbor(A, p) on input
// port opposite(p). Injection/ejection ports are a router concern and do
// not appear here.
//
// Storage is two node-major tables built once, one allocation each: the
// coordinates (num_dims() per node, read through coord_row()) and the
// neighbors (num_ports() per node, computed by stride arithmetic: a step
// along dimension d moves the node id by the product of the radices
// below d).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/types.hpp"
#include "topology/coord.hpp"

namespace wavesim::topo {

class KAryNCube {
 public:
  KAryNCube(std::vector<std::int32_t> radix, bool torus);

  std::int32_t num_nodes() const noexcept { return num_nodes_; }
  std::int32_t num_dims() const noexcept {
    return static_cast<std::int32_t>(radix_.size());
  }
  std::int32_t radix(std::int32_t dim) const { return radix_.at(dim); }
  const std::vector<std::int32_t>& radices() const noexcept { return radix_; }
  bool torus() const noexcept { return torus_; }
  /// Network ports per node (2 per dimension).
  std::int32_t num_ports() const noexcept { return 2 * num_dims(); }

  static constexpr PortId port_of(std::int32_t dim, bool positive) noexcept {
    return 2 * dim + (positive ? 0 : 1);
  }
  static constexpr std::int32_t dim_of(PortId port) noexcept { return port / 2; }
  static constexpr bool is_positive(PortId port) noexcept { return (port % 2) == 0; }
  static constexpr PortId opposite(PortId port) noexcept { return port ^ 1; }

  NodeId node_of(const Coord& coord) const { return linearize(coord, radix_); }

  /// Neighbor through `port`, or kInvalidNode at a mesh boundary.
  /// Precomputed per channel, so this is a table load.
  NodeId neighbor(NodeId node, PortId port) const {
    if (port < 0 || port >= num_ports()) {
      throw std::out_of_range("neighbor: bad port");
    }
    return neighbors_.at(channel_index(node, port));
  }
  bool has_neighbor(NodeId node, PortId port) const {
    return neighbor(node, port) != kInvalidNode;
  }
  /// All num_ports() neighbors of `node` (entry p = neighbor(node, p)),
  /// behind one bounds check for callers that scan every port.
  std::span<const NodeId> neighbor_row(NodeId node) const {
    return row_of(neighbors_, node, num_ports());
  }
  /// The num_dims() coordinates of `node`, behind one bounds check.
  std::span<const std::int32_t> coord_row(NodeId node) const {
    return row_of(coord_flat_, node, num_dims());
  }

  /// Signed minimal offset from `from` to `to` along each dimension
  /// (torus picks the shorter way; exact ties go the positive way).
  std::vector<std::int32_t> min_offsets(NodeId from, NodeId to) const;
  /// One dimension of min_offsets(), allocation-free (flat coordinate
  /// table, no nested vector hop).
  std::int32_t min_offset(NodeId from, NodeId to, std::int32_t dim) const {
    const std::size_t dims = radix_.size();
    return wrap_offset(coord_flat_.at(to * dims + dim) -
                           coord_flat_.at(from * dims + dim),
                       dim);
  }
  /// min_offset() from a raw coordinate difference along `dim` (for
  /// callers holding both coord_row()s).
  std::int32_t wrap_offset(std::int32_t delta, std::int32_t dim) const {
    if (torus_) {
      const std::int32_t r = radix_[dim];
      // Normalize into (-r/2, r/2]; ties (|delta| == r/2) go positive.
      if (delta > r / 2) delta -= r;
      else if (delta < -(r - 1) / 2) delta += r;
    }
    return delta;
  }

  /// Minimal hop distance.
  std::int32_t distance(NodeId from, NodeId to) const;

  /// Ports that strictly reduce distance to `to` (empty iff from == to).
  std::vector<PortId> minimal_ports(NodeId from, NodeId to) const;

  /// True if traversing `port` out of `node` crosses the torus wraparound
  /// ("dateline") of that dimension; always false on a mesh. Used for
  /// deadlock-free VC-class assignment in torus DOR.
  bool crosses_dateline(NodeId node, PortId port) const;

  /// Dense id of the unidirectional channel leaving `node` through `port`,
  /// in [0, num_nodes * num_ports). Valid even at mesh boundaries (such
  /// channels simply never carry traffic).
  std::int32_t channel_index(NodeId node, PortId port) const noexcept {
    return node * num_ports() + port;
  }
  std::int32_t num_channels() const noexcept {
    return num_nodes_ * num_ports();
  }

 private:
  template <typename T>
  static std::span<const T> row_of(const std::vector<T>& flat, NodeId node,
                                   std::int32_t width) {
    const std::size_t begin = static_cast<std::size_t>(node) * width;
    if (node < 0 || begin + width > flat.size()) {
      throw std::out_of_range("KAryNCube: node out of range");
    }
    return std::span<const T>(flat).subspan(begin, width);
  }

  std::vector<std::int32_t> radix_;
  bool torus_;
  std::int32_t num_nodes_;
  std::vector<std::int32_t> coord_flat_;  // node-major coordinates
  std::vector<NodeId> neighbors_;  // precomputed, indexed by channel_index
};

}  // namespace wavesim::topo
