// Per-cycle physical-link bandwidth sharing between the wormhole data VCs
// and the PCS control VCs that live on the same S0 physical channel
// (paper section 2: each physical channel is split into k + w virtual
// channels). Every link carries one flit per cycle. The fabric owns the
// gate and resets it at the start of each cycle; the control plane steps
// first and claims the links it uses, and the wormhole switch allocator
// then skips claimed links.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/types.hpp"
#include "topology/topology.hpp"

namespace wavesim::wh {

class LinkGate {
 public:
  explicit LinkGate(const topo::KAryNCube& topology)
      : used_(topology.num_channels(), 0), topology_(&topology) {}

  /// Release every claim (start of a cycle).
  void reset() noexcept { std::fill(used_.begin(), used_.end(), 0); }

  /// Claim one flit-time on the link leaving `node` through `port` this
  /// cycle. Returns false if the link is already spoken for.
  bool try_acquire(NodeId node, PortId port) {
    auto& slot = used_[topology_->channel_index(node, port)];
    if (slot != 0) return false;
    slot = 1;
    return true;
  }

  bool in_use(NodeId node, PortId port) const {
    return used_[topology_->channel_index(node, port)] != 0;
  }

 private:
  /// Per-channel claims, owner-partitioned: a shard only acquires
  /// channels leaving the nodes it owns. [shard: owned]
  std::vector<std::uint8_t> used_;
  const topo::KAryNCube* topology_;  // [shard: ro]
};

}  // namespace wavesim::wh
