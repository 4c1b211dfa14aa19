// Per-cycle physical-link bandwidth sharing between the wormhole data VCs
// and the PCS control VCs that live on the same S0 physical channel
// (paper section 2: each physical channel is split into k + w virtual
// channels). The control plane steps first each cycle and claims the links
// it uses; the wormhole switch allocator then skips claimed links.
#pragma once

#include <vector>

#include "sim/types.hpp"
#include "topology/topology.hpp"

namespace wavesim::wh {

class LinkGate {
 public:
  virtual ~LinkGate() = default;
  /// Claim one flit-time on the link leaving `node` through `port` this
  /// cycle. Returns false if the link is already spoken for.
  virtual bool try_acquire(NodeId node, PortId port) = 0;
};

/// Default gate: every link carries one flit per cycle, no sharing.
class ExclusiveLinkGate final : public LinkGate {
 public:
  explicit ExclusiveLinkGate(const topo::KAryNCube& topology)
      : used_(topology.num_channels(), 0), topology_(&topology) {}

  /// Call at the start of every cycle.
  void reset() noexcept { std::fill(used_.begin(), used_.end(), 0); }

  bool try_acquire(NodeId node, PortId port) override {
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
