// History Store (paper Fig. 3): distributed per-node registers recording,
// for each in-flight probe, which output links it has already searched, so
// a backtracking probe never re-searches the same path. Livelock freedom
// (Theorems 3/4) follows because every advance consumes one (node, port)
// entry and the network is finite.
//
// The simulator centralizes the registers in one pool of dense rows, one
// row per in-flight probe: row r holds a searched-port bitmask for every
// node. The registers stay keyed by (probe, node), as in the paper, so a
// probe that re-enters a node through another input channel still sees
// everything it searched there before. A probe acquires a slot when it
// launches and releases it when it ends; a released row is zeroed and
// recycled by the next probe. Queries on the probe's hot path are one
// indexed load, with no hashing and, once the pool has grown to the peak
// number of concurrent probes, no allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::pcs {

class HistoryStore {
 public:
  using Slot = std::int32_t;
  static constexpr Slot kNoSlot = -1;

  explicit HistoryStore(std::int32_t num_nodes);

  /// Take an all-zero row for `probe`.
  Slot acquire(ProbeId probe);
  /// The probe ended: zero its row and return the slot to the pool.
  void release(Slot slot);

  /// Mark `out_port` at `node` as searched by the row's probe.
  void mark(Slot slot, NodeId node, PortId out_port);

  bool searched(Slot slot, NodeId node, PortId out_port) const {
    return (mask(slot, node) >> out_port) & 1u;
  }

  /// Bitmask of searched ports at `node` (bit p = port p).
  std::uint32_t mask(Slot slot, NodeId node) const {
    return masks_.at(index(slot, node));
  }

  /// Number of (node, port) entries recorded in the row.
  std::int64_t entries(Slot slot) const;

  /// Slots currently held by probes.
  std::size_t probes_tracked() const noexcept {
    return owner_.size() - free_.size();
  }

  /// After a restore: the slot holding `probe`'s restored row, or a fresh
  /// row when the snapshot had none for it (the probe had marked nothing).
  Slot adopt(ProbeId probe);

  /// Serialize in the wavesim.snap.v1 layout: the rows of probes with at
  /// least one mark, in ascending probe id, each cut after its highest
  /// marked node. Reading rebuilds the pool with one slot per stored row;
  /// the owning probes then claim their slots through adopt().
  void snap(snap::Archive& ar);

 private:
  std::size_t index(Slot slot, NodeId node) const {
    return static_cast<std::size_t>(slot) * static_cast<std::size_t>(num_nodes_) +
           static_cast<std::size_t>(node);
  }

  std::int32_t num_nodes_;  ///< row width, fixed at construction
  /// Row-major searched-port masks, num_nodes_ per slot.
  std::vector<std::uint32_t> masks_;
  /// Per slot: one past the highest marked node (0 = nothing marked).
  std::vector<std::int32_t> extent_;
  /// Per slot: the probe holding it (kInvalidProbe when free).
  std::vector<ProbeId> owner_;
  std::vector<Slot> free_;
};

}  // namespace wavesim::pcs
