// FaultPlane: the per-run owner of dynamic fault state.
//
// Holds the expanded fault timeline (schedule.hpp), the distance-vector
// reachability layer (distvec.hpp), and the activity window that lets the
// healthy-network fast path skip all fault work. The Network constructs
// one only when the config declares a dynamic fault source
// (FaultConfig::dynamic()), calls begin_cycle() first thing in its
// sequential prologue, and applies the returned link transitions to the
// PCS planes (killing probes and circuits that cross a dead link).
//
// Activity window: a fault event at cycle T keeps the plane active until
// T + timeout + 2 * advert_period -- long enough for triggered updates to
// propagate, stale routes to time out, and the resulting withdrawals to
// settle. While active, the DV layer ticks timeouts and sends periodic
// advertisements; once dormant (window passed, no adverts in flight, no
// pending updates) the plane costs one comparison per cycle. See
// docs/FAULTS.md.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/distvec.hpp"
#include "fault/schedule.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "topology/topology.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::fault {

/// One link transition the Network must apply this cycle, in canonical
/// (positive-port) direction.
struct LinkChange {
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
  bool down = true;
};

class FaultPlane {
 public:
  struct Counters {
    std::uint64_t links_failed = 0;
    std::uint64_t links_restored = 0;
  };

  FaultPlane(const sim::SimConfig& config, const topo::KAryNCube& topology,
             sim::Rng rng);

  /// Apply due timeline events (idempotence-filtered) and advance the DV
  /// layer one cycle. Returns this cycle's link transitions for the
  /// Network to mirror into the PCS register planes. Runs in the
  /// sequential prologue only.
  std::vector<LinkChange> begin_cycle(Cycle now);

  bool link_alive(NodeId node, PortId port) const {
    return dv_.link_alive(node, port);
  }
  bool reachable(NodeId src, NodeId dest) const {
    return dv_.reachable(src, dest);
  }
  std::int32_t metric(NodeId src, NodeId dest) const {
    return dv_.metric(src, dest);
  }
  std::int32_t infinity() const noexcept { return dv_.infinity(); }

  /// No fault work pending right now: the activity window has passed and
  /// the DV layer is settled. Future timeline events do NOT make the
  /// plane non-dormant (see exhausted()).
  bool dormant() const noexcept { return !active_ && dv_.idle(); }
  /// True once every scheduled event has been applied.
  bool exhausted() const noexcept { return next_ >= timeline_.size(); }

  /// Routes withdrawn during the current cycle's begin_cycle(), for
  /// kRouteWithdrawn event emission.
  const std::vector<std::pair<NodeId, NodeId>>& withdrawals() const noexcept {
    return dv_.withdrawals();
  }

  const Counters& counters() const noexcept { return counters_; }
  const DistanceVector& dv() const noexcept { return dv_; }
  const std::vector<sim::FaultEvent>& timeline() const noexcept {
    return timeline_;
  }

  /// Serialize the DV layer, timeline cursor, and activity window
  /// (snapshot/restore). The timeline itself is a deterministic expansion
  /// of the config (same seed-forked RNG on construction), so only the
  /// cursor round-trips.
  void snap(snap::Archive& ar);

 private:
  Cycle hold_cycles() const noexcept {
    return config_.dv.advert_period *
           static_cast<Cycle>(config_.dv.timeout_periods + 2);
  }
  void wake(Cycle now);

  sim::FaultConfig config_;  // [snap: skip] config, fixed at construction
  DistanceVector dv_;
  /// Sorted by (at, node, port, kind). [snap: skip] expanded
  /// deterministically from config + seed at construction; the snapped
  /// cursor next_ carries the consumed prefix.
  std::vector<sim::FaultEvent> timeline_;
  std::size_t next_ = 0;
  Cycle active_until_ = 0;
  bool active_ = false;
  Counters counters_;
};

}  // namespace wavesim::fault
