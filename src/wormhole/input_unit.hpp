// Per-virtual-channel input state of a wormhole router (paper Fig. 1:
// "Input queues (virtual channels)").
#pragma once

#include <vector>

#include "routing/routing.hpp"
#include "wormhole/flit.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::wh {

/// Lifecycle of one input VC:
///   kIdle      -- empty or waiting for a head flit to reach the front
///   kRouting   -- head at front, candidates computed, awaiting VC alloc
///   kActive    -- output VC held; flits stream through switch allocation
enum class VcState : std::uint8_t { kIdle, kRouting, kActive };

/// Fixed-capacity flit ring over `capacity` slots of a flit array it does
/// not own (the fabric's flit arena: every VC of the network shares one
/// allocation). Steady-state operation never allocates.
class InputVc {
 public:
  /// A ring over the `capacity` slots at `slots`. The slots need not hold
  /// constructed flits: push() copies a flit in before anything reads it.
  InputVc(Flit* slots, std::int32_t capacity);

  InputVc(InputVc&&) noexcept = default;
  InputVc& operator=(InputVc&&) noexcept = default;
  InputVc(const InputVc&) = delete;
  InputVc& operator=(const InputVc&) = delete;

  std::int32_t capacity() const noexcept { return capacity_; }
  std::int32_t occupancy() const noexcept { return size_; }
  bool full() const noexcept { return size_ >= capacity_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Enqueue an arriving flit. Caller must have honored credits; overflow
  /// is a simulator bug and throws.
  void push(const Flit& flit);

  const Flit& front() const;
  Flit pop();

  VcState state() const noexcept { return state_; }
  void start_routing(std::vector<route::RouteCandidate> candidates);
  /// Allocation-free variant: copies `count` candidates into the reused
  /// internal storage.
  void start_routing(const route::RouteCandidate* candidates,
                     std::size_t count);
  const std::vector<route::RouteCandidate>& candidates() const noexcept {
    return candidates_;
  }
  /// Grant an output VC; transitions kRouting -> kActive.
  void activate(PortId out_port, VcId out_vc);
  /// Tail left; back to kIdle.
  void release();

  PortId out_port() const noexcept { return out_port_; }
  VcId out_vc() const noexcept { return out_vc_; }

  /// Serialize the logical buffer content and pipeline state
  /// (snapshot/restore). The ring is normalized to head_ = 0 on restore;
  /// the backing slots are structural and untouched.
  void snap(snap::Archive& ar);

 private:
  Flit* slots_;
  std::int32_t capacity_;
  std::int32_t head_ = 0;
  std::int32_t size_ = 0;
  VcState state_ = VcState::kIdle;
  std::vector<route::RouteCandidate> candidates_;
  PortId out_port_ = kInvalidPort;
  VcId out_vc_ = kInvalidVc;
};

}  // namespace wavesim::wh
