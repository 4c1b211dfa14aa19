// One wormhole router (paper Fig. 1): per-input-VC buffers, route
// computation, VC allocation, and switch allocation with credit-based flow
// control. The router is topology-agnostic beyond its own port count; the
// Fabric moves flits and credits between routers.
//
// Layout: a router owns none of its VC storage. Its input VCs, output
// VCs and slot words are one node's slice of the Fabric's node-major
// arrays (see fabric.hpp): within a slice, VCs are indexed
// [port * num_vcs + vc] ("slots"), and every input buffer is a fixed ring
// inside the fabric's flit arena. A cycle of pipeline work therefore
// touches a handful of contiguous slices and performs no heap allocation
// (route candidates for a new head are the one per-packet exception,
// computed by the routing algorithm).
//
// Each pipeline stage visits only the slots that want it, read from three
// derived slot sets (bit sets of ceil(slots / 64) words, any VC count):
//   request[out_port]  kActive, routed to out_port, non-empty -- the
//                      switch allocator's requesters for that output;
//                      set by receive() into an empty active VC and by
//                      VC allocation (activate), cleared when pop() empties
//                      the VC or a tail releases it;
//   routing            kRouting -- VC allocation's requesters; set by
//                      route computation (start_routing), cleared by
//                      activate;
//   pending            kIdle with a head buffered -- route computation's
//                      work list; set by receive() into an empty idle VC
//                      and by a tail release that leaves the next head
//                      behind, cleared by start_routing.
// The sets and the switch arbiter pointers share the router's slice of
// the fabric's slot words. Grants walk set bits in the same rotated order the
// full scan used, so the grant sequence does not depend on them; snap()
// rebuilds them from the VC states on restore. Live-state counters let
// each stage exit immediately when it has no work, and quiet() lets the
// fabric skip the router entirely.
#pragma once

#include <vector>

#include "routing/routing.hpp"
#include "wormhole/allocator.hpp"
#include "wormhole/flit.hpp"
#include "wormhole/input_unit.hpp"
#include "wormhole/link_gate.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::wh {

struct RouterParams {
  std::int32_t num_vcs = 2;          ///< w, wormhole data VCs per channel
  std::int32_t vc_buffer_depth = 4;  ///< flits per VC buffer
};

/// Output-VC record: which input VC holds the output VC, and the credits
/// left in the downstream buffer.
struct OutputVc {
  bool allocated = false;
  PortId holder_port = kInvalidPort;
  VcId holder_vc = kInvalidVc;
  std::int32_t credits = 0;  ///< ignored for the ejection port
};

/// A flit crossing the switch this cycle, as decided by switch allocation.
struct SwitchMove {
  PortId in_port = kInvalidPort;
  VcId in_vc = kInvalidVc;
  PortId out_port = kInvalidPort;
  VcId out_vc = kInvalidVc;
  Flit flit;
  bool eject = false;  ///< out_port is the local ejection port
};

class Router {
 public:
  /// Records per router in each slice: (network ports + 1) * num_vcs
  /// input VCs, as many output VCs, and slot_words() slot words.
  static std::int32_t slots(std::int32_t network_ports,
                            const RouterParams& params) noexcept {
    return (network_ports + 1) * params.num_vcs;
  }
  static std::int32_t slot_words(std::int32_t network_ports,
                                 const RouterParams& params) noexcept;

  /// The router of `node` over its slices of the owning Fabric's arrays:
  /// `inputs` and `outputs` hold slots() records, initialized by the
  /// fabric; `slot_words` holds slot_words() zeroed words.
  Router(const topo::KAryNCube& topology,
         const route::RoutingAlgorithm& routing, NodeId node,
         const RouterParams& params, InputVc* inputs, OutputVc* outputs,
         std::uint64_t* slot_words);
  // A copy would alias the slices but not the live-state counters.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;
  Router(Router&&) noexcept = default;

  NodeId node() const noexcept { return node_; }
  std::int32_t num_vcs() const noexcept { return params_.num_vcs; }
  /// Network ports [0, num_network_ports); local port == num_network_ports
  /// (injection on the input side, ejection on the output side).
  std::int32_t num_network_ports() const noexcept { return network_ports_; }
  PortId local_port() const noexcept { return network_ports_; }

  const InputVc& input_vc(PortId port, VcId vc) const;
  bool can_accept(PortId port, VcId vc) const;
  void receive(PortId port, VcId vc, const Flit& flit);

  /// Downstream buffer freed a slot for (out_port, out_vc).
  void credit_return(PortId out_port, VcId out_vc);
  std::int32_t credits(PortId out_port, VcId out_vc) const;
  bool output_allocated(PortId out_port, VcId out_vc) const;

  /// Pipeline stages, called once per cycle by the Fabric in the order
  /// switch_allocate -> vc_allocate -> route_compute (a head therefore
  /// spends >= 2 cycles of pipeline per hop, plus link latency).
  ///
  /// switch_allocate grants at most one flit per output port, consuming
  /// network-link bandwidth through `gate` (shared with the PCS control
  /// plane); the moves are applied internally (buffers popped, credits
  /// decremented, tail releases) and appended to `moves` for the Fabric
  /// to transport.
  void switch_allocate(LinkGate& gate, std::vector<SwitchMove>& moves);
  /// Convenience wrapper returning the moves by value (tests).
  std::vector<SwitchMove> switch_allocate(LinkGate& gate);
  void vc_allocate();
  void route_compute();

  /// No buffered flits and every input VC idle: a cycle of pipeline work
  /// is a no-op and the fabric may skip this router without changing any
  /// state (round-robin pointers only move on grants, and an all-idle
  /// router grants nothing).
  bool quiet() const noexcept {
    return occupancy_ == 0 && nonidle_vcs_ == 0;
  }

  /// Sum of buffered flits across all input VCs (watchdog / conservation).
  std::int64_t buffered_flits() const noexcept { return occupancy_; }

  /// Serialize buffered flits, pipeline state, arbiter pointers, and the
  /// live-state counters (snapshot/restore). Structural layout (slices,
  /// port/VC counts) comes from construction and is not serialized; the
  /// slot sets are rebuilt from the restored VC states.
  void snap(snap::Archive& ar);

 private:
  std::int32_t flat(PortId port, VcId vc) const noexcept {
    return port * params_.num_vcs + vc;
  }
  void check_port_vc(PortId port, VcId vc) const;
  InputVc& input_vc_mut(PortId port, VcId vc);
  OutputVc& output_vc(PortId port, VcId vc);
  const OutputVc& output_vc(PortId port, VcId vc) const;
  bool output_exists(PortId port) const;
  bool try_allocate_vc(std::int32_t slot);

  /// Output port p's record in slot_words_: [arbiter pointer][request[p]].
  std::uint64_t* switch_record(PortId port) noexcept {
    return slot_words_ + port * (words_ + 1);
  }
  std::uint64_t* request_set(PortId port) noexcept {
    return switch_record(port) + 1;
  }
  std::uint64_t* routing_set() noexcept {
    return switch_record(network_ports_ + 1);
  }
  std::uint64_t* pending_set() noexcept { return routing_set() + words_; }
  /// Recompute the slot sets from the VC states (restore) and check the
  /// restored live-state counters against them.
  void rebuild_slot_sets();

  // Shard-safety tags (docs/ENGINE.md): a router is stepped only by the
  // shard owning its node.
  const topo::KAryNCube& topology_;         // [shard: ro]
  const route::RoutingAlgorithm& routing_;  // [shard: ro]
  NodeId node_;  // [shard: ro] [snap: skip] identity, fixed at construction
  // Fixed at construction; snap() reads both to lay out and check the
  // restored slot sets. [shard: ro]
  RouterParams params_;
  std::int32_t network_ports_;  ///< derived from topology [shard: ro]
  std::int32_t slots_;          ///< slots(network_ports_, params_) [shard: ro]
  /// 64-bit words per slot set: mask_words(slots_). [shard: ro]
  std::int32_t words_;

  /// This node's slice of Fabric::inputs_: [flat(port, vc)], port in
  /// [0, network_ports_] (last = injection). [shard: owned]
  InputVc* inputs_;
  /// This node's slice of Fabric::outputs_: [flat(port, vc)], port in
  /// [0, network_ports_] (last = ejection). [shard: owned]
  OutputVc* outputs_;
  /// This node's slice of Fabric::slot_words_: one record per output port
  /// (see switch_record()), then the routing and pending sets. The
  /// pointers are serialized; the sets are derived state, rebuilt by
  /// snap() on restore. [shard: owned]
  std::uint64_t* slot_words_;
  RoundRobinArbiter va_arbiter_;  ///< over all input VCs [shard: owned]

  // Live-state counters (maintained by the mutators above; see quiet()).
  std::int32_t occupancy_ = 0;      ///< buffered flits [shard: owned]
  std::int32_t nonidle_vcs_ = 0;    ///< kRouting or kActive [shard: owned]
  std::int32_t active_vcs_ = 0;     ///< inputs in kActive [shard: owned]
  std::int32_t routing_vcs_ = 0;    ///< inputs in kRouting [shard: owned]
  std::int32_t route_pending_ = 0;  ///< idle, head buffered [shard: owned]

  /// Reused candidate storage for local-delivery heads (no allocation).
  /// [shard: owned] [snap: skip] dead between calls
  std::vector<route::RouteCandidate> cand_scratch_;
};

}  // namespace wavesim::wh
