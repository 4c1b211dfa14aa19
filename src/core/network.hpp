// The wave-switching network: an array of wave routers (paper Fig. 2).
//
// Each router is the composition of an S0 wormhole router (wh::Fabric), a
// slice of the PCS control plane (k control VCs sharing S0 link bandwidth)
// and k wave-pipelined circuit switches (the data plane). This class wires
// the planes together, injects static faults, owns the per-node interfaces
// and advances everything in the per-cycle order that gives control
// traffic link priority.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/control_plane.hpp"
#include "core/data_plane.hpp"
#include "core/instrumentation.hpp"
#include "core/message.hpp"
#include "core/node_interface.hpp"
#include "fault/plane.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"
#include "wormhole/fabric.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::core {

/// Everything one shard accumulates while stepping its node range: the
/// fabric outbox plus instrumentation events staged for the ordered flush.
struct ShardContext {
  wh::ShardIo io;
  EventBuffer events;
  /// Messages fully reassembled by this shard this cycle (summed into the
  /// network's delivered counter at commit).
  std::uint64_t messages_delivered = 0;

  void clear() noexcept {
    io.clear();
    events.clear();
    messages_delivered = 0;
  }
};

class Network {
 public:
  explicit Network(const sim::SimConfig& config);

  const sim::SimConfig& config() const noexcept { return config_; }
  const topo::KAryNCube& topology() const noexcept { return topology_; }
  Cycle now() const noexcept { return now_; }

  /// Offer a message; protocol handling starts this cycle.
  MessageId send(NodeId src, NodeId dest, std::int32_t length);

  /// What a scheduled entry does at its cycle: send(), or a CARP call
  /// whose buffer size (establish) is the entry's `length`.
  enum class Call : std::uint8_t { kSend, kEstablish, kRelease };

  /// Queue a message (or a CARP call) for cycle `at` (>= now,
  /// non-decreasing across calls). Equivalent to calling send() at the
  /// top of cycle `at`: step_begin() makes every due call, in schedule
  /// order, before anything else runs. Pre-scheduling lets a workload
  /// generator draw a whole span of traffic up front.
  void schedule_send(NodeId src, NodeId dest, std::int32_t length, Cycle at,
                     Call call = Call::kSend);

  /// CARP primitives (valid on any circuit-capable configuration).
  /// `max_message_flits` sizes the circuit's end-point buffers (0 = use
  /// the speculative CLRP size).
  bool establish_circuit(NodeId src, NodeId dest,
                         std::int32_t max_message_flits = 0);
  void release_circuit(NodeId src, NodeId dest);

  void step();
  void run(Cycle cycles);

  // -- sharded stepping (engine seam) --------------------------------------
  // step() is exactly step_begin + step_shard over the full node range +
  // step_commit. A parallel engine runs step_begin, then step_shard
  // concurrently on disjoint contiguous node ranges (one ShardContext
  // each), then step_commit with the contexts in ascending node order.
  // Because every cross-node effect is buffered in the context and merged
  // in node order, the result is bit-identical to the sequential step for
  // any shard/thread count (see docs/ENGINE.md).

  /// Sequential prologue: fault events, due sends, fabric begin_cycle
  /// (gate reset), control/data planes, event dispatch, PCS retry
  /// pumping. All sequential id allocation (probes, circuits) happens
  /// here.
  void step_begin();
  /// Parallel-safe on disjoint node ranges: wormhole injection pumping,
  /// arrivals from earlier cycles, router pipelines and message
  /// reassembly for nodes [begin, end).
  void step_shard(NodeId begin, NodeId end, ShardContext& ctx);
  /// Sequential epilogue: file shard outboxes and sum their counters in
  /// the given order (must be ascending node ranges), replay staged
  /// events, advance the clock.
  void step_commit(std::span<ShardContext* const> contexts);

  // -- component access ----------------------------------------------------
  const MessageLog& messages() const noexcept { return log_; }
  wh::Fabric& fabric() noexcept { return fabric_; }
  const wh::Fabric& fabric() const noexcept { return fabric_; }
  ControlPlane* control_plane() noexcept { return control_.get(); }
  const ControlPlane* control_plane() const noexcept { return control_.get(); }
  DataPlane* data_plane() noexcept { return data_.get(); }
  const DataPlane* data_plane() const noexcept { return data_.get(); }
  const CircuitTable& circuits() const noexcept { return circuits_; }
  NodeInterface& interface(NodeId node) { return interfaces_.at(node); }
  const NodeInterface& interface(NodeId node) const {
    return interfaces_.at(node);
  }

  /// Every offered message delivered, all planes drained, the fault
  /// schedule exhausted and the distance-vector plane dormant.
  bool quiescent() const;
  /// quiescent() without the fault clause: all traffic is delivered and
  /// the protocol planes are drained (the network may still be waiting on
  /// scheduled fault events or DV convergence).
  bool traffic_quiescent() const;
  std::uint64_t messages_delivered() const;

  /// Number of circuit data channels statically marked faulty.
  std::int64_t faulty_channels() const noexcept { return faulty_channels_; }

  /// Dynamic fault plane (nullptr without a fault schedule).
  const fault::FaultPlane* fault_plane() const noexcept { return fault_.get(); }

  /// Install an event sink (timelines, debugging, trace capture).
  void set_event_sink(Instrumentation::Sink sink) {
    instrumentation_.set_sink(std::move(sink));
  }

  /// Serialize all mutable simulation state (snapshot/restore). Must be
  /// called between whole steps (the engine quiesce seam,
  /// core/step_engine.hpp): mid-step scratch, gate claims, and staged
  /// shard contexts are never part of a snapshot. On restore the caller
  /// constructs a Network from the identical config first; structural
  /// state (topology, routing, plane wiring, fault timeline) comes from
  /// that construction and only mutable state is overwritten.
  void snap(snap::Archive& ar);

 private:
  /// A call queued by schedule_send, waiting for its cycle.
  struct ScheduledSend {
    Cycle at = 0;
    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;
    std::int32_t length = 0;
    Call call = Call::kSend;
  };

  void dispatch_events();
  void inject_faults();
  /// Apply due dynamic fault events and advance the distance-vector plane
  /// (first thing in the sequential prologue).
  void step_faults();
  MessageId dispatch_send(NodeId src, NodeId dest, std::int32_t length);
  /// Make every scheduled call due this cycle, in schedule order.
  void offer_due_sends();

  // Shard-safety tags (docs/ENGINE.md, enforced by wavelint --pass shard):
  // [shard: seq] mutated only by the sequential phases, [shard: owned]
  // per-node / owner-partitioned and writable from step_shard for owned
  // nodes, [shard: ro] immutable after construction.
  sim::SimConfig config_;     // [shard: ro] [snap: skip] is the config section
  topo::KAryNCube topology_;  // [shard: ro] [snap: skip] derived from config
  // [snap: skip] stateless strategy object, derived from config.
  std::unique_ptr<route::RoutingAlgorithm> routing_;  // [shard: ro]
  CircuitTable circuits_;                  // [shard: seq]
  std::unique_ptr<ControlPlane> control_;  // [shard: seq]
  std::unique_ptr<DataPlane> data_;        // [shard: seq]
  /// Dynamic fault schedule + distance-vector reachability; null without a
  /// schedule. Advanced only in step_begin. [shard: seq]
  std::unique_ptr<fault::FaultPlane> fault_;
  wh::Fabric fabric_;                      // [shard: owned]
  /// [snap: skip] observer wiring (metrics/trace sinks), not sim state.
  Instrumentation instrumentation_;        // [shard: seq]
  /// Reassembly counters are per message, and a message ejects at exactly
  /// one node, hence one shard. [shard: owned]
  MessageLog log_;
  /// Every interface's wormhole injection streams, [node][vc]; interface
  /// n holds a span of its row. [shard: owned] [snap: skip] serialized
  /// per node through NodeInterface::snap.
  std::vector<NodeInterface::Stream> streams_;
  /// By value, [node]. [shard: owned]
  std::vector<NodeInterface> interfaces_;
  sim::Rng rng_;  // [shard: seq]
  /// For the sequential step(). [shard: seq] [snap: skip] mid-step
  /// scratch, dead at the quiesce seam.
  ShardContext scratch_ctx_;
  /// Pending scheduled sends, non-decreasing `at`; a head index makes the
  /// per-cycle drain O(due sends). [shard: seq]
  std::vector<ScheduledSend> sends_;
  std::size_t sends_head_ = 0;  // [shard: seq]
  Cycle now_ = 0;                     // [shard: seq]
  std::int64_t faulty_channels_ = 0;  // [shard: seq]
  /// Running count of delivered messages (wormhole reassembly counts are
  /// merged from shard contexts at commit; circuit deliveries count at
  /// event dispatch), so quiescence checks are O(1). [shard: seq]
  std::uint64_t delivered_msgs_ = 0;
};

}  // namespace wavesim::core
