// Network interface of one node: owns the Circuit Cache, runs the CLRP /
// CARP protocol decisions for outgoing messages, streams wormhole flits
// into S0 injection buffers, and reacts to control/data-plane events.
#pragma once

#include <map>
#include <optional>
#include <span>

#include "core/circuit_cache.hpp"
#include "core/control_plane.hpp"
#include "core/instrumentation.hpp"
#include "core/data_plane.hpp"
#include "core/message.hpp"
#include "core/protocols.hpp"
#include "fault/plane.hpp"
#include "sim/config.hpp"
#include "sim/ring.hpp"
#include "wormhole/fabric.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::core {

class NodeInterface {
 public:
  /// Wormhole injection: pending packets and one active stream per VC.
  /// Without segmentation a packet is the whole message; with it, packets
  /// of one message may stream on several VCs concurrently.
  struct Packet {
    MessageId msg = kInvalidMessage;
    NodeId dest = kInvalidNode;
    std::int32_t start = 0;       ///< message-relative seq of first flit
    std::int32_t count = 0;       ///< flits in this packet
    std::int32_t msg_length = 0;
    Cycle created = 0;
  };
  struct Stream {
    Packet pkt;
    std::int32_t sent = 0;
    bool active() const noexcept { return pkt.msg != kInvalidMessage; }
  };

  /// `fault` is the network's fault plane (nullptr when the run has no
  /// dynamic fault schedule); the interface only reads reachability.
  /// `streams` is this node's slice of the network's stream array, one
  /// idle Stream per wormhole VC.
  NodeInterface(NodeId node, const sim::SimConfig& config,
                const topo::KAryNCube& topology, MessageLog& log,
                CircuitTable& circuits, wh::Fabric& fabric,
                ControlPlane* control, DataPlane* data,
                const fault::FaultPlane* fault,
                const Instrumentation& instrumentation, sim::Rng rng,
                std::span<Stream> streams);

  NodeId node() const noexcept { return node_; }

  /// Accept a message created in the log (src == this node).
  void submit(MessageId id, Cycle now);

  /// CARP: ask for a circuit toward `dest`. Returns false when the cache
  /// cannot host the entry (every slot busy). Idempotent while a circuit
  /// or attempt for `dest` exists. `max_message_flits` sizes the circuit's
  /// end-point buffers ("buffer size is determined by the longest message
  /// of the set"); 0 falls back to the CLRP speculative size.
  bool establish_circuit(NodeId dest, Cycle now,
                         std::int32_t max_message_flits = 0);
  /// CARP: tear the circuit down once queued traffic has drained.
  void release_circuit(NodeId dest, Cycle now);

  // -- event handlers (invoked by Network's dispatch) ----------------------
  void on_probe_result(const ProbeResult& result, Cycle now);
  void on_release_demand(const ReleaseDemand& demand, Cycle now);
  void on_transfer_done(const TransferDone& done, Cycle now);
  /// A dynamic link failure killed this node's established circuit toward
  /// `dest`: invalidate the cache entry, resend the aborted in-flight
  /// message (if any) over the wormhole plane and resubmit the queue.
  void on_circuit_killed(CircuitId circuit, NodeId dest, MessageId aborted,
                         Cycle now);

  /// Per-cycle work, split into a sequential and a parallel-safe half.
  /// pump_retries touches shared protocol state (circuit table, control
  /// plane, sequential id allocation) and must run in the sequential part
  /// of the cycle; pump_streams touches only this node's router and
  /// counts injections into the shard outbox, so an engine may run it
  /// concurrently with other nodes' pump_streams.
  void pump_retries(Cycle now);
  void pump_streams(Cycle now, wh::ShardIo& io);

  const CircuitCache& cache() const noexcept { return cache_; }

  struct Stats {
    std::uint64_t circuit_messages = 0;
    std::uint64_t wormhole_messages = 0;
    std::uint64_t fallback_messages = 0;
    std::uint64_t setups_started = 0;
    std::uint64_t setups_succeeded = 0;
    std::uint64_t setups_failed = 0;
    std::uint64_t release_demands_honored = 0;
    std::uint64_t release_demands_discarded = 0;
    std::uint64_t buffer_reallocs = 0;
    std::uint64_t packets_sent = 0;
    std::uint64_t setup_retries = 0;  ///< PCS-only backoff retries
    std::uint64_t circuits_invalidated = 0;   ///< killed by link failures
    std::uint64_t unreachable_fallbacks = 0;  ///< DV said: no circuit path
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Serialize the circuit cache, per-destination protocol state (setup
  /// sequencers included), pending wormhole packets/streams, and stats
  /// (snapshot/restore).
  void snap(snap::Archive& ar);

 private:
  struct DestState {
    sim::Ring<MessageId> queue;  ///< waiting for setup outcome / circuit slot
    std::optional<SetupSequencer> setup;
    bool release_urgent = false;   ///< CLRP demand: stop after current message
    bool release_when_drained = false;  ///< CARP: release once queue empties
    /// CARP buffer request for the circuit being set up (0 = unspecified).
    std::int32_t carp_buffer_flits = 0;
    /// PCS-only mode: a failed setup retries after a backoff instead of
    /// falling back to wormhole switching.
    bool needs_retry = false;
    Cycle retry_at = 0;
  };

  DestState& dest_state(NodeId dest) { return dests_[dest]; }
  bool circuits_enabled() const noexcept { return control_ != nullptr; }
  /// Paper section 3.1: stagger InitialSwitch across neighbors, e.g. node
  /// (x, y) first tries switch (x + y) mod k.
  std::int32_t initial_switch() const;

  /// Launch the current attempt of ds.setup for dest (circuit exists).
  void launch_attempt(NodeId dest, DestState& ds, Cycle now);
  /// Begin a CLRP/CARP setup toward dest. Returns false when the cache
  /// cannot take the entry.
  bool start_setup(NodeId dest, SetupSequencer::Mode mode, Cycle now);
  /// Attempt exhausted or cache entry gone: flush queue to wormhole.
  void abandon_setup(NodeId dest, DestState& ds, Cycle now);
  /// Start the next queued message if the circuit is idle.
  void try_start_transfer(NodeId dest, Cycle now);
  /// Invalidate the entry and send the teardown flit (circuit idle).
  void teardown_now(NodeId dest, CacheEntry& entry, Cycle now);
  /// Resubmit messages (used when a circuit goes away under a queue).
  void requeue(sim::Ring<MessageId> msgs, Cycle now);
  void send_wormhole(MessageId id, MessageMode mode, Cycle now);

  // Shard-safety tags (docs/ENGINE.md, enforced by wavelint --pass shard).
  NodeId node_;       // [shard: ro] [snap: skip] identity, fixed at construction
  const sim::SimConfig& config_;     // [shard: ro]
  const topo::KAryNCube& topology_;  // [shard: ro]
  MessageLog& log_;                  // [shard: seq]
  CircuitTable& circuits_;           // [shard: seq]
  /// pump_streams only injects into this node's own router. [shard: owned]
  wh::Fabric& fabric_;
  /// Null when k == 0 (pure wormhole network). [shard: seq]
  ControlPlane* control_;  // [snap: skip] wiring; plane snapped by Network
  DataPlane* data_;   // [shard: seq] [snap: skip] wiring; snapped by Network
  /// Null without a dynamic fault schedule; reads only (the Network
  /// advances it in the sequential prologue). [shard: ro]
  const fault::FaultPlane* fault_;  // [snap: skip] wiring; snapped by Network
  const Instrumentation& instr_;  // [shard: ro]
  CircuitCache cache_;            // [shard: seq]

  std::map<NodeId, DestState> dests_;  // [shard: seq]

  sim::Ring<Packet> wormhole_pending_;  // [shard: owned]
  /// This node's slice of the network's stream array, [vc]. [shard: owned]
  std::span<Stream> streams_;

  Stats stats_;  // [shard: seq]
};

}  // namespace wavesim::core
