// Network-level wormhole plane: owns one Router per node plus the flit and
// credit links between them. This is both the S0 plane of the wave
// router and the standalone wormhole baseline (k = 0).
//
// Router state is node-major structure-of-arrays, sized once at
// construction with one allocation per array: the flit arena, the
// input-VC records, the output-VC records and the slot words. Node n's
// slice of each is a fixed-size block at n times the per-router size,
// and Router n addresses only its own slices, so a shard owning nodes
// [begin, end) owns exactly the contiguous range of each array between
// their slices.
//
// Transport is per-node: each node has a credit inbox ring and a flit
// inbox ring ordered by due cycle, fed by the sequential commit phase. A
// per-node
// activity byte records whether the node has any work at all — buffered or
// arriving flits, non-idle VCs, or pending NI injections — so the step
// sweep skips idle nodes with a single byte load instead of running their
// pipeline stages.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "sim/inbox_ring.hpp"
#include "wormhole/router.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::wh {

struct FabricParams {
  RouterParams router;
  /// Cycles a flit spends between leaving one router's switch and entering
  /// the next router's buffer (wire + downstream pipeline front-end).
  Cycle link_latency = 2;
};

/// A credit returning to the upstream router's output VC.
struct Credit {
  NodeId node;
  PortId out_port;
  VcId vc;
};

/// A flit in flight on a physical link, addressed to the downstream
/// router's input buffer.
struct LinkFlit {
  NodeId dest_node;
  PortId in_port;
  VcId vc;
  Flit flit;
};

/// A flit that left the fabric at `node`'s ejection port this cycle.
struct EjectedFlit {
  NodeId node;
  Flit flit;
};

/// Inbox-ring entries: a credit / flit plus the cycle it reaches its
/// destination node.
struct TimedCredit {
  Cycle due;
  Credit credit;
};
struct TimedFlit {
  Cycle due;
  LinkFlit flit;
};

/// Bits of the per-node activity byte (see node_busy()).
inline constexpr std::uint8_t kNodeBusyRouter = 1;  ///< router not quiet
inline constexpr std::uint8_t kNodeBusyInbox = 2;   ///< inbox ring nonempty
inline constexpr std::uint8_t kNodeBusyNi = 4;      ///< NI has injections

/// Per-shard outbox for one cycle's node-local work. Every cross-node
/// effect of stepping nodes [begin, end) is buffered here instead of
/// touching shared state; commit_cycle() drains outboxes in ascending
/// shard order, which — with shards covering contiguous ascending node
/// ranges — reproduces the exact push order of a sequential sweep.
struct ShardIo {
  std::vector<TimedCredit> credits;
  std::vector<TimedFlit> flits;
  std::vector<EjectedFlit> ejected;
  /// Per-node switch-move scratch, reused across nodes (cleared before
  /// each router's switch allocation; never read across nodes).
  std::vector<SwitchMove> moves;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t hops = 0;           ///< flits put on links this cycle
  std::uint64_t flit_arrivals = 0;  ///< flits taken off links this cycle
  bool activity = false;

  void clear() noexcept {
    credits.clear();
    flits.clear();
    ejected.clear();
    moves.clear();
    injected = 0;
    delivered = 0;
    hops = 0;
    flit_arrivals = 0;
    activity = false;
  }
};

class Fabric {
 public:
  /// `gate` may be nullptr, in which case the fabric owns an exclusive
  /// gate (pure wormhole network). The caller keeps ownership otherwise
  /// and must reset it each cycle before step().
  Fabric(const topo::KAryNCube& topology,
         const route::RoutingAlgorithm& routing, const FabricParams& params,
         LinkGate* gate = nullptr);

  const topo::KAryNCube& topology() const noexcept { return topology_; }
  std::int32_t num_vcs() const noexcept { return params_.router.num_vcs; }
  Cycle link_latency() const noexcept { return params_.link_latency; }
  Router& router(NodeId node) { return routers_.at(node); }
  const Router& router(NodeId node) const { return routers_.at(node); }

  /// Injection-side buffer space on (local port, vc) of `node`.
  bool can_inject(NodeId node, VcId vc) const;
  void inject(NodeId node, VcId vc, const Flit& flit);
  /// Shard-phase injection: identical to inject() but counts into the
  /// shard's outbox instead of the shared counter.
  void inject(NodeId node, VcId vc, const Flit& flit, ShardIo& io);

  /// Called once per ejected flit, in delivery order.
  using DeliveryHandler = std::function<void(NodeId node, const Flit& flit)>;
  void set_delivery_handler(DeliveryHandler handler) {
    delivery_ = std::move(handler);
  }

  /// Advance one cycle. When an external gate was supplied, the caller is
  /// responsible for resetting it and stepping higher-priority traffic
  /// (the PCS control plane) first.
  void step(Cycle now);

  // -- sharded stepping ----------------------------------------------------
  // step(now) is exactly begin_cycle + step_nodes over the full node range
  // + commit_cycle; an engine may instead call step_nodes concurrently on
  // disjoint node ranges. step_nodes touches only state owned by its nodes
  // (routers, inbox rings, the activity bytes, the per-source-node link
  // counters and gate channels), so concurrent calls on disjoint ranges
  // are race-free, and buffering all cross-node transport in ShardIo keeps
  // the outcome independent of shard and thread count.

  /// Sequential: reset the owned gate for the new cycle.
  void begin_cycle(Cycle now);
  /// Parallel-safe on disjoint ranges: for every node of [begin, end) with
  /// work, apply due inbox arrivals, then run switch allocation, VC
  /// allocation and route computation, buffering every cross-node effect
  /// into `io`. Nodes whose activity byte is zero are skipped unchanged.
  void step_nodes(Cycle now, NodeId begin, NodeId end, ShardIo& io);
  /// Sequential: absorb one shard's outbox. Must be called once per shard
  /// in ascending shard order; ejected flits are delivered to the handler
  /// here (in node order) when one is installed.
  void commit_cycle(Cycle now, const ShardIo& io);

  /// The per-node activity byte (kNodeBusy* bits); 0 = stepping the node
  /// would be a no-op.
  std::uint8_t node_busy(NodeId node) const { return node_busy_[node]; }
  bool ni_work(NodeId node) const {
    return (node_busy_[node] & kNodeBusyNi) != 0;
  }
  /// Record whether `node`'s interface has pending injections. Called by
  /// the owning shard (or sequential phases) only.
  void set_ni_work(NodeId node, bool work) {
    if (work) {
      node_busy_[node] |= kNodeBusyNi;
    } else {
      node_busy_[node] &= static_cast<std::uint8_t>(~kNodeBusyNi);
    }
  }
  /// Any node of [begin, end) with a nonzero activity byte? Tests eight
  /// bytes per load; an idle range costs (end - begin) / 8 compares.
  bool any_work(NodeId begin, NodeId end) const {
    const std::uint8_t* p = node_busy_.data() + begin;
    const std::uint8_t* const last = node_busy_.data() + end;
    for (; last - p >= 8; p += 8) {
      std::uint64_t word;
      std::memcpy(&word, p, sizeof word);
      if (word != 0) return true;
    }
    for (; p < last; ++p) {
      if (*p != 0) return true;
    }
    return false;
  }

  // -- statistics / invariants -------------------------------------------
  std::uint64_t flits_delivered() const noexcept { return flits_delivered_; }
  std::uint64_t flits_injected() const noexcept { return flits_injected_; }
  std::uint64_t link_flit_hops() const noexcept { return link_flit_hops_; }
  /// Flits that traversed the physical link leaving `node` through `port`.
  std::uint64_t link_flits(NodeId node, PortId port) const {
    return link_flits_.at(topology_.channel_index(node, port));
  }
  /// Highest per-link utilization (flits per cycle) over `elapsed` cycles.
  double max_link_utilization(Cycle elapsed) const;
  /// Flits currently inside routers or on links (conservation checks).
  std::int64_t flits_in_flight() const noexcept {
    return flits_on_links_ + flits_buffered_;
  }
  /// Cycle of the most recent flit movement anywhere in the plane
  /// (progress watchdog input).
  Cycle last_activity() const noexcept { return last_activity_; }

  /// Serialize routers, inbox rings, activity bytes, and the transport
  /// counters (snapshot/restore). The delivery handler, gate claims
  /// (reset every cycle), and scratch outbox are not state.
  void snap(snap::Archive& ar);

 private:
  /// Frees the flit arena (raw storage from ::operator new).
  struct RawFree {
    void operator()(Flit* p) const noexcept { ::operator delete(p); }
  };

  // Shard-safety tags (docs/ENGINE.md, enforced by wavelint --pass shard).
  const topo::KAryNCube& topology_;  // [shard: ro]
  FabricParams params_;  // [shard: ro] [snap: skip] config, fixed at construction
  /// Every input VC's ring buffer, [node][slot][vc_buffer_depth]. Raw
  /// storage: construction writes no flit, InputVc::push copies each in.
  /// [shard: owned] [snap: skip] structural backing store; the ring
  /// content is serialized per router through InputVc::snap.
  std::unique_ptr<Flit, RawFree> flits_;
  /// Input-VC records, [node][slot]. [shard: owned] [snap: skip]
  /// serialized per router through Router::snap.
  std::vector<InputVc> inputs_;
  /// Output-VC records, [node][slot]. [shard: owned] [snap: skip]
  /// serialized per router through Router::snap.
  std::vector<OutputVc> outputs_;
  /// Switch arbiter pointers and slot sets, [node][Router::slot_words].
  /// [shard: owned] [snap: skip] the pointers are serialized per router
  /// through Router::snap; the sets are rebuilt from the VC states.
  std::vector<std::uint64_t> slot_words_;
  std::vector<Router> routers_;  ///< views of the arrays above [shard: owned]
  /// [shard: seq] [snap: skip] claims are mid-step scratch, released
  /// at the quiesce seam (docs/ENGINE.md).
  std::unique_ptr<ExclusiveLinkGate> owned_gate_;
  /// Claims are owner-partitioned over source channels. [shard: owned]
  LinkGate* gate_;  // [snap: skip] wiring; claim state is mid-step scratch
  bool gate_is_owned_;  // [shard: ro] [snap: skip] structural, fixed at construction
  /// Per-node arrival rings. Pushed by the sequential commit, popped by
  /// the owning shard. [shard: owned]
  std::vector<sim::InboxRing<TimedCredit>> credit_in_;
  /// [shard: owned]
  std::vector<sim::InboxRing<TimedFlit>> flit_in_;
  /// Activity byte per node; owner-written in the shard phase (router and
  /// inbox bits recomputed after stepping, NI bit via set_ni_work), and
  /// commit-written for arrival destinations. [shard: owned]
  std::vector<std::uint8_t> node_busy_;
  /// For the sequential step(). [shard: seq] [snap: skip] mid-step
  /// scratch, drained at the quiesce seam.
  ShardIo scratch_io_;
  DeliveryHandler delivery_;  // [shard: seq] [snap: skip] callback wiring
  std::uint64_t flits_delivered_ = 0;  // [shard: seq]
  std::uint64_t flits_injected_ = 0;   // [shard: seq]
  std::uint64_t link_flit_hops_ = 0;   // [shard: seq]
  /// Per unidirectional channel, owner-partitioned: node n only counts
  /// channels leaving n. [shard: owned]
  std::vector<std::uint64_t> link_flits_;
  /// Flits inside inbox rings / router buffers; maintained at commit from
  /// the outbox counters, so flits_in_flight() is O(1). [shard: seq]
  std::int64_t flits_on_links_ = 0;
  std::int64_t flits_buffered_ = 0;  // [shard: seq]
  Cycle last_activity_ = 0;          // [shard: seq]
};

}  // namespace wavesim::wh
