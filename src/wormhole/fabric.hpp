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
// Transport is receiver-drained: a shard stages the credits and flits it
// sends in cycle t in its own outbox (ShardIo::out), the commit files
// that outbox whole under cycle t, and at the start of cycle t + 1
// (credits) or t + link_latency (flits) each shard applies the entries
// addressed to its own nodes straight to their routers. A per-node
// activity byte records whether the node has any work at all — buffered
// flits, non-idle VCs, or pending NI injections — so the step sweep skips
// idle nodes with a single byte load instead of running their pipeline
// stages.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

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

/// Bits of the per-node activity byte (see node_busy()).
inline constexpr std::uint8_t kNodeBusyRouter = 1;  ///< router not quiet
/// Credits or flits on their way to the node. Set only in the bytes a
/// snapshot records (Fabric::snap), never in the live ones.
inline constexpr std::uint8_t kNodeBusyInbox = 2;
inline constexpr std::uint8_t kNodeBusyNi = 4;  ///< NI has injections

/// The transport one shard sends in one cycle, in staging (= node, then
/// switch-move) order: credits due the next cycle, flits due
/// link_latency cycles later.
struct Staged {
  std::vector<Credit> credits;
  std::vector<LinkFlit> flits;
};

/// Per-shard outbox for one cycle's node-local work. Every cross-node
/// effect of stepping nodes [begin, end) is buffered here instead of
/// touching shared state. commit_cycle() files `out` under its cycle
/// without copying; shards commit in ascending order, and with shards
/// covering contiguous ascending node ranges the receivers then see the
/// exact arrival order of a sequential sweep.
struct ShardIo {
  Staged out;
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
    out.credits.clear();
    out.flits.clear();
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
  /// Throws std::invalid_argument unless 1 <= link_latency <=
  /// sim::kMaxPipelineLatency and the router has >= 1 VC of depth >= 1.
  Fabric(const topo::KAryNCube& topology,
         const route::RoutingAlgorithm& routing, const FabricParams& params);

  const topo::KAryNCube& topology() const noexcept { return topology_; }
  std::int32_t num_vcs() const noexcept { return params_.router.num_vcs; }
  Cycle link_latency() const noexcept { return params_.link_latency; }
  Router& router(NodeId node) { return routers_.at(node); }
  const Router& router(NodeId node) const { return routers_.at(node); }
  /// The link gate, lent to the PCS control plane, whose flits claim
  /// links before the switch allocators do.
  LinkGate& gate() noexcept { return gate_; }

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

  /// Advance one cycle (standalone wormhole plane).
  void step(Cycle now);

  // -- sharded stepping ----------------------------------------------------
  // step(now) is exactly begin_cycle + step_nodes over the full node range
  // + commit_cycle; an engine may instead call step_nodes concurrently on
  // disjoint node ranges. step_nodes writes only state owned by its nodes
  // (routers, the activity bytes, the per-source-node link counters and
  // gate channels) and its own ShardIo, and reads the outboxes of earlier
  // cycles, which nothing writes during the shard phase; so concurrent
  // calls on disjoint ranges are race-free and the outcome is independent
  // of shard and thread count.

  /// Sequential, first thing in the cycle (before the control plane
  /// claims links): reset the gate and retire the outbox slot the cycle
  /// will stage into.
  void begin_cycle(Cycle now);
  /// Parallel-safe on disjoint ranges: apply the credits staged at
  /// now - 1 and the flits staged at now - link_latency that are addressed
  /// to [begin, end), in commit order, then, for every node of the range
  /// with work, run switch allocation, VC allocation and route
  /// computation, buffering every cross-node effect into `io`. Nodes whose
  /// activity byte is zero are skipped unchanged.
  void step_nodes(Cycle now, NodeId begin, NodeId end, ShardIo& io);
  /// Sequential: absorb one shard's outbox. Must be called once per shard
  /// in ascending shard order; the outbox moves into the fabric (io.out
  /// keeps only spent storage), the counters are summed, and ejected
  /// flits are delivered to the handler here (in node order) when one is
  /// installed.
  void commit_cycle(Cycle now, ShardIo& io);

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
  /// Does stepping [begin, end) this cycle have any effect? True when a
  /// node of the range has a nonzero activity byte (tested eight bytes
  /// per load; an idle range costs (end - begin) / 8 compares) or when
  /// credits or flits arrive this cycle anywhere.
  bool any_work(NodeId begin, NodeId end) const {
    if (arrivals_due_) return true;
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
  /// Flits sent onto links and not yet received.
  std::int64_t flits_on_links() const noexcept { return flits_on_links_; }
  /// Credits sent but not yet returned, between whole steps of cycles
  /// now - 1 and now.
  std::size_t credits_in_transit(Cycle now) const;
  /// Cycle of the most recent flit movement anywhere in the plane
  /// (progress watchdog input).
  Cycle last_activity() const noexcept { return last_activity_; }

  /// Serialize routers, the credits and flits in transit, activity bytes
  /// and the transport counters (snapshot/restore), between whole steps
  /// of cycle `now` - 1 and `now`. Transit is laid out per destination
  /// node, credits then flits, each due-ordered with its due cycle, and
  /// the activity bytes carry kNodeBusyInbox for nodes with transit
  /// pending. The delivery handler, gate claims (reset every cycle), and
  /// scratch outbox are not state.
  void snap(snap::Archive& ar, Cycle now);

 private:
  /// Frees the flit arena (raw storage from ::operator new).
  struct RawFree {
    void operator()(Flit* p) const noexcept { ::operator delete(p); }
  };

  // Shard-safety tags (docs/ENGINE.md, enforced by wavelint --pass shard).
  const topo::KAryNCube& topology_;  // [shard: ro]
  FabricParams params_;  // [shard: ro] config, fixed at construction
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
  /// Claims are owner-partitioned over source channels. [shard: owned]
  /// [snap: skip] claims are mid-step scratch, released at the quiesce
  /// seam (docs/ENGINE.md).
  LinkGate gate_;
  /// Everything staged in one cycle: the outboxes of the shards that
  /// committed it, in commit order; the first `used` sources are live.
  struct Transit {
    std::vector<Staged> sources;
    std::size_t used = 0;
  };
  /// Outboxes by staging cycle, slot `cycle & transit_mask_`: written
  /// by the commit of cycle t, read by receivers in t + 1 .. t +
  /// link_latency, retired by begin_cycle(t + size). [shard: outbox]
  std::vector<Transit> transit_;
  /// Slot count - 1, a power of two minus one, >= link_latency.
  /// [shard: ro]
  Cycle transit_mask_;
  /// Credits or flits arrive this cycle (set by begin_cycle).
  /// [shard: seq] [snap: skip] derived from transit_ every cycle.
  bool arrivals_due_ = false;
  /// Activity byte per node; owner-written in the shard phase (router bit
  /// recomputed after stepping and set by arrivals, NI bit via
  /// set_ni_work). [shard: owned]
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
  /// Flits on links / inside router buffers; maintained at commit from
  /// the outbox counters, so flits_in_flight() is O(1). [shard: seq]
  std::int64_t flits_on_links_ = 0;
  std::int64_t flits_buffered_ = 0;  // [shard: seq]
  Cycle last_activity_ = 0;          // [shard: seq]
};

}  // namespace wavesim::wh
