#include "wormhole/fabric.hpp"

#include <algorithm>
#include <stdexcept>

#include "snap/archive.hpp"

namespace wavesim::wh {

Fabric::Fabric(const topo::KAryNCube& topology,
               const route::RoutingAlgorithm& routing,
               const FabricParams& params, LinkGate* gate)
    : topology_(topology), params_(params), gate_(gate),
      gate_is_owned_(gate == nullptr),
      credit_in_(topology.num_nodes()),
      flit_in_(topology.num_nodes()),
      node_busy_(topology.num_nodes(), 0),
      link_flits_(topology.num_channels(), 0) {
  if (params.link_latency < 1) {
    throw std::invalid_argument("Fabric: link_latency must be >= 1");
  }
  if (gate_is_owned_) {
    owned_gate_ = std::make_unique<ExclusiveLinkGate>(topology);
    gate_ = owned_gate_.get();
  }
  const RouterParams& rp = params.router;
  if (rp.num_vcs < 1 || rp.vc_buffer_depth < 1) {
    throw std::invalid_argument("Fabric: bad router params");
  }
  const std::size_t nodes = static_cast<std::size_t>(topology.num_nodes());
  const std::size_t slots =
      static_cast<std::size_t>(Router::slots(topology.num_ports(), rp));
  const std::size_t depth = static_cast<std::size_t>(rp.vc_buffer_depth);
  const std::size_t words =
      static_cast<std::size_t>(Router::slot_words(topology.num_ports(), rp));
  flits_.reset(
      static_cast<Flit*>(::operator new(nodes * slots * depth * sizeof(Flit))));
  inputs_.reserve(nodes * slots);
  for (std::size_t i = 0; i < nodes * slots; ++i) {
    inputs_.emplace_back(flits_.get() + i * depth, rp.vc_buffer_depth);
  }
  // Network outputs start with a full window of downstream credits; the
  // ejection port never blocks (delivery buffers are the NI's
  // responsibility and are modeled as always-accepting).
  outputs_.assign(nodes * slots, OutputVc{false, kInvalidPort, kInvalidVc,
                                          rp.vc_buffer_depth});
  // Every arbiter pointer starts at 0 and every slot set empty.
  slot_words_.assign(nodes * words, 0);
  routers_.reserve(nodes);
  for (NodeId n = 0; n < topology.num_nodes(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    routers_.emplace_back(topology, routing, n, rp, &inputs_[i * slots],
                          &outputs_[i * slots], &slot_words_[i * words]);
  }
}

bool Fabric::can_inject(NodeId node, VcId vc) const {
  const Router& r = router(node);
  return r.can_accept(r.local_port(), vc);
}

void Fabric::inject(NodeId node, VcId vc, const Flit& flit) {
  Router& r = router(node);
  r.receive(r.local_port(), vc, flit);
  node_busy_[node] |= kNodeBusyRouter;
  ++flits_injected_;
  ++flits_buffered_;
}

void Fabric::inject(NodeId node, VcId vc, const Flit& flit, ShardIo& io) {
  Router& r = router(node);
  r.receive(r.local_port(), vc, flit);
  node_busy_[node] |= kNodeBusyRouter;
  ++io.injected;
}

void Fabric::begin_cycle(Cycle /*now*/) {
  if (gate_is_owned_) owned_gate_->reset();
}

void Fabric::step_nodes(Cycle now, NodeId begin, NodeId end, ShardIo& io) {
  for (NodeId n = begin; n < end; ++n) {
    const std::uint8_t busy = node_busy_[n];
    if (busy == 0) continue;  // state-identical skip: see Router::quiet()
    Router& r = routers_[n];

    // 1. Apply this cycle's arrivals — credits first, then flits, each in
    //    ring (= sequential push) order, exactly like a sequential drain
    //    of the old global delay lines restricted to this node.
    auto& credits_in = credit_in_[n];
    while (!credits_in.empty() && credits_in.front().due <= now) {
      const Credit& c = credits_in.front().credit;
      r.credit_return(c.out_port, c.vc);
      credits_in.pop_front();
    }
    auto& flits_in = flit_in_[n];
    while (!flits_in.empty() && flits_in.front().due <= now) {
      const LinkFlit& lf = flits_in.front().flit;
      r.receive(lf.in_port, lf.vc, lf.flit);
      ++io.flit_arrivals;
      io.activity = true;
      flits_in.pop_front();
    }

    // 2. Switch allocation + traversal; buffer the moves. Gate claims and
    //    the per-channel counters are owner-partitioned (node n only
    //    touches channels leaving n), so no two shards write the same
    //    location. Stages 2-4 are router-local, so fusing them into one
    //    per-node pass is equivalent to the sequential whole-network
    //    phases.
    io.moves.clear();
    r.switch_allocate(*gate_, io.moves);
    for (const SwitchMove& move : io.moves) {
      io.activity = true;
      // Credit for the slot freed on the input buffer goes to the upstream
      // router (none needed for injection: the NI polls occupancy).
      if (move.in_port != r.local_port()) {
        const NodeId upstream = topology_.neighbor(n, move.in_port);
        if (upstream == kInvalidNode) {
          throw std::logic_error("Fabric: flit arrived over a missing link");
        }
        io.credits.push_back(TimedCredit{
            now + 1, Credit{upstream, topo::KAryNCube::opposite(move.in_port),
                            move.in_vc}});
      }
      if (move.eject) {
        ++io.delivered;
        io.ejected.push_back(EjectedFlit{n, move.flit});
      } else {
        const NodeId next = topology_.neighbor(n, move.out_port);
        if (next == kInvalidNode) {
          throw std::logic_error("Fabric: routed onto a missing link");
        }
        ++io.hops;
        ++link_flits_[topology_.channel_index(n, move.out_port)];
        io.flits.push_back(TimedFlit{
            now + params_.link_latency,
            LinkFlit{next, topo::KAryNCube::opposite(move.out_port),
                     move.out_vc, move.flit}});
      }
    }

    // 3. VC allocation, then 4. route computation (so a new head needs one
    //    cycle in each stage before its first switch traversal).
    r.vc_allocate();
    r.route_compute();

    // Recompute the activity byte (the NI bit is the interface's own).
    node_busy_[n] =
        static_cast<std::uint8_t>((busy & kNodeBusyNi) |
                                  (r.quiet() ? 0 : kNodeBusyRouter) |
                                  (credits_in.empty() && flits_in.empty()
                                       ? 0
                                       : kNodeBusyInbox));
  }
}

void Fabric::commit_cycle(Cycle now, const ShardIo& io) {
  for (const TimedCredit& tc : io.credits) {
    credit_in_[tc.credit.node].push_back(tc);
    node_busy_[tc.credit.node] |= kNodeBusyInbox;
  }
  for (const TimedFlit& tf : io.flits) {
    flit_in_[tf.flit.dest_node].push_back(tf);
    node_busy_[tf.flit.dest_node] |= kNodeBusyInbox;
  }
  if (delivery_) {
    for (const EjectedFlit& e : io.ejected) delivery_(e.node, e.flit);
  }
  flits_delivered_ += io.delivered;
  flits_injected_ += io.injected;
  link_flit_hops_ += io.hops;
  flits_on_links_ += static_cast<std::int64_t>(io.hops) -
                     static_cast<std::int64_t>(io.flit_arrivals);
  flits_buffered_ += static_cast<std::int64_t>(io.injected) +
                     static_cast<std::int64_t>(io.flit_arrivals) -
                     static_cast<std::int64_t>(io.delivered) -
                     static_cast<std::int64_t>(io.hops);
  if (io.activity) last_activity_ = now;
}

void Fabric::step(Cycle now) {
  begin_cycle(now);
  scratch_io_.clear();
  step_nodes(now, 0, topology_.num_nodes(), scratch_io_);
  commit_cycle(now, scratch_io_);
}

double Fabric::max_link_utilization(Cycle elapsed) const {
  if (elapsed == 0) return 0.0;
  std::uint64_t peak = 0;
  for (auto count : link_flits_) peak = std::max(peak, count);
  return static_cast<double>(peak) / static_cast<double>(elapsed);
}

void Fabric::snap(snap::Archive& ar) {
  for (Router& r : routers_) r.snap(ar);
  const auto snap_timed_credit = [](snap::Archive& a, TimedCredit& tc) {
    a.pod(tc.due);
    a.pod(tc.credit.node);
    a.pod(tc.credit.out_port);
    a.pod(tc.credit.vc);
  };
  const auto snap_timed_flit = [](snap::Archive& a, TimedFlit& tf) {
    a.pod(tf.due);
    a.pod(tf.flit.dest_node);
    a.pod(tf.flit.in_port);
    a.pod(tf.flit.vc);
    snap_flit(a, tf.flit.flit);
  };
  for (auto& ring : credit_in_) ring.snap(ar, snap_timed_credit);
  for (auto& ring : flit_in_) ring.snap(ar, snap_timed_flit);
  ar.vec_pod(node_busy_);
  ar.pod(flits_delivered_);
  ar.pod(flits_injected_);
  ar.pod(link_flit_hops_);
  ar.vec_pod(link_flits_);
  ar.pod(flits_on_links_);
  ar.pod(flits_buffered_);
  ar.pod(last_activity_);
}

}  // namespace wavesim::wh
