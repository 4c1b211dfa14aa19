#include "wormhole/fabric.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "snap/archive.hpp"

namespace wavesim::wh {
namespace {

// wavesim.snap.v1 lays the credits and flits in transit out per
// destination node: a u64 entry count, then the entries in arrival order,
// each led by its due cycle.
struct TimedCredit {
  Cycle due = 0;
  Credit credit{};
};
struct TimedFlit {
  Cycle due = 0;
  LinkFlit flit{};
};

NodeId destination(const TimedCredit& tc) { return tc.credit.node; }
NodeId destination(const TimedFlit& tf) { return tf.flit.dest_node; }

void snap_timed(snap::Archive& ar, TimedCredit& tc) {
  ar.pod(tc.due);
  ar.pod(tc.credit.node);
  ar.pod(tc.credit.out_port);
  ar.pod(tc.credit.vc);
}

void snap_timed(snap::Archive& ar, TimedFlit& tf) {
  ar.pod(tf.due);
  ar.pod(tf.flit.dest_node);
  ar.pod(tf.flit.in_port);
  ar.pod(tf.flit.vc);
  snap_flit(ar, tf.flit.flit);
}

/// Write `entries` (arrival order) grouped by destination node, and mark
/// each destination's activity byte with kNodeBusyInbox.
template <typename T>
void write_per_node(snap::Archive& ar, std::vector<T>& entries, NodeId nodes,
                    std::vector<std::uint8_t>& busy) {
  std::vector<std::size_t> first(static_cast<std::size_t>(nodes) + 1, 0);
  for (const T& e : entries) ++first[destination(e) + 1];
  for (NodeId n = 0; n < nodes; ++n) first[n + 1] += first[n];
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  std::vector<T*> order(entries.size());
  for (T& e : entries) {
    order[next[destination(e)]++] = &e;
    busy[destination(e)] |= kNodeBusyInbox;
  }
  for (NodeId n = 0; n < nodes; ++n) {
    std::uint64_t count = first[n + 1] - first[n];
    ar.pod(count);
    for (std::size_t i = first[n]; i < first[n + 1]; ++i) {
      snap_timed(ar, *order[i]);
    }
  }
}

/// Read one node's entries, handing each to `take`.
template <typename T, typename Take>
void read_per_node(snap::Archive& ar, Take&& take) {
  std::uint64_t count = 0;
  ar.pod(count);
  ar.check_len(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    T entry;
    snap_timed(ar, entry);
    take(entry);
  }
}

}  // namespace

Fabric::Fabric(const topo::KAryNCube& topology,
               const route::RoutingAlgorithm& routing,
               const FabricParams& params)
    : topology_(topology), params_(params), gate_(topology),
      node_busy_(topology.num_nodes(), 0),
      link_flits_(topology.num_channels(), 0) {
  if (params.link_latency < 1 ||
      params.link_latency > static_cast<Cycle>(sim::kMaxPipelineLatency)) {
    throw std::invalid_argument("Fabric: link_latency must be in [1, " +
                                std::to_string(sim::kMaxPipelineLatency) +
                                "]");
  }
  // A slot is retired by begin_cycle(t + slots) and last read in cycle
  // t + link_latency, so slots > link_latency. A power of two keeps
  // `cycle & mask` consistent across the wrap of now - link_latency in
  // the first cycles, where it names a slot not yet written.
  transit_.resize(std::bit_ceil(params.link_latency + 1));
  transit_mask_ = transit_.size() - 1;
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

void Fabric::begin_cycle(Cycle now) {
  gate_.reset();
  // This cycle stages into the slot last staged at now - slots, whose
  // flits were drained by now - slots + link_latency < now.
  transit_[now & transit_mask_].used = 0;
  const Transit& credits = transit_[(now - 1) & transit_mask_];
  const Transit& flits = transit_[(now - params_.link_latency) & transit_mask_];
  arrivals_due_ = false;
  for (std::size_t s = 0; s < credits.used; ++s) {
    arrivals_due_ |= !credits.sources[s].credits.empty();
  }
  for (std::size_t s = 0; s < flits.used; ++s) {
    arrivals_due_ |= !flits.sources[s].flits.empty();
  }
}

void Fabric::step_nodes(Cycle now, NodeId begin, NodeId end, ShardIo& io) {
  // 1. Apply this cycle's arrivals addressed to the range: credits first,
  //    then flits, each in commit order, so every node sees exactly the
  //    arrival sequence of a sequential sweep. A credit never wakes a
  //    quiet router (it has no flit to send); a flit does.
  if (arrivals_due_) {
    const Transit& credits = transit_[(now - 1) & transit_mask_];
    for (std::size_t s = 0; s < credits.used; ++s) {
      for (const Credit& c : credits.sources[s].credits) {
        if (c.node < begin || c.node >= end) continue;
        routers_[c.node].credit_return(c.out_port, c.vc);
      }
    }
    const Transit& flits =
        transit_[(now - params_.link_latency) & transit_mask_];
    for (std::size_t s = 0; s < flits.used; ++s) {
      for (const LinkFlit& lf : flits.sources[s].flits) {
        if (lf.dest_node < begin || lf.dest_node >= end) continue;
        routers_[lf.dest_node].receive(lf.in_port, lf.vc, lf.flit);
        node_busy_[lf.dest_node] |= kNodeBusyRouter;
        ++io.flit_arrivals;
        io.activity = true;
      }
    }
  }

  for (NodeId n = begin; n < end; ++n) {
    const std::uint8_t busy = node_busy_[n];
    if (busy == 0) continue;  // state-identical skip: see Router::quiet()
    Router& r = routers_[n];

    // 2. Switch allocation + traversal; buffer the moves. Gate claims and
    //    the per-channel counters are owner-partitioned (node n only
    //    touches channels leaving n), so no two shards write the same
    //    location. Stages 2-4 are router-local, so fusing them into one
    //    per-node pass is equivalent to the sequential whole-network
    //    phases.
    io.moves.clear();
    r.switch_allocate(gate_, io.moves);
    for (const SwitchMove& move : io.moves) {
      io.activity = true;
      // Credit for the slot freed on the input buffer goes to the upstream
      // router (none needed for injection: the NI polls occupancy).
      if (move.in_port != r.local_port()) {
        const NodeId upstream = topology_.neighbor(n, move.in_port);
        if (upstream == kInvalidNode) {
          throw std::logic_error("Fabric: flit arrived over a missing link");
        }
        io.out.credits.push_back(Credit{
            upstream, topo::KAryNCube::opposite(move.in_port), move.in_vc});
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
        io.out.flits.push_back(
            LinkFlit{next, topo::KAryNCube::opposite(move.out_port),
                     move.out_vc, move.flit});
      }
    }

    // 3. VC allocation, then 4. route computation (so a new head needs one
    //    cycle in each stage before its first switch traversal).
    r.vc_allocate();
    r.route_compute();

    // Recompute the activity byte (the NI bit is the interface's own).
    node_busy_[n] = static_cast<std::uint8_t>(
        (busy & kNodeBusyNi) | (r.quiet() ? 0 : kNodeBusyRouter));
  }
}

void Fabric::commit_cycle(Cycle now, ShardIo& io) {
  if (!io.out.credits.empty() || !io.out.flits.empty()) {
    Transit& staged = transit_[now & transit_mask_];
    if (staged.used == staged.sources.size()) staged.sources.emplace_back();
    std::swap(staged.sources[staged.used++], io.out);
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

std::size_t Fabric::credits_in_transit(Cycle now) const {
  const Transit& sent = transit_[(now - 1) & transit_mask_];
  std::size_t count = 0;
  for (std::size_t s = 0; s < sent.used; ++s) {
    count += sent.sources[s].credits.size();
  }
  return count;
}

double Fabric::max_link_utilization(Cycle elapsed) const {
  if (elapsed == 0) return 0.0;
  std::uint64_t peak = 0;
  for (auto count : link_flits_) peak = std::max(peak, count);
  return static_cast<double>(peak) / static_cast<double>(elapsed);
}

void Fabric::snap(snap::Archive& ar, Cycle now) {
  for (Router& r : routers_) r.snap(ar);
  const Cycle latency = params_.link_latency;
  const NodeId nodes = topology_.num_nodes();
  if (ar.writing()) {
    std::vector<TimedCredit> credits;
    const Transit& sent = transit_[(now - 1) & transit_mask_];
    for (std::size_t s = 0; s < sent.used; ++s) {
      for (const Credit& c : sent.sources[s].credits) {
        credits.push_back(TimedCredit{now, c});
      }
    }
    std::vector<TimedFlit> flits;
    for (Cycle due = now; due < now + latency; ++due) {
      const Transit& t = transit_[(due - latency) & transit_mask_];
      for (std::size_t s = 0; s < t.used; ++s) {
        for (const LinkFlit& lf : t.sources[s].flits) {
          flits.push_back(TimedFlit{due, lf});
        }
      }
    }
    std::vector<std::uint8_t> busy = node_busy_;
    write_per_node(ar, credits, nodes, busy);
    write_per_node(ar, flits, nodes, busy);
    ar.vec_pod(busy);
  } else {
    for (Transit& t : transit_) t.used = 0;
    // Every restored entry of a staging cycle goes to one source, in node
    // order: receivers filter by node, so each node keeps its own order.
    const auto restored = [&](Cycle staged) -> Staged& {
      Transit& t = transit_[staged & transit_mask_];
      if (t.sources.empty()) t.sources.emplace_back();
      if (t.used == 0) {
        t.sources[0].credits.clear();
        t.sources[0].flits.clear();
        t.used = 1;
      }
      return t.sources[0];
    };
    const std::int32_t ports = topology_.num_ports();
    const std::int32_t vcs = params_.router.num_vcs;
    const auto check = [&](bool ok) {
      if (!ok) throw snap::ArchiveError("Fabric: corrupt transit entry");
    };
    for (NodeId n = 0; n < nodes; ++n) {
      read_per_node<TimedCredit>(ar, [&](const TimedCredit& tc) {
        const Credit& c = tc.credit;
        check(tc.due == now && now >= 1 && c.node == n && c.out_port >= 0 &&
              c.out_port < ports && c.vc >= 0 && c.vc < vcs);
        restored(now - 1).credits.push_back(c);
      });
    }
    for (NodeId n = 0; n < nodes; ++n) {
      read_per_node<TimedFlit>(ar, [&](const TimedFlit& tf) {
        const LinkFlit& lf = tf.flit;
        check(tf.due >= now && tf.due < now + latency && tf.due >= latency &&
              lf.dest_node == n && lf.in_port >= 0 && lf.in_port < ports &&
              lf.vc >= 0 && lf.vc < vcs);
        restored(tf.due - latency).flits.push_back(lf);
      });
    }
    ar.vec_pod(node_busy_);
    check(node_busy_.size() == static_cast<std::size_t>(nodes));
    for (std::uint8_t& b : node_busy_) {
      b &= static_cast<std::uint8_t>(~kNodeBusyInbox);
    }
  }
  ar.pod(flits_delivered_);
  ar.pod(flits_injected_);
  ar.pod(link_flit_hops_);
  ar.vec_pod(link_flits_);
  ar.pod(flits_on_links_);
  ar.pod(flits_buffered_);
  ar.pod(last_activity_);
}

}  // namespace wavesim::wh
