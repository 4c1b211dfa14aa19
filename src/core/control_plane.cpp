#include "core/control_plane.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/log.hpp"
#include "snap/archive.hpp"

namespace wavesim::core {

namespace {
using topo::KAryNCube;
}  // namespace

ControlPlane::ControlPlane(const topo::KAryNCube& topology,
                           CircuitTable& circuits, wh::LinkGate& gate,
                           const ControlPlaneParams& params,
                           const Instrumentation* instrumentation)
    : topology_(topology), circuits_(circuits), gate_(gate), params_(params),
      instr_(instrumentation),
      registers_(topology.num_nodes(), topology.num_ports(),
                 params.num_switches),
      history_(topology.num_nodes()) {
  if (params.num_switches < 1 || params.max_misroutes < 0 ||
      params.hop_cycles < 1) {
    throw std::invalid_argument("ControlPlane: bad params");
  }
  if (topology.num_ports() > pcs::kMaxPorts) {
    throw std::invalid_argument("ControlPlane: too many ports per node");
  }
  link_masks_.reserve(static_cast<std::size_t>(topology.num_nodes()));
  for (NodeId n = 0; n < topology.num_nodes(); ++n) {
    link_masks_.push_back(pcs::link_mask(topology, n));
  }
}

void ControlPlane::mark_faulty(NodeId node, std::int32_t switch_index,
                               PortId port) {
  registers_.at(node, switch_index).mark_faulty(port);
  if (static_faulty_.empty()) {
    static_faulty_.assign(
        static_cast<std::size_t>(topology_.num_nodes()) *
            static_cast<std::size_t>(params_.num_switches) *
            static_cast<std::size_t>(topology_.num_ports()),
        0);
  }
  const std::size_t idx =
      (static_cast<std::size_t>(node) *
           static_cast<std::size_t>(params_.num_switches) +
       static_cast<std::size_t>(switch_index)) *
          static_cast<std::size_t>(topology_.num_ports()) +
      static_cast<std::size_t>(port);
  static_faulty_[idx] = 1;
}

bool ControlPlane::path_crosses(const CircuitRecord& rec, NodeId node,
                                PortId port, NodeId peer, PortId back) const {
  NodeId at = rec.src;
  for (PortId out : rec.path) {
    if ((at == node && out == port) || (at == peer && out == back)) {
      return true;
    }
    at = topology_.neighbor(at, out);
  }
  return false;
}

void ControlPlane::release_path(const CircuitRecord& rec) {
  NodeId at = rec.src;
  for (PortId out : rec.path) {
    pcs::SwitchRegisters& regs = registers_.at(at, rec.switch_index);
    switch (regs.status(out)) {
      case pcs::ChannelStatus::kReservedByProbe:
        // Only a probing circuit owns reservations on its own path (the
        // ack is still short of this hop). On a tearing-down circuit a
        // Reserved hop sits in the already-released prefix and belongs to
        // a *foreign* probe that re-acquired the channel: leave it alone
        // (if that probe also crosses the dead link, the probe sweep
        // above already unwound it).
        if (rec.state == CircuitState::kProbing) regs.release_reservation(out);
        break;
      case pcs::ChannelStatus::kBusyCircuit:
        if (regs.owning_circuit(out) == rec.id) regs.release_circuit(out);
        break;
      case pcs::ChannelStatus::kFree:
      case pcs::ChannelStatus::kFaulty:
        break;  // already released (teardown prefix / racing failure)
    }
    at = topology_.neighbor(at, out);
  }
}

void ControlPlane::drop_flits_of(CircuitId circuit) {
  for (TravelFlit& flit : flits_) {
    if (flit.done || flit.circuit != circuit) continue;
    if (flit.kind == pcs::ControlKind::kReleaseRequest) {
      ++stats_.release_requests_discarded;
    }
    flit.done = true;
  }
}

std::vector<KilledCircuit> ControlPlane::fail_link(NodeId node, PortId port) {
  const NodeId peer = topology_.neighbor(node, port);
  if (peer == kInvalidNode) {
    throw std::logic_error("fail_link: no link through that port");
  }
  const PortId back = KAryNCube::opposite(port);

  // 1. Kill every probe holding a reservation across the link: unwind its
  //    whole reserved path and report a failed attempt, which drives the
  //    source interface's normal retry-or-fallback machinery.
  std::vector<ProbeId> doomed;
  for (const ActiveProbe& ap : probes_) {
    for (const Hop& hop : ap.stack) {
      if ((hop.from == node && hop.out_port == port) ||
          (hop.from == peer && hop.out_port == back)) {
        doomed.push_back(ap.probe.id);
        break;
      }
    }
  }
  for (ProbeId id : doomed) {
    const auto it = std::lower_bound(
        probes_.begin(), probes_.end(), id,
        [](const ActiveProbe& ap, ProbeId want) { return ap.probe.id < want; });
    ActiveProbe& ap = *it;
    for (const Hop& hop : ap.stack) {
      registers_.at(hop.from, ap.probe.switch_index)
          .release_reservation(hop.out_port);
    }
    ap.rec->path.clear();
    ++stats_.probes_killed;
    fail_probe(ap);  // erases the probe
  }

  // 2. Kill every circuit whose path crosses the link. Probing circuits
  //    whose probe just died have an empty path and are skipped; probing
  //    circuits with an ack in flight get a failed ProbeResult (retry);
  //    tearing-down circuits complete abruptly; established circuits are
  //    reported to the Network for cache invalidation and recovery.
  std::vector<KilledCircuit> killed;
  for (CircuitId id : circuits_.active_ids()) {
    CircuitRecord& rec = circuits_.at(id);
    if (!path_crosses(rec, node, port, peer, back)) continue;
    release_path(rec);
    drop_flits_of(id);
    ++stats_.circuits_killed;
    switch (rec.state) {
      case CircuitState::kProbing:
        // The setup ack was in flight; the attempt failed after all.
        rec.path.clear();
        ++stats_.probes_failed;
        probe_results_.push_back(ProbeResult{kInvalidProbe, id, rec.src,
                                             /*success=*/false,
                                             rec.switch_index});
        break;
      case CircuitState::kEstablished:
        killed.push_back(KilledCircuit{id, rec.src, rec.dest});
        break;
      case CircuitState::kTearingDown:
        rec.state = CircuitState::kDead;
        ++stats_.teardowns_completed;
        circuits_.retire(id);
        break;
      case CircuitState::kDead:
        throw std::logic_error("fail_link: dead circuit still active");
    }
  }

  // 3. Only now are the link's channels guaranteed free: fence them off
  //    on every wave switch, in both directions.
  for (std::int32_t s = 0; s < params_.num_switches; ++s) {
    pcs::SwitchRegisters& here = registers_.at(node, s);
    if (here.status(port) != pcs::ChannelStatus::kFaulty) {
      here.mark_faulty(port);
    }
    pcs::SwitchRegisters& there = registers_.at(peer, s);
    if (there.status(back) != pcs::ChannelStatus::kFaulty) {
      there.mark_faulty(back);
    }
  }
  return killed;
}

void ControlPlane::restore_link(NodeId node, PortId port) {
  const NodeId peer = topology_.neighbor(node, port);
  if (peer == kInvalidNode) {
    throw std::logic_error("restore_link: no link through that port");
  }
  const PortId back = KAryNCube::opposite(port);
  const auto statically_faulty = [&](NodeId n, std::int32_t s, PortId p) {
    if (static_faulty_.empty()) return false;
    const std::size_t idx =
        (static_cast<std::size_t>(n) *
             static_cast<std::size_t>(params_.num_switches) +
         static_cast<std::size_t>(s)) *
            static_cast<std::size_t>(topology_.num_ports()) +
        static_cast<std::size_t>(p);
    return static_faulty_[idx] != 0;
  };
  for (std::int32_t s = 0; s < params_.num_switches; ++s) {
    if (!statically_faulty(node, s, port)) {
      registers_.at(node, s).clear_faulty(port);
    }
    if (!statically_faulty(peer, s, back)) {
      registers_.at(peer, s).clear_faulty(back);
    }
  }
}

ProbeId ControlPlane::launch_probe(CircuitId circuit, bool force) {
  CircuitRecord& rec = circuits_.at(circuit);
  if (rec.state != CircuitState::kProbing) {
    throw std::logic_error("launch_probe: circuit not in probing state");
  }
  ActiveProbe ap;
  ap.rec = &rec;
  ap.probe.id = next_probe_++;
  ap.probe.circuit = circuit;
  ap.probe.src = rec.src;
  ap.probe.dest = rec.dest;
  ap.probe.force = force;
  ap.probe.switch_index = rec.switch_index;
  ap.node = rec.src;
  ap.history = history_.acquire(ap.probe.id);
  // Each advance moves one hop closer or, using one of at most m
  // misroutes, at most one hop further, so a reserved path never exceeds
  // distance + 2m hops.
  const std::size_t max_hops = static_cast<std::size_t>(
      topology_.distance(rec.src, rec.dest) + 2 * params_.max_misroutes);
  ap.stack.reserve(max_hops);
  rec.path.reserve(max_hops);
  probes_.push_back(std::move(ap));  // ids are monotone: stays sorted
  ++stats_.probes_launched;
  return probes_.back().probe.id;
}

bool ControlPlane::probe_active(ProbeId probe) const {
  const auto it = std::lower_bound(
      probes_.begin(), probes_.end(), probe,
      [](const ActiveProbe& ap, ProbeId id) { return ap.probe.id < id; });
  return it != probes_.end() && it->probe.id == probe;
}

std::vector<ControlPlane::WaitingProbe> ControlPlane::waiting_probes() const {
  std::vector<WaitingProbe> out;
  for (const ActiveProbe& ap : probes_) {
    if (!ap.waiting) continue;
    out.push_back(WaitingProbe{ap.probe.id, ap.node, ap.probe.switch_index,
                               ap.wait_port, ap.wait_was_acked});
  }
  return out;
}

void ControlPlane::erase_probe(ProbeId id) {
  const auto it = std::lower_bound(
      probes_.begin(), probes_.end(), id,
      [](const ActiveProbe& ap, ProbeId want) { return ap.probe.id < want; });
  if (it == probes_.end() || it->probe.id != id) {
    throw std::logic_error("erase_probe: unknown probe");
  }
  probes_.erase(it);
}

void ControlPlane::start_teardown(CircuitId circuit) {
  CircuitRecord& rec = circuits_.at(circuit);
  if (rec.state != CircuitState::kEstablished) {
    throw std::logic_error("start_teardown: circuit not established");
  }
  if (rec.in_use) {
    throw std::logic_error("start_teardown: circuit has a message in transit");
  }
  rec.state = CircuitState::kTearingDown;
  TravelFlit flit;
  flit.kind = pcs::ControlKind::kTeardown;
  flit.circuit = circuit;
  flit.switch_index = rec.switch_index;
  flit.node = rec.src;
  flit.port = rec.path.empty() ? kInvalidPort : rec.path.front();
  if (flit.port == kInvalidPort) {
    throw std::logic_error("start_teardown: circuit has no path");
  }
  flits_.push_back(flit);
  ++stats_.teardowns_started;
}

void ControlPlane::finish_probe_success(ActiveProbe& ap, Cycle now) {
  // Convert the probe into an ack flit that walks back to the source,
  // committing each reserved pair and setting Ack-Returned on the way.
  ++stats_.probes_succeeded;
  TravelFlit ack;
  ack.kind = pcs::ControlKind::kAck;
  ack.circuit = ap.probe.circuit;
  ack.switch_index = ap.probe.switch_index;
  ack.node = ap.node;
  ack.port = ap.arrival_port;  // direction toward the source
  ack.ready_at = now + params_.hop_cycles;
  if (ap.node != ap.probe.src && ack.port == kInvalidPort) {
    throw std::logic_error("probe at destination without arrival port");
  }
  if (ap.node == ap.probe.src) {
    // Zero-hop circuit (src == dest) cannot occur: protocol layer never
    // requests circuits to self.
    throw std::logic_error("circuit to self");
  }
  flits_.push_back(ack);
  history_.release(ap.history);
  erase_probe(ap.probe.id);  // invalidates ap
}

void ControlPlane::fail_probe(ActiveProbe& ap) {
  ++stats_.probes_failed;
  probe_results_.push_back(ProbeResult{ap.probe.id, ap.probe.circuit,
                                       ap.probe.src, /*success=*/false,
                                       ap.probe.switch_index});
  const ProbeId id = ap.probe.id;
  history_.release(ap.history);
  erase_probe(id);  // invalidates ap
}

void ControlPlane::request_release(ActiveProbe& ap, PortId port, Cycle now) {
  const pcs::SwitchRegisters& regs =
      registers_.at(ap.node, ap.probe.switch_index);
  const CircuitId victim = regs.owning_circuit(port);
  if (victim == ap.release_requested_for &&
      now < ap.release_requested_at +
                static_cast<Cycle>(params_.release_retry_cycles)) {
    return;  // already asked recently
  }
  ap.release_requested_for = victim;
  ap.release_requested_at = now;
  if (!circuits_.contains(victim)) return;  // racing teardown finished
  const CircuitRecord& rec = circuits_.at(victim);
  if (rec.src == ap.node) {
    // The victim starts here: demand release from the local interface
    // directly (paper: "This circuit starts at the current node").
    release_demands_.push_back(ReleaseDemand{victim, ap.node});
    ++stats_.release_requests_sent;
    return;
  }
  // Send a release request toward the victim's source over the reverse
  // control path.
  TravelFlit req;
  req.kind = pcs::ControlKind::kReleaseRequest;
  req.circuit = victim;
  req.switch_index = ap.probe.switch_index;
  req.node = ap.node;
  req.port = regs.reverse_map(port);  // input port of the victim circuit here
  if (req.port == kInvalidPort) return;  // torn down in this very cycle
  flits_.push_back(req);
  ++stats_.release_requests_sent;
}

void ControlPlane::step_probe(ActiveProbe& ap, Cycle now) {
  if (now < ap.ready_at) return;  // still traversing the previous hop
  ++ap.steps;
  stats_.max_probe_steps = std::max(stats_.max_probe_steps, ap.steps);

  pcs::SwitchRegisters& here = registers_.at(ap.node, ap.probe.switch_index);
  CircuitRecord& rec = *ap.rec;

  if (ap.node == ap.probe.dest) {
    finish_probe_success(ap, now);
    return;
  }

  // Parked on an unchanged bank: the view, history, arrival port and
  // misroutes that produced the wait are all unchanged, so decide() would
  // return the same wait. Keep waiting without re-deciding.
  if (ap.waiting && ap.parked_version == here.version()) {
    ++stats_.force_waits;
    request_release(ap, ap.wait_port, now);
    return;
  }

  const pcs::MbmView view = build_view(ap, here);
  const auto decision =
      pcs::decide(topology_, ap.node, ap.probe.dest, view, ap.arrival_port,
                  ap.probe.misroutes, params_.max_misroutes, ap.probe.force,
                  params_.mutate_force_unacked);
  ++decisions_;

  switch (decision.action) {
    case pcs::MbmAction::kDeliver:
      finish_probe_success(ap, now);
      return;

    case pcs::MbmAction::kAdvance: {
      if (!gate_.try_acquire(ap.node, decision.port)) return;  // link busy
      const PortId in_port =
          ap.arrival_port == kInvalidPort ? pcs::kLocalEndpoint
                                          : ap.arrival_port;
      here.reserve(decision.port, ap.probe.id, in_port);
      history_.mark(ap.history, ap.node, decision.port);
      ap.stack.push_back(Hop{ap.node, decision.port, ap.probe.misroutes});
      if (decision.misroute) {
        ++ap.probe.misroutes;
        ++stats_.probe_misroutes;
        if (instr_ != nullptr) {
          instr_->emit(now, EventKind::kMisrouted, ap.node, kInvalidMessage,
                       ap.probe.circuit);
        }
      }
      rec.path.push_back(decision.port);
      ap.waiting = false;
      ap.wait_port = kInvalidPort;
      ap.node = topology_.neighbor(ap.node, decision.port);
      ap.arrival_port = KAryNCube::opposite(decision.port);
      ap.ready_at = now + params_.hop_cycles;
      ++stats_.probe_advances;
      return;
    }

    case pcs::MbmAction::kWaitForce: {
      if (!ap.waiting) {
        sim::log_debug("probe ", ap.probe.id, " force-waits at node ",
                       ap.node, " port ", decision.port, " on circuit ",
                       here.owning_circuit(decision.port));
      }
      ++stats_.force_waits;
      ap.waiting = true;
      ap.wait_port = decision.port;
      ap.wait_was_acked = ((view.established >> decision.port) & 1u) != 0;
      ap.parked_version = here.version();
      request_release(ap, decision.port, now);
      return;
    }

    case pcs::MbmAction::kBacktrack: {
      ap.waiting = false;
      ap.wait_port = kInvalidPort;
      if (ap.stack.empty()) {
        fail_probe(ap);  // exhausted the search from the source
        return;
      }
      // Travel back over the reserved control channel (reverse direction
      // of the physical link we arrived through).
      if (!gate_.try_acquire(ap.node, ap.arrival_port)) return;
      const Hop hop = ap.stack.back();
      ap.stack.pop_back();
      registers_.at(hop.from, ap.probe.switch_index)
          .release_reservation(hop.out_port);
      ap.probe.misroutes = hop.misroutes_before;
      if (rec.path.empty()) {
        throw std::logic_error("backtrack with empty circuit path");
      }
      rec.path.pop_back();
      ap.node = hop.from;
      ap.arrival_port = ap.stack.empty()
                            ? kInvalidPort
                            : KAryNCube::opposite(ap.stack.back().out_port);
      ap.ready_at = now + params_.hop_cycles;
      ++stats_.probe_backtracks;
      if (instr_ != nullptr) {
        instr_->emit(now, EventKind::kBacktracked, ap.node, kInvalidMessage,
                     ap.probe.circuit);
      }
      return;
    }
  }
}

void ControlPlane::step_flit(TravelFlit& flit, Cycle now) {
  if (now < flit.ready_at) return;  // still traversing the previous hop
  switch (flit.kind) {
    case pcs::ControlKind::kAck: {
      // Move one hop toward the source; commit + set Ack-Returned on the
      // upstream channel just crossed.
      if (!gate_.try_acquire(flit.node, flit.port)) return;
      const NodeId upstream = topology_.neighbor(flit.node, flit.port);
      const PortId up_out = KAryNCube::opposite(flit.port);
      pcs::SwitchRegisters& regs = registers_.at(upstream, flit.switch_index);
      regs.commit(up_out, flit.circuit);
      regs.mark_ack_returned(up_out);
      flit.node = upstream;
      flit.port = regs.reverse_map(up_out);
      flit.ready_at = now + params_.hop_cycles;
      if (flit.port == pcs::kLocalEndpoint) {
        // Reached the source: the circuit is established.
        CircuitRecord& rec = circuits_.at(flit.circuit);
        rec.state = CircuitState::kEstablished;
        flit.done = true;
        ++stats_.acks_completed;
        probe_results_.push_back(ProbeResult{kInvalidProbe, flit.circuit,
                                             rec.src, /*success=*/true,
                                             rec.switch_index});
      }
      return;
    }

    case pcs::ControlKind::kTeardown: {
      if (!gate_.try_acquire(flit.node, flit.port)) return;
      pcs::SwitchRegisters& regs = registers_.at(flit.node, flit.switch_index);
      regs.release_circuit(flit.port);
      const NodeId next = topology_.neighbor(flit.node, flit.port);
      const PortId next_in = KAryNCube::opposite(flit.port);
      flit.node = next;
      flit.port = registers_.at(next, flit.switch_index).direct_map(next_in);
      flit.ready_at = now + params_.hop_cycles;
      if (flit.port == kInvalidPort) {
        // Reached the destination end: the whole circuit is free.
        CircuitRecord& rec = circuits_.at(flit.circuit);
        rec.state = CircuitState::kDead;
        teardowns_done_.push_back(TeardownDone{flit.circuit});
        circuits_.retire(flit.circuit);
        flit.done = true;
        ++stats_.teardowns_completed;
      }
      return;
    }

    case pcs::ControlKind::kReleaseRequest: {
      // Walk toward the circuit's source over reserved control channels.
      // Any mapping mismatch means a concurrent teardown: discard (the
      // channel the waiting probe wants is being freed anyway).
      if (flit.port == pcs::kLocalEndpoint) {
        release_demands_.push_back(ReleaseDemand{flit.circuit, flit.node});
        flit.done = true;
        return;
      }
      if (!gate_.try_acquire(flit.node, flit.port)) return;
      const NodeId upstream = topology_.neighbor(flit.node, flit.port);
      const PortId up_out = KAryNCube::opposite(flit.port);
      const pcs::SwitchRegisters& regs =
          registers_.at(upstream, flit.switch_index);
      if (regs.status(up_out) != pcs::ChannelStatus::kBusyCircuit ||
          regs.owning_circuit(up_out) != flit.circuit) {
        flit.done = true;  // concurrent teardown: discard
        ++stats_.release_requests_discarded;
        return;
      }
      flit.node = upstream;
      flit.port = regs.reverse_map(up_out);
      flit.ready_at = now + params_.hop_cycles;
      if (flit.port == pcs::kLocalEndpoint) {
        release_demands_.push_back(ReleaseDemand{flit.circuit, flit.node});
        flit.done = true;
      }
      return;
    }

    case pcs::ControlKind::kProbe:
      throw std::logic_error("probe inside travelling-flit list");
  }
}

void ControlPlane::step(Cycle now) {
  // Travelling flits first (acks, teardowns, release requests make
  // progress guarantees possible), then probes, both in creation order
  // for determinism.
  for (auto& flit : flits_) {
    if (!flit.done) step_flit(flit, now);
  }
  flits_.erase(std::remove_if(flits_.begin(), flits_.end(),
                              [](const TravelFlit& f) { return f.done; }),
               flits_.end());

  // Walk in ascending-id (= creation) order. step_probe only ever erases
  // the probe it is stepping (shifting later probes down one slot), so
  // the index advances exactly when no erase happened.
  for (std::size_t i = 0; i < probes_.size();) {
    const ProbeId id = probes_[i].probe.id;
    step_probe(probes_[i], now);
    if (i < probes_.size() && probes_[i].probe.id == id) ++i;
  }
}

std::string ControlPlane::debug_dump() const {
  std::ostringstream os;
  for (const ActiveProbe& ap : probes_) {
    os << "probe " << ap.probe.id << " circuit " << ap.probe.circuit << " "
       << ap.probe.src << "->" << ap.probe.dest << " sw "
       << ap.probe.switch_index << (ap.probe.force ? " FORCE" : "")
       << " at node " << ap.node << " misroutes " << ap.probe.misroutes
       << " depth " << ap.stack.size();
    if (ap.waiting) {
      os << " WAITING on port " << ap.wait_port << " (requested release of "
         << ap.release_requested_for << ")";
      const auto& regs = registers_.at(ap.node, ap.probe.switch_index);
      os << " port-status " << pcs::to_string(regs.status(ap.wait_port))
         << " owner " << regs.owning_circuit(ap.wait_port);
    }
    os << "\n";
  }
  for (const auto& flit : flits_) {
    if (flit.done) continue;
    os << pcs::to_string(flit.kind) << " flit circuit " << flit.circuit
       << " sw " << flit.switch_index << " at node " << flit.node << " port "
       << flit.port << "\n";
  }
  return os.str();
}

namespace {

/// Hand out the pending events and keep collecting into the buffer the
/// previous drain returned, so neither vector reallocates in steady state.
template <typename T>
const std::vector<T>& drain(std::vector<T>& pending, std::vector<T>& drained) {
  drained.clear();
  drained.swap(pending);
  return drained;
}

}  // namespace

const std::vector<ProbeResult>& ControlPlane::take_probe_results() {
  return drain(probe_results_, drained_results_);
}

const std::vector<ReleaseDemand>& ControlPlane::take_release_demands() {
  return drain(release_demands_, drained_demands_);
}

const std::vector<TeardownDone>& ControlPlane::take_teardowns_done() {
  return drain(teardowns_done_, drained_teardowns_);
}

void ControlPlane::snap(snap::Archive& ar) {
  registers_.snap(ar);
  history_.snap(ar);
  ar.vec(probes_, [](snap::Archive& a, ActiveProbe& ap) {
    a.pod(ap.probe.id);
    a.pod(ap.probe.circuit);
    a.pod(ap.probe.src);
    a.pod(ap.probe.dest);
    a.pod(ap.probe.backtrack);
    a.pod(ap.probe.misroutes);
    a.pod(ap.probe.force);
    a.pod(ap.probe.switch_index);
    a.pod(ap.node);
    a.pod(ap.arrival_port);
    a.vec(ap.stack, [](snap::Archive& b, Hop& hop) {
      b.pod(hop.from);
      b.pod(hop.out_port);
      b.pod(hop.misroutes_before);
    });
    a.pod(ap.waiting);
    a.pod(ap.wait_port);
    a.pod(ap.wait_was_acked);
    a.pod(ap.release_requested_for);
    a.pod(ap.release_requested_at);
    a.pod(ap.ready_at);
    a.pod(ap.steps);
  });
  if (ar.reading()) {
    // The cached record pointer is re-resolved, never serialized: a
    // probing circuit is always live in the table. Each probe claims its
    // restored History Store row (or a fresh one if it had marked none).
    for (ActiveProbe& ap : probes_) {
      ap.rec = &circuits_.at(ap.probe.circuit);
      ap.history = history_.adopt(ap.probe.id);
    }
  }
  ar.vec(flits_, [](snap::Archive& a, TravelFlit& f) {
    a.pod(f.kind);
    a.pod(f.circuit);
    a.pod(f.switch_index);
    a.pod(f.node);
    a.pod(f.port);
    a.pod(f.ready_at);
    a.pod(f.done);
  });
  ar.vec(probe_results_, [](snap::Archive& a, ProbeResult& r) {
    a.pod(r.probe);
    a.pod(r.circuit);
    a.pod(r.src);
    a.pod(r.success);
    a.pod(r.switch_index);
  });
  ar.vec(release_demands_, [](snap::Archive& a, ReleaseDemand& d) {
    a.pod(d.circuit);
    a.pod(d.src);
  });
  ar.vec(teardowns_done_, [](snap::Archive& a, TeardownDone& t) {
    a.pod(t.circuit);
  });
  ar.vec_pod(static_faulty_);
  ar.pod(next_probe_);
  ar.pod(stats_.probes_launched);
  ar.pod(stats_.probes_succeeded);
  ar.pod(stats_.probes_failed);
  ar.pod(stats_.probe_advances);
  ar.pod(stats_.probe_backtracks);
  ar.pod(stats_.probe_misroutes);
  ar.pod(stats_.force_waits);
  ar.pod(stats_.release_requests_sent);
  ar.pod(stats_.release_requests_discarded);
  ar.pod(stats_.teardowns_started);
  ar.pod(stats_.teardowns_completed);
  ar.pod(stats_.acks_completed);
  ar.pod(stats_.probes_killed);
  ar.pod(stats_.circuits_killed);
  ar.pod(stats_.max_probe_steps);
}

}  // namespace wavesim::core
