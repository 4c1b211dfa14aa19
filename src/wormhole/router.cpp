#include "wormhole/router.hpp"

#include <algorithm>
#include <stdexcept>

#include "snap/archive.hpp"

namespace wavesim::wh {
namespace {

void set_bit(std::uint64_t* set, std::int32_t slot) noexcept {
  set[slot >> 6] |= std::uint64_t{1} << (slot & 63);
}

void clear_bit(std::uint64_t* set, std::int32_t slot) noexcept {
  set[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
}

bool empty_set(const std::uint64_t* set, std::int32_t words) noexcept {
  for (std::int32_t w = 0; w < words; ++w) {
    if (set[w] != 0) return false;
  }
  return true;
}

}  // namespace

std::int32_t Router::slot_words(std::int32_t network_ports,
                               const RouterParams& params) noexcept {
  // One record per output port ([pointer][request set]), then the routing
  // and pending sets.
  const std::int32_t words = mask_words(slots(network_ports, params));
  return (network_ports + 1) * (words + 1) + 2 * words;
}

Router::Router(const topo::KAryNCube& topology,
               const route::RoutingAlgorithm& routing, NodeId node,
               const RouterParams& params, InputVc* inputs,
               OutputVc* outputs, std::uint64_t* slot_words)
    : topology_(topology), routing_(routing), node_(node), params_(params),
      network_ports_(topology.num_ports()),
      slots_(slots(topology.num_ports(), params)),
      words_(mask_words(slots_)), inputs_(inputs), outputs_(outputs),
      slot_words_(slot_words), va_arbiter_(slots_) {}

void Router::check_port_vc(PortId port, VcId vc) const {
  if (port < 0 || port > network_ports_ || vc < 0 || vc >= params_.num_vcs) {
    throw std::out_of_range("Router: port/vc out of range");
  }
}

const InputVc& Router::input_vc(PortId port, VcId vc) const {
  check_port_vc(port, vc);
  return inputs_[flat(port, vc)];
}

InputVc& Router::input_vc_mut(PortId port, VcId vc) {
  check_port_vc(port, vc);
  return inputs_[flat(port, vc)];
}

OutputVc& Router::output_vc(PortId port, VcId vc) {
  check_port_vc(port, vc);
  return outputs_[flat(port, vc)];
}

const OutputVc& Router::output_vc(PortId port, VcId vc) const {
  check_port_vc(port, vc);
  return outputs_[flat(port, vc)];
}

bool Router::output_exists(PortId port) const {
  if (port == local_port()) return true;
  return topology_.has_neighbor(node_, port);
}

bool Router::can_accept(PortId port, VcId vc) const {
  return !input_vc(port, vc).full();
}

void Router::receive(PortId port, VcId vc, const Flit& flit) {
  InputVc& in = input_vc_mut(port, vc);
  if (in.empty()) {
    if (in.state() == VcState::kIdle) {
      set_bit(pending_set(), flat(port, vc));
      ++route_pending_;
    } else if (in.state() == VcState::kActive) {
      set_bit(request_set(in.out_port()), flat(port, vc));
    }
  }
  in.push(flit);
  ++occupancy_;
}

void Router::credit_return(PortId out_port, VcId out_vc) {
  OutputVc& out = output_vc(out_port, out_vc);
  if (out.credits >= params_.vc_buffer_depth) {
    throw std::logic_error("Router: credit overflow");
  }
  ++out.credits;
}

std::int32_t Router::credits(PortId out_port, VcId out_vc) const {
  return output_vc(out_port, out_vc).credits;
}

bool Router::output_allocated(PortId out_port, VcId out_vc) const {
  return output_vc(out_port, out_vc).allocated;
}

void Router::switch_allocate(LinkGate& gate, std::vector<SwitchMove>& moves) {
  if (active_vcs_ == 0) return;  // no grant possible, arbiters unmoved
  const std::int32_t vcs = params_.num_vcs;
  for (PortId out_port = 0; out_port <= network_ports_; ++out_port) {
    std::uint64_t* record = switch_record(out_port);
    std::uint64_t* requests = record + 1;
    if (empty_set(requests, words_)) continue;  // no grant, pointer unmoved
    const bool eject = out_port == local_port();
    std::int32_t pointer = static_cast<std::int32_t>(record[0]);
    // Only requesters are offered: active, routed here and non-empty.
    grant_round_robin(requests, slots_, pointer, [&](std::int32_t slot) {
      InputVc& in = inputs_[slot];
      OutputVc& out = outputs_[flat(out_port, in.out_vc())];
      if (!eject && out.credits <= 0) return false;
      // One flit per physical link per cycle, shared with control VCs.
      if (!eject && !gate.try_acquire(node_, out_port)) return false;
      SwitchMove move;
      move.in_port = slot / vcs;
      move.in_vc = slot % vcs;
      move.out_port = out_port;
      move.out_vc = in.out_vc();
      move.flit = in.pop();
      --occupancy_;
      if (in.empty()) clear_bit(requests, slot);
      move.eject = eject;
      if (!eject) --out.credits;
      if (move.flit.tail) {
        out.allocated = false;
        out.holder_port = kInvalidPort;
        out.holder_vc = kInvalidVc;
        in.release();
        clear_bit(requests, slot);
        --active_vcs_;
        --nonidle_vcs_;
        if (!in.empty()) {  // next packet's head buffered
          set_bit(pending_set(), slot);
          ++route_pending_;
        }
      }
      moves.push_back(move);
      return true;
    });
    record[0] = static_cast<std::uint64_t>(pointer);
  }
}

std::vector<SwitchMove> Router::switch_allocate(LinkGate& gate) {
  std::vector<SwitchMove> moves;
  switch_allocate(gate, moves);
  return moves;
}

bool Router::try_allocate_vc(std::int32_t slot) {
  InputVc& in = inputs_[slot];
  for (const auto& cand : in.candidates()) {
    if (!output_exists(cand.port)) continue;
    OutputVc& out = outputs_[flat(cand.port, cand.vc)];
    if (out.allocated) continue;
    out.allocated = true;
    out.holder_port = slot / params_.num_vcs;
    out.holder_vc = slot % params_.num_vcs;
    in.activate(cand.port, cand.vc);
    clear_bit(routing_set(), slot);
    if (!in.empty()) set_bit(request_set(cand.port), slot);
    --routing_vcs_;
    ++active_vcs_;
    return true;
  }
  return false;
}

void Router::vc_allocate() {
  if (routing_vcs_ == 0) return;  // no grant possible, arbiter unmoved
  std::uint64_t* routing = routing_set();
  const std::int32_t won = va_arbiter_.grant(
      routing, [&](std::int32_t slot) { return try_allocate_vc(slot); });
  // A single grant per cycle would be too restrictive; sweep the remaining
  // routing VCs once more in index order so independent outputs can be
  // claimed in the same cycle (the arbiter above only rotates fairness for
  // the first grant, which is the contended one). A failed attempt changes
  // nothing, so when the grant found no winner the sweep would fail too.
  if (won < 0 || routing_vcs_ == 0) return;
  for_each_set_bit(routing, words_,
                   [&](std::int32_t slot) { try_allocate_vc(slot); });
}

void Router::route_compute() {
  if (route_pending_ == 0) return;
  std::uint64_t* pending = pending_set();
  for_each_set_bit(pending, words_, [&](std::int32_t slot) {
    InputVc& in = inputs_[slot];
    const Flit& head = in.front();
    if (!head.head) {
      throw std::logic_error("Router: body flit at front of idle VC");
    }
    if (head.dest == node_) {
      cand_scratch_.clear();
      for (VcId v = 0; v < params_.num_vcs; ++v) {
        cand_scratch_.push_back(
            route::RouteCandidate{local_port(), v, /*escape=*/true});
      }
      in.start_routing(cand_scratch_.data(), cand_scratch_.size());
    } else {
      const PortId in_port = slot / params_.num_vcs;
      const VcId in_vc = slot % params_.num_vcs;
      const auto candidates = routing_.route(
          node_, in_port == local_port() ? kInvalidPort : in_port, in_vc,
          head.dest);
      if (candidates.empty()) {
        throw std::logic_error("Router: routing returned no candidates");
      }
      in.start_routing(candidates.data(), candidates.size());
    }
    clear_bit(pending, slot);
    set_bit(routing_set(), slot);
    --route_pending_;
    ++routing_vcs_;
    ++nonidle_vcs_;
  });
}

void Router::rebuild_slot_sets() {
  for (PortId p = 0; p <= network_ports_; ++p) {
    std::fill_n(request_set(p), words_, 0);
  }
  std::fill_n(routing_set(), 2 * words_, 0);
  std::int64_t buffered = 0;
  std::int32_t active = 0;
  std::int32_t routing = 0;
  std::int32_t pending = 0;
  for (std::int32_t slot = 0; slot < slots_; ++slot) {
    const InputVc& in = inputs_[slot];
    buffered += in.occupancy();
    switch (in.state()) {
      case VcState::kIdle:
        if (!in.empty()) {
          set_bit(pending_set(), slot);
          ++pending;
        }
        break;
      case VcState::kRouting:
        set_bit(routing_set(), slot);
        ++routing;
        break;
      case VcState::kActive:
        if (in.out_port() < 0 || in.out_port() > network_ports_ ||
            in.out_vc() < 0 || in.out_vc() >= params_.num_vcs) {
          throw snap::ArchiveError("Router: active VC output out of range");
        }
        if (!in.empty()) set_bit(request_set(in.out_port()), slot);
        ++active;
        break;
      default:
        throw snap::ArchiveError("Router: unknown VC state");
    }
  }
  if (buffered != occupancy_ || active != active_vcs_ ||
      routing != routing_vcs_ || pending != route_pending_ ||
      active + routing != nonidle_vcs_) {
    throw snap::ArchiveError("Router: live-state counters disagree with VCs");
  }
}

void Router::snap(snap::Archive& ar) {
  for (std::int32_t slot = 0; slot < slots_; ++slot) inputs_[slot].snap(ar);
  for (std::int32_t slot = 0; slot < slots_; ++slot) {
    OutputVc& out = outputs_[slot];
    ar.pod(out.allocated);
    ar.pod(out.holder_port);
    ar.pod(out.holder_vc);
    ar.pod(out.credits);
  }
  for (PortId p = 0; p <= network_ports_; ++p) {
    std::int32_t pointer = static_cast<std::int32_t>(switch_record(p)[0]);
    ar.pod(pointer);
    if (pointer < 0 || pointer >= slots_) {
      throw snap::ArchiveError("Router: switch arbiter pointer out of range");
    }
    switch_record(p)[0] = static_cast<std::uint64_t>(pointer);
  }
  va_arbiter_.snap(ar);
  ar.pod(occupancy_);
  ar.pod(nonidle_vcs_);
  ar.pod(active_vcs_);
  ar.pod(routing_vcs_);
  ar.pod(route_pending_);
  if (ar.reading()) rebuild_slot_sets();
}

}  // namespace wavesim::wh
