#include "core/network.hpp"

#include <stdexcept>

#include "sim/log.hpp"
#include "snap/archive.hpp"

namespace wavesim::core {

Network::Network(const sim::SimConfig& config)
    : config_(config),
      topology_(config.topology.radix, config.topology.torus),
      routing_(route::make_routing(config.router.routing, topology_,
                                   config.router.wormhole_vcs)),
      fabric_(topology_, *routing_,
              wh::FabricParams{
                  wh::RouterParams{config.router.wormhole_vcs,
                                   config.router.vc_buffer_depth},
                  static_cast<Cycle>(config.router.wormhole_pipeline_latency)}),
      rng_(config.seed) {
  config_.validate();
  if (config_.router.wave_switches > 0) {
    ControlPlaneParams cp_params{config_.router.wave_switches,
                                 config_.protocol.max_misroutes,
                                 config_.router.control_hop_cycles};
    cp_params.mutate_force_unacked = config_.protocol.mutate_force_unacked;
    control_ = std::make_unique<ControlPlane>(
        topology_, circuits_, fabric_.gate(), cp_params, &instrumentation_);
    data_ = std::make_unique<DataPlane>(
        circuits_,
        DataPlaneParams{config_.circuit_flits_per_cycle(),
                        config_.effective_wave_factor(),
                        config_.router.circuit_window});
    inject_faults();
    if (config_.faults.dynamic()) {
      // Fork keeps the schedule expansion off the interfaces' rng streams
      // only for fault-bearing runs; fault-free runs draw exactly the
      // sequence they always did.
      fault_ = std::make_unique<fault::FaultPlane>(config_, topology_,
                                                   rng_.fork());
    }
  }
  const auto vcs = static_cast<std::size_t>(config_.router.wormhole_vcs);
  streams_.resize(static_cast<std::size_t>(topology_.num_nodes()) * vcs);
  interfaces_.reserve(topology_.num_nodes());
  for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
    interfaces_.emplace_back(
        n, config_, topology_, log_, circuits_, fabric_, control_.get(),
        data_.get(), fault_.get(), instrumentation_, rng_.fork(),
        std::span(streams_).subspan(static_cast<std::size_t>(n) * vcs, vcs));
  }
  sim::log_info("network up: ", topology_.num_nodes(), " nodes, ",
                sim::to_string(config_.protocol.protocol), ", routing ",
                sim::to_string(config_.router.routing), ", w=",
                config_.router.wormhole_vcs, " k=",
                config_.router.wave_switches,
                faulty_channels_ > 0 ? " (faulty circuit channels: " : "",
                faulty_channels_ > 0 ? std::to_string(faulty_channels_) : "",
                faulty_channels_ > 0 ? ")" : "");
  // Reassembly happens in step_shard (each message's destination node owns
  // its record), so no fabric delivery handler is installed.
}

void Network::inject_faults() {
  if (config_.faults.link_fault_rate <= 0.0) return;
  sim::Rng fault_rng = rng_.fork();
  for (NodeId n = 0; n < topology_.num_nodes(); ++n) {
    for (std::int32_t s = 0; s < config_.router.wave_switches; ++s) {
      for (PortId p = 0; p < topology_.num_ports(); ++p) {
        if (!topology_.has_neighbor(n, p)) continue;
        if (fault_rng.chance(config_.faults.link_fault_rate)) {
          control_->mark_faulty(n, s, p);
          ++faulty_channels_;
        }
      }
    }
  }
}

MessageId Network::send(NodeId src, NodeId dest, std::int32_t length) {
  if (src < 0 || src >= topology_.num_nodes() || dest < 0 ||
      dest >= topology_.num_nodes()) {
    throw std::invalid_argument("Network::send: node out of range");
  }
  if (src == dest) {
    throw std::invalid_argument("Network::send: src == dest");
  }
  if (length < 1) {
    throw std::invalid_argument("Network::send: length < 1");
  }
  return dispatch_send(src, dest, length);
}

MessageId Network::dispatch_send(NodeId src, NodeId dest,
                                 std::int32_t length) {
  const MessageId id = log_.create(src, dest, length, now_);
  instrumentation_.emit(now_, EventKind::kSubmitted, src, id);
  interfaces_[src].submit(id, now_);
  return id;
}

void Network::schedule_send(NodeId src, NodeId dest, std::int32_t length,
                            Cycle at, Call call) {
  if (src < 0 || src >= topology_.num_nodes() || dest < 0 ||
      dest >= topology_.num_nodes()) {
    throw std::invalid_argument("Network::schedule_send: node out of range");
  }
  if (src == dest) {
    throw std::invalid_argument("Network::schedule_send: src == dest");
  }
  if (length < 1) {
    throw std::invalid_argument("Network::schedule_send: length < 1");
  }
  if (at < now_) {
    throw std::invalid_argument("Network::schedule_send: cycle in the past");
  }
  if (sends_head_ < sends_.size() && at < sends_.back().at) {
    throw std::invalid_argument(
        "Network::schedule_send: cycles must be non-decreasing");
  }
  sends_.push_back(ScheduledSend{at, src, dest, length, call});
}

void Network::offer_due_sends() {
  while (sends_head_ < sends_.size() && sends_[sends_head_].at <= now_) {
    const ScheduledSend& s = sends_[sends_head_++];
    switch (s.call) {
      case Call::kSend:
        dispatch_send(s.src, s.dest, s.length);
        break;
      case Call::kEstablish:
        interfaces_[s.src].establish_circuit(s.dest, now_, s.length);
        break;
      case Call::kRelease:
        interfaces_[s.src].release_circuit(s.dest, now_);
        break;
    }
  }
  if (sends_head_ == sends_.size()) {
    sends_.clear();
    sends_head_ = 0;
  }
}

bool Network::establish_circuit(NodeId src, NodeId dest,
                                std::int32_t max_message_flits) {
  return interfaces_.at(src).establish_circuit(dest, now_, max_message_flits);
}

void Network::release_circuit(NodeId src, NodeId dest) {
  interfaces_.at(src).release_circuit(dest, now_);
}

void Network::dispatch_events() {
  if (control_ != nullptr) {
    for (const auto& result : control_->take_probe_results()) {
      interfaces_[result.src].on_probe_result(result, now_);
    }
    for (const auto& demand : control_->take_release_demands()) {
      interfaces_[demand.src].on_release_demand(demand, now_);
    }
    control_->take_teardowns_done();  // informational only
  }
  if (data_ != nullptr) {
    for (const auto& done : data_->take_completed()) {
      interfaces_[done.src].on_transfer_done(done, now_);
      ++delivered_msgs_;  // each TransferDone marks exactly one message
    }
  }
}

void Network::step_faults() {
  if (fault_ == nullptr) return;
  for (const fault::LinkChange& change : fault_->begin_cycle(now_)) {
    if (change.down) {
      instrumentation_.emit(now_, EventKind::kLinkDown, change.node,
                            kInvalidMessage, kInvalidCircuit, change.port);
      for (const KilledCircuit& k :
           control_->fail_link(change.node, change.port)) {
        const MessageId aborted = data_->abort_transfer(k.circuit);
        interfaces_[k.src].on_circuit_killed(k.circuit, k.dest, aborted,
                                              now_);
      }
    } else {
      control_->restore_link(change.node, change.port);
      instrumentation_.emit(now_, EventKind::kLinkUp, change.node,
                            kInvalidMessage, kInvalidCircuit, change.port);
    }
  }
  if (instrumentation_.enabled()) {
    for (const auto& [node, dest] : fault_->withdrawals()) {
      (void)dest;
      instrumentation_.emit(now_, EventKind::kRouteWithdrawn, node);
    }
  }
}

void Network::step_begin() {
  // Fault events apply at the cycle boundary, before anything else can
  // observe the link (both steppers run this sequentially: bit-identical).
  step_faults();
  // Due scheduled sends next: exactly where a direct send() call before
  // the step would have run.
  offer_due_sends();
  fabric_.begin_cycle(now_);  // resets the gate before control claims links
  if (control_ != nullptr) control_->step(now_);
  if (data_ != nullptr) data_->step(now_);
  dispatch_events();
  if (config_.protocol.pcs_only) {
    for (auto& ni : interfaces_) ni.pump_retries(now_);
  }
}

void Network::step_shard(NodeId begin, NodeId end, ShardContext& ctx) {
  ctx.clear();
  // Every activity byte of the range is zero: no interface has anything to
  // pump and every node would be skipped, so the range steps to the empty
  // context it already holds.
  if (!fabric_.any_work(begin, end)) return;
  for (NodeId n = begin; n < end; ++n) {
    // pump_streams on an interface with nothing pending is a no-op; the
    // fabric's activity byte makes the skip a single byte test.
    if (fabric_.ni_work(n)) interfaces_[n].pump_streams(now_, ctx.io);
  }
  fabric_.step_nodes(now_, begin, end, ctx.io);
  // Reassembly by count: packets of a segmented message may interleave
  // across VCs, so tail flags alone cannot signal completion. A message
  // only ever ejects at its destination node, so its record is owned by
  // exactly one shard.
  const bool instrumented = instrumentation_.enabled();
  for (const wh::EjectedFlit& e : ctx.io.ejected) {
    MessageRecord& rec = log_.at(e.flit.msg);
    if (++rec.flits_received == rec.length) {
      log_.mark_delivered(e.flit.msg, now_);
      ++ctx.messages_delivered;
      if (instrumented) {
        ctx.events.emit(now_, EventKind::kDelivered, rec.dest, e.flit.msg);
      }
    }
  }
}

void Network::step_commit(std::span<ShardContext* const> contexts) {
  for (ShardContext* ctx : contexts) fabric_.commit_cycle(now_, ctx->io);
  for (ShardContext* ctx : contexts) instrumentation_.flush(ctx->events);
  for (ShardContext* ctx : contexts) delivered_msgs_ += ctx->messages_delivered;
  ++now_;
}

void Network::step() {
  step_begin();
  step_shard(0, topology_.num_nodes(), scratch_ctx_);
  ShardContext* const contexts[] = {&scratch_ctx_};
  step_commit(contexts);
}

void Network::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) step();
}

std::uint64_t Network::messages_delivered() const {
  return delivered_msgs_;
}

bool Network::traffic_quiescent() const {
  if (sends_head_ < sends_.size()) return false;
  if (messages_delivered() != log_.size()) return false;
  if (fabric_.flits_in_flight() != 0) return false;
  if (control_ != nullptr && !control_->idle()) return false;
  if (data_ != nullptr && data_->active_transfers() != 0) return false;
  return true;
}

bool Network::quiescent() const {
  if (!traffic_quiescent()) return false;
  // Keep stepping through pending fault events and DV convergence so a
  // drain loop witnesses recoveries scheduled after the last delivery.
  if (fault_ != nullptr && (!fault_->exhausted() || !fault_->dormant())) {
    return false;
  }
  return true;
}

void Network::snap(snap::Archive& ar) {
  // Ordering matters on restore: circuits_ must load before the control
  // plane (which re-resolves cached CircuitRecord pointers) and before
  // the interfaces (whose cache entries reference circuit ids).
  ar.pod(now_);
  circuits_.snap(ar);
  if (control_ != nullptr) control_->snap(ar);
  if (data_ != nullptr) data_->snap(ar);
  if (fault_ != nullptr) fault_->snap(ar);
  fabric_.snap(ar, now_);
  log_.snap(ar);
  for (auto& iface : interfaces_) iface.snap(ar);
  rng_.snap(ar);
  // Only the not-yet-offered suffix of the scheduled-send queue is state;
  // restore re-bases the head at zero.
  if (ar.writing()) {
    std::uint64_t n = sends_.size() - sends_head_;
    ar.pod(n);
    for (std::size_t i = sends_head_; i < sends_.size(); ++i) {
      ar.pod(sends_[i].at);
      ar.pod(sends_[i].src);
      ar.pod(sends_[i].dest);
      ar.pod(sends_[i].length);
      ar.pod(sends_[i].call);
    }
  } else {
    std::uint64_t n = 0;
    ar.pod(n);
    sends_.assign(static_cast<std::size_t>(n), ScheduledSend{});
    sends_head_ = 0;
    for (auto& send : sends_) {
      ar.pod(send.at);
      ar.pod(send.src);
      ar.pod(send.dest);
      ar.pod(send.length);
      ar.pod(send.call);
    }
  }
  ar.pod(faulty_channels_);
  ar.pod(delivered_msgs_);
}

}  // namespace wavesim::core
