#include "core/node_interface.hpp"

#include <stdexcept>

#include "snap/archive.hpp"

namespace wavesim::core {

namespace {
/// PCS-only mode: cycles between setup retries after a failure.
constexpr Cycle kPcsRetryBackoff = 64;
}  // namespace

const char* to_string(MessageMode mode) noexcept {
  switch (mode) {
    case MessageMode::kUnset: return "unset";
    case MessageMode::kCircuitHit: return "circuit-hit";
    case MessageMode::kCircuitAfterSetup: return "circuit-after-setup";
    case MessageMode::kWormholeFallback: return "wormhole-fallback";
    case MessageMode::kWormholePolicy: return "wormhole-policy";
  }
  return "?";
}

NodeInterface::NodeInterface(NodeId node, const sim::SimConfig& config,
                             const topo::KAryNCube& topology, MessageLog& log,
                             CircuitTable& circuits, wh::Fabric& fabric,
                             ControlPlane* control, DataPlane* data,
                             const fault::FaultPlane* fault,
                             const Instrumentation& instrumentation,
                             sim::Rng rng, std::span<Stream> streams)
    : node_(node), config_(config), topology_(topology), log_(log),
      circuits_(circuits), fabric_(fabric), control_(control), data_(data),
      fault_(fault), instr_(instrumentation),
      cache_(config.protocol.circuit_cache_entries,
             config.protocol.replacement, rng),
      streams_(streams) {
  if ((control_ == nullptr) != (data_ == nullptr)) {
    throw std::invalid_argument(
        "NodeInterface: control and data planes must both exist or neither");
  }
}

std::int32_t NodeInterface::initial_switch() const {
  std::int32_t sum = 0;
  for (auto c : topology_.coord_row(node_)) sum += c;
  return sum % control_->num_switches();
}

void NodeInterface::send_wormhole(MessageId id, MessageMode mode, Cycle now) {
  MessageRecord& rec = log_.at(id);
  rec.mode = mode;
  if (mode == MessageMode::kWormholeFallback) {
    ++stats_.fallback_messages;
    instr_.emit(now, EventKind::kFallbackWormhole, node_, id);
  } else {
    ++stats_.wormhole_messages;
  }
  // Packetization: segment at max_packet_flits (0 = whole message).
  const std::int32_t max = config_.protocol.max_packet_flits;
  const std::int32_t chunk = max > 0 ? max : rec.length;
  for (std::int32_t start = 0; start < rec.length; start += chunk) {
    Packet pkt;
    pkt.msg = id;
    pkt.dest = rec.dest;
    pkt.start = start;
    pkt.count = std::min(chunk, rec.length - start);
    pkt.msg_length = rec.length;
    pkt.created = rec.created;
    wormhole_pending_.push_back(pkt);
    ++stats_.packets_sent;
  }
  // Flag pending injections so the step sweep pumps this node.
  fabric_.set_ni_work(node_, true);
}

void NodeInterface::submit(MessageId id, Cycle now) {
  MessageRecord& rec = log_.at(id);
  if (rec.src != node_) {
    throw std::invalid_argument("NodeInterface::submit: wrong source node");
  }
  const auto protocol = config_.protocol.protocol;
  const bool circuit_eligible =
      circuits_enabled() && protocol != sim::ProtocolKind::kWormholeOnly &&
      rec.length >= config_.protocol.min_circuit_message_flits;
  if (!circuit_eligible) {
    send_wormhole(id, MessageMode::kWormholePolicy, now);
    return;
  }

  DestState& ds = dest_state(rec.dest);
  CacheEntry* entry = cache_.find(rec.dest);

  // A setup attempt is running: park behind it.
  if (ds.setup.has_value()) {
    rec.mode = MessageMode::kCircuitAfterSetup;
    ds.queue.push_back(id);
    return;
  }

  if (entry != nullptr) {
    if (ds.release_urgent || ds.release_when_drained) {
      // The circuit is on its way out; don't prolong its life.
      send_wormhole(id, MessageMode::kWormholePolicy, now);
      return;
    }
    ++cache_.hits;
    rec.mode = MessageMode::kCircuitHit;
    ds.queue.push_back(id);
    try_start_transfer(rec.dest, now);
    return;
  }

  ++cache_.misses;
  if (fault_ != nullptr && !fault_->reachable(node_, rec.dest) &&
      !config_.protocol.pcs_only) {
    // The distance-vector tables know no live circuit path: don't burn a
    // probe, ride the (always healthy) wormhole plane while DV converges.
    ++stats_.unreachable_fallbacks;
    send_wormhole(id, MessageMode::kWormholeFallback, now);
    return;
  }
  if (protocol == sim::ProtocolKind::kClrp) {
    if (start_setup(rec.dest, SetupSequencer::Mode::kClrp, now)) {
      rec.mode = MessageMode::kCircuitAfterSetup;
      ds.queue.push_back(id);
    } else if (config_.protocol.pcs_only) {
      // No wormhole plane to fall back on: wait for a cache slot.
      rec.mode = MessageMode::kCircuitAfterSetup;
      ds.queue.push_back(id);
      ds.needs_retry = true;
      ds.retry_at = now + kPcsRetryBackoff;
    } else {
      // Every cache entry is probing or carrying a message: wormhole.
      send_wormhole(id, MessageMode::kWormholeFallback, now);
    }
    return;
  }
  // CARP: circuits appear only on explicit request.
  send_wormhole(id, MessageMode::kWormholePolicy, now);
}

bool NodeInterface::start_setup(NodeId dest, SetupSequencer::Mode mode,
                                Cycle now) {
  std::optional<CacheEntry> evicted;
  CacheEntry* entry = cache_.allocate(dest, now, &evicted);
  if (entry == nullptr) return false;
  if (evicted.has_value()) {
    // The victim is established and idle (pick_victim guarantees it);
    // tear its circuit down and recycle anything parked behind it.
    DestState& vds = dest_state(evicted->dest);
    sim::Ring<MessageId> orphans = std::move(vds.queue);
    vds = DestState{};
    instr_.emit(now, EventKind::kEvicted, node_, kInvalidMessage,
                evicted->circuit);
    control_->start_teardown(evicted->circuit);
    requeue(std::move(orphans), now);
  }
  const std::int32_t init = initial_switch();
  if (mode == SetupSequencer::Mode::kClrp) {
    dest_state(dest).carp_buffer_flits = 0;  // CLRP sizes speculatively
  }
  const CircuitId circuit = circuits_.create(node_, dest, init);
  entry->circuit = circuit;
  entry->probing = true;
  entry->initial_switch = init;
  entry->switch_index = init;
  DestState& ds = dest_state(dest);
  ds.setup.emplace(mode, config_.protocol.clrp_variant,
                   control_->num_switches(), init);
  ++stats_.setups_started;
  launch_attempt(dest, ds, now);
  return true;
}

void NodeInterface::launch_attempt(NodeId dest, DestState& ds, Cycle now) {
  CacheEntry* entry = cache_.find(dest);
  if (entry == nullptr || !ds.setup.has_value()) {
    throw std::logic_error("launch_attempt without entry/sequencer");
  }
  const SetupAttempt attempt = ds.setup->current();
  CircuitRecord& rec = circuits_.at(entry->circuit);
  rec.switch_index = attempt.switch_index;
  entry->switch_index = attempt.switch_index;
  instr_.emit(now, EventKind::kProbeLaunched, node_, kInvalidMessage,
              entry->circuit);
  control_->launch_probe(entry->circuit, attempt.force);
}

void NodeInterface::abandon_setup(NodeId dest, DestState& ds, Cycle now) {
  CacheEntry* entry = cache_.find(dest);
  instr_.emit(now, EventKind::kSetupAbandoned, node_, kInvalidMessage,
              entry != nullptr ? entry->circuit : kInvalidCircuit);
  if (entry != nullptr) {
    const CircuitId circuit = entry->circuit;
    cache_.invalidate(*entry);
    circuits_.retire(circuit);
  }
  ds.setup.reset();
  ds.release_urgent = false;
  ds.release_when_drained = false;
  if (config_.protocol.pcs_only) {
    // Messages keep waiting; the setup retries after a backoff (paper
    // section 2's k=1/w=0 router has no wormhole plane to fall back on).
    ds.needs_retry = true;
    ds.retry_at = now + kPcsRetryBackoff;
    return;
  }
  sim::Ring<MessageId> orphans = std::move(ds.queue);
  for (; !orphans.empty(); orphans.pop_front()) {
    send_wormhole(orphans.front(), MessageMode::kWormholeFallback, now);
  }
}

void NodeInterface::try_start_transfer(NodeId dest, Cycle now) {
  DestState& ds = dest_state(dest);
  if (ds.queue.empty() || ds.release_urgent) return;
  CacheEntry* entry = cache_.find(dest);
  if (entry == nullptr || !entry->ack_returned || entry->in_use) return;
  const MessageId msg = ds.queue.front();
  ds.queue.pop_front();
  const std::int32_t length = log_.at(msg).length;
  CircuitRecord& rec = circuits_.at(entry->circuit);
  // Software messaging overhead: the first message on a circuit allocates
  // the end-point buffers; later ones reuse them (paper sections 1-2).
  Cycle delay = static_cast<Cycle>(
      rec.messages_carried == 0
          ? config_.software.circuit_first_send_overhead
          : config_.software.circuit_reuse_send_overhead);
  if (length > rec.buffer_flits) {
    // "Buffers may have to be re-allocated for longer messages."
    delay += static_cast<Cycle>(config_.software.buffer_realloc_penalty);
    rec.buffer_flits = length;
    ++stats_.buffer_reallocs;
  }
  data_->start_transfer(msg, entry->circuit, length, now, delay);
  entry->in_use = true;
  cache_.touch(*entry, now);
  instr_.emit(now, EventKind::kTransferStarted, node_, msg, entry->circuit);
  ++stats_.circuit_messages;
}

void NodeInterface::teardown_now(NodeId dest, CacheEntry& entry, Cycle now) {
  (void)dest;
  const CircuitId circuit = entry.circuit;
  instr_.emit(now, EventKind::kTeardownStarted, node_, kInvalidMessage,
              circuit);
  cache_.invalidate(entry);
  control_->start_teardown(circuit);
}

void NodeInterface::requeue(sim::Ring<MessageId> msgs, Cycle now) {
  for (; !msgs.empty(); msgs.pop_front()) submit(msgs.front(), now);
}

bool NodeInterface::establish_circuit(NodeId dest, Cycle now,
                                      std::int32_t max_message_flits) {
  if (!circuits_enabled() || dest == node_) return false;
  if (fault_ != nullptr && !fault_->reachable(node_, dest)) {
    ++stats_.unreachable_fallbacks;
    return false;
  }
  DestState& ds = dest_state(dest);
  if (ds.setup.has_value() || cache_.find(dest) != nullptr) return true;
  ds.carp_buffer_flits = max_message_flits;
  return start_setup(dest, SetupSequencer::Mode::kCarp, now);
}

void NodeInterface::release_circuit(NodeId dest, Cycle now) {
  if (!circuits_enabled()) return;
  DestState& ds = dest_state(dest);
  CacheEntry* entry = cache_.find(dest);
  if (entry == nullptr && !ds.setup.has_value()) return;  // nothing to do
  ds.release_when_drained = true;
  if (entry != nullptr && entry->ack_returned && !entry->in_use &&
      ds.queue.empty()) {
    ds.release_when_drained = false;
    teardown_now(dest, *entry, now);
  }
}

void NodeInterface::on_probe_result(const ProbeResult& result, Cycle now) {
  const CircuitRecord& rec = circuits_.at(result.circuit);
  const NodeId dest = rec.dest;
  DestState& ds = dest_state(dest);
  CacheEntry* entry = cache_.find(dest);
  if (entry == nullptr || entry->circuit != result.circuit ||
      !ds.setup.has_value()) {
    throw std::logic_error("probe result for unknown setup");
  }
  if (result.success) {
    instr_.emit(now, EventKind::kCircuitEstablished, node_, kInvalidMessage,
                result.circuit);
    entry->ack_returned = true;
    entry->probing = false;
    entry->channel = rec.path.empty() ? kInvalidPort : rec.path.front();
    // Allocate the end-point message buffers (paper section 2): CARP sizes
    // them from the declared message set, CLRP speculatively.
    circuits_.at(result.circuit).buffer_flits =
        ds.carp_buffer_flits > 0 ? ds.carp_buffer_flits
                                 : config_.software.clrp_initial_buffer_flits;
    ds.setup.reset();
    ++stats_.setups_succeeded;
    if (ds.release_when_drained && ds.queue.empty()) {
      // CARP released the circuit before setup even finished.
      ds.release_when_drained = false;
      teardown_now(dest, *entry, now);
      return;
    }
    try_start_transfer(dest, now);
    return;
  }
  if (ds.setup->advance()) {
    launch_attempt(dest, ds, now);
  } else {
    ++stats_.setups_failed;
    abandon_setup(dest, ds, now);
  }
}

void NodeInterface::on_release_demand(const ReleaseDemand& demand, Cycle now) {
  if (!circuits_.contains(demand.circuit)) {
    ++stats_.release_demands_discarded;
    return;
  }
  const CircuitRecord& rec = circuits_.at(demand.circuit);
  if (rec.state != CircuitState::kEstablished) {
    ++stats_.release_demands_discarded;  // duplicate / racing teardown
    return;
  }
  const NodeId dest = rec.dest;
  DestState& ds = dest_state(dest);
  CacheEntry* entry = cache_.find(dest);
  if (entry == nullptr || entry->circuit != demand.circuit) {
    ++stats_.release_demands_discarded;
    return;
  }
  ++stats_.release_demands_honored;
  instr_.emit(now, EventKind::kReleaseDemanded, node_, kInvalidMessage,
              demand.circuit);
  // entry->in_use can outlive rec.in_use by part of a cycle: the data plane
  // clears rec.in_use when the last ack arrives, but the TransferDone event
  // dispatches after release demands. Either flag means "message in
  // transit" here.
  if (rec.in_use || entry->in_use) {
    // Let the in-flight message finish (paper: "once the message currently
    // using that circuit has been sent"); on_transfer_done completes it.
    ds.release_urgent = true;
    return;
  }
  sim::Ring<MessageId> orphans = std::move(ds.queue);
  ds.release_urgent = false;
  ds.release_when_drained = false;
  instr_.emit(now, EventKind::kForceTeardown, node_, kInvalidMessage,
              demand.circuit);
  teardown_now(dest, *entry, now);
  requeue(std::move(orphans), now);
}

void NodeInterface::on_transfer_done(const TransferDone& done, Cycle now) {
  log_.mark_delivered(done.msg, done.delivered_at);
  instr_.emit(done.delivered_at, EventKind::kDelivered, done.dest, done.msg,
              done.circuit);
  instr_.emit(now, EventKind::kTransferCompleted, node_, done.msg,
              done.circuit);
  DestState& ds = dest_state(done.dest);
  CacheEntry* entry = cache_.find(done.dest);
  if (entry == nullptr || entry->circuit != done.circuit) {
    throw std::logic_error("transfer done for unknown circuit entry");
  }
  entry->in_use = false;
  if (ds.release_urgent) {
    ds.release_urgent = false;
    sim::Ring<MessageId> orphans = std::move(ds.queue);
    ds.release_when_drained = false;
    instr_.emit(now, EventKind::kForceTeardown, node_, kInvalidMessage,
                done.circuit);
    teardown_now(done.dest, *entry, now);
    requeue(std::move(orphans), now);
    return;
  }
  if (ds.release_when_drained && ds.queue.empty()) {
    ds.release_when_drained = false;
    teardown_now(done.dest, *entry, now);
    return;
  }
  try_start_transfer(done.dest, now);
}

void NodeInterface::on_circuit_killed(CircuitId circuit, NodeId dest,
                                      MessageId aborted, Cycle now) {
  instr_.emit(now, EventKind::kCircuitInvalidated, node_, aborted, circuit);
  ++stats_.circuits_invalidated;
  DestState& ds = dest_state(dest);
  CacheEntry* entry = cache_.find(dest);
  if (entry != nullptr && entry->circuit == circuit) {
    // The kill aborted any in-flight transfer, so the TransferDone that
    // would normally unpin the entry will never arrive: release the pin
    // here or invalidate() would (rightly) refuse to drop a live entry.
    entry->in_use = false;
    cache_.invalidate(*entry);
  }
  // Pending releases died with the circuit; don't carry them into the next
  // setup toward this destination.
  ds.release_urgent = false;
  ds.release_when_drained = false;
  circuits_.retire(circuit);
  sim::Ring<MessageId> orphans = std::move(ds.queue);
  if (aborted != kInvalidMessage) {
    // The in-flight message lost its circuit mid-transfer: resend it whole
    // over S0 (circuit flits never touch wormhole reassembly counters, so
    // the delivery accounting stays exact).
    send_wormhole(aborted, MessageMode::kWormholeFallback, now);
  }
  // Queued messages re-enter submit(): they re-probe over surviving links
  // or fall back to wormhole when DV says the destination is circuit-dark.
  requeue(std::move(orphans), now);
}

void NodeInterface::pump_retries(Cycle now) {
  // PCS-only mode: retry failed / deferred setups after their backoff.
  if (!config_.protocol.pcs_only) return;
  for (auto& [dest, ds] : dests_) {
    if (!ds.needs_retry || now < ds.retry_at) continue;
    if (ds.setup.has_value() || cache_.find(dest) != nullptr) {
      ds.needs_retry = false;
      continue;
    }
    if (ds.queue.empty()) {
      ds.needs_retry = false;
      continue;
    }
    ++stats_.setup_retries;
    if (start_setup(dest, SetupSequencer::Mode::kClrp, now)) {
      ds.needs_retry = false;
    } else {
      ds.retry_at = now + kPcsRetryBackoff;
    }
  }
}

void NodeInterface::pump_streams(Cycle now, wh::ShardIo& io) {
  // Messages clear the software send path (buffer allocation, copying,
  // packetization -- paper section 1) before their flits may inject.
  const auto overhead =
      static_cast<Cycle>(config_.software.wormhole_send_overhead);
  auto try_assign = [&](Stream& s) {
    if (s.active() || wormhole_pending_.empty()) return;
    const Packet& pkt = wormhole_pending_.front();
    if (pkt.created + overhead > now) return;  // still in the send path
    s = Stream{pkt, 0};
    wormhole_pending_.pop_front();
  };
  for (VcId v = 0; v < static_cast<VcId>(streams_.size()); ++v) {
    Stream& s = streams_[v];
    try_assign(s);
    while (s.active() && fabric_.can_inject(node_, v)) {
      const std::int32_t seq = s.pkt.start + s.sent;
      fabric_.inject(node_, v,
                     wh::make_packet_flit(s.pkt.msg, node_, s.pkt.dest, seq,
                                          s.pkt.msg_length, s.sent == 0,
                                          s.sent == s.pkt.count - 1,
                                          s.pkt.created),
                     io);
      if (++s.sent == s.pkt.count) {
        s = Stream{};
        try_assign(s);
      }
    }
  }
  bool live = !wormhole_pending_.empty();
  for (const Stream& s : streams_) live = live || s.active();
  fabric_.set_ni_work(node_, live);
}

void NodeInterface::snap(snap::Archive& ar) {
  cache_.snap(ar);
  const auto snap_dest_state = [](snap::Archive& a, DestState& ds) {
    ds.queue.snap(a, [](snap::Archive& b, MessageId& id) { b.pod(id); });
    bool has_setup = ds.setup.has_value();
    a.pod(has_setup);
    if (has_setup) {
      if (a.reading() && !ds.setup.has_value()) {
        // Placeholder construction; snap() overwrites every field.
        ds.setup.emplace(SetupSequencer::Mode::kClrp, sim::ClrpVariant{},
                         /*num_switches=*/1, /*initial_switch=*/0);
      }
      ds.setup->snap(a);
    } else if (a.reading()) {
      ds.setup.reset();
    }
    a.pod(ds.release_urgent);
    a.pod(ds.release_when_drained);
    a.pod(ds.carp_buffer_flits);
    a.pod(ds.needs_retry);
    a.pod(ds.retry_at);
  };
  // std::map iterates in key order: deterministic bytes by construction.
  if (ar.writing()) {
    std::uint64_t n = dests_.size();
    ar.pod(n);
    for (auto& [dest, ds] : dests_) {
      NodeId key = dest;
      ar.pod(key);
      snap_dest_state(ar, ds);
    }
  } else {
    dests_.clear();
    std::uint64_t n = 0;
    ar.pod(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      NodeId key = kInvalidNode;
      ar.pod(key);
      snap_dest_state(ar, dests_[key]);
    }
  }
  const auto snap_packet = [](snap::Archive& a, Packet& p) {
    a.pod(p.msg);
    a.pod(p.dest);
    a.pod(p.start);
    a.pod(p.count);
    a.pod(p.msg_length);
    a.pod(p.created);
  };
  wormhole_pending_.snap(ar, snap_packet);
  // Length-prefixed like a vector; the length is structural (one stream
  // per wormhole VC) and must match on restore.
  std::uint64_t n = streams_.size();
  ar.pod(n);
  if (n != streams_.size()) {
    throw snap::ArchiveError("NodeInterface: snapshot stream count differs");
  }
  for (Stream& s : streams_) {
    snap_packet(ar, s.pkt);
    ar.pod(s.sent);
  }
  ar.pod(stats_.circuit_messages);
  ar.pod(stats_.wormhole_messages);
  ar.pod(stats_.fallback_messages);
  ar.pod(stats_.setups_started);
  ar.pod(stats_.setups_succeeded);
  ar.pod(stats_.setups_failed);
  ar.pod(stats_.release_demands_honored);
  ar.pod(stats_.release_demands_discarded);
  ar.pod(stats_.buffer_reallocs);
  ar.pod(stats_.packets_sent);
  ar.pod(stats_.setup_retries);
  ar.pod(stats_.circuits_invalidated);
  ar.pod(stats_.unreachable_fallbacks);
}

}  // namespace wavesim::core
