#include "core/data_plane.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "snap/archive.hpp"

namespace wavesim::core {

DataPlane::DataPlane(CircuitTable& circuits, const DataPlaneParams& params)
    : circuits_(circuits), params_(params) {
  if (params.flits_per_cycle <= 0.0 || params.wave_clock_factor <= 0.0 ||
      params.window < 1) {
    throw std::invalid_argument("DataPlane: bad params");
  }
}

Cycle DataPlane::pipe_latency(std::int32_t hops) const {
  // Each hop costs one wave cycle (switch + wire, no flit buffering);
  // plus one base cycle of synchronizer delay at the delivery end.
  const double cycles =
      static_cast<double>(hops) / params_.wave_clock_factor;
  return static_cast<Cycle>(std::ceil(cycles)) + 1;
}

void DataPlane::start_transfer(MessageId msg, CircuitId circuit,
                               std::int32_t length, Cycle now,
                               Cycle start_delay) {
  CircuitRecord& rec = circuits_.at(circuit);
  if (rec.state != CircuitState::kEstablished) {
    throw std::logic_error("start_transfer: circuit not established");
  }
  if (rec.in_use) {
    throw std::logic_error("start_transfer: circuit already carrying a message");
  }
  if (length < 1) throw std::invalid_argument("start_transfer: empty message");
  rec.in_use = true;
  ++rec.messages_carried;
  Transfer t;
  t.msg = msg;
  t.circuit = circuit;
  t.length = length;
  t.started = now;
  t.not_before = now + start_delay;
  t.pipe = pipe_latency(rec.hops());
  t.deliveries.reserve(static_cast<std::size_t>(length));
  transfers_.emplace(msg, std::move(t));
}

void DataPlane::step(Cycle now) {
  for (auto it = transfers_.begin(); it != transfers_.end();) {
    Transfer& t = it->second;
    if (now < t.not_before) {
      ++it;  // still in the software send path / buffer re-allocation
      continue;
    }
    // 1. Acks arriving at the source this cycle: a flit delivered at cycle
    //    c is acknowledged at c + pipe.
    while (t.acked < t.sent && t.deliveries_head < t.deliveries.size() &&
           t.deliveries[t.deliveries_head] + t.pipe <= now) {
      ++t.deliveries_head;
      ++t.acked;
    }
    if (t.deliveries_head == t.deliveries.size()) {
      t.deliveries.clear();
      t.deliveries_head = 0;
    }
    // 2. Inject new flits: bandwidth accumulator, window limit.
    t.send_credit += params_.flits_per_cycle;
    while (t.sent < t.length && t.send_credit >= 1.0 &&
           t.sent - t.acked < params_.window) {
      t.send_credit -= 1.0;
      ++t.sent;
      t.deliveries.push_back(now + t.pipe);
      t.last_delivery = now + t.pipe;
      ++flits_delivered_;
    }
    if (t.send_credit > params_.flits_per_cycle) {
      t.send_credit = params_.flits_per_cycle;  // don't bank idle cycles
    }
    // 3. Completion: every flit sent and acknowledged.
    if (t.sent == t.length && t.acked == t.length) {
      CircuitRecord& rec = circuits_.at(t.circuit);
      rec.in_use = false;
      completed_.push_back(TransferDone{t.msg, t.circuit, rec.src, rec.dest,
                                        t.last_delivery, now});
      it = transfers_.erase(it);
    } else {
      ++it;
    }
  }
}

MessageId DataPlane::abort_transfer(CircuitId circuit) {
  for (auto it = transfers_.begin(); it != transfers_.end(); ++it) {
    if (it->second.circuit != circuit) continue;
    const MessageId msg = it->first;
    circuits_.at(circuit).in_use = false;
    transfers_.erase(it);
    ++transfers_aborted_;
    return msg;  // a circuit carries at most one message (In-use bit)
  }
  return kInvalidMessage;
}

const std::vector<TransferDone>& DataPlane::take_completed() {
  drained_.clear();
  drained_.swap(completed_);
  return drained_;
}

void DataPlane::snap(snap::Archive& ar) {
  const auto snap_transfer = [](snap::Archive& a, Transfer& t) {
    a.pod(t.msg);
    a.pod(t.circuit);
    a.pod(t.length);
    a.pod(t.sent);
    a.pod(t.acked);
    a.pod(t.send_credit);
    a.pod(t.started);
    a.pod(t.not_before);
    a.pod(t.pipe);
    a.pod(t.last_delivery);
    a.vec_pod(t.deliveries);
    std::uint64_t head = t.deliveries_head;
    a.pod(head);
    t.deliveries_head = static_cast<std::size_t>(head);
  };
  // std::map iterates in key order already, so writing in iteration
  // order is deterministic.
  if (ar.writing()) {
    std::uint64_t n = transfers_.size();
    ar.pod(n);
    for (auto& [msg, transfer] : transfers_) {
      MessageId key = msg;
      ar.pod(key);
      snap_transfer(ar, transfer);
    }
  } else {
    transfers_.clear();
    std::uint64_t n = 0;
    ar.pod(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      MessageId key = kInvalidMessage;
      ar.pod(key);
      snap_transfer(ar, transfers_[key]);
    }
  }
  ar.vec(completed_, [](snap::Archive& a, TransferDone& d) {
    a.pod(d.msg);
    a.pod(d.circuit);
    a.pod(d.src);
    a.pod(d.dest);
    a.pod(d.delivered_at);
    a.pod(d.acked_at);
  });
  ar.pod(flits_delivered_);
  ar.pod(transfers_aborted_);
}

}  // namespace wavesim::core
