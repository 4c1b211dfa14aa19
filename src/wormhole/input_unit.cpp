#include "wormhole/input_unit.hpp"

#include <stdexcept>

#include "snap/archive.hpp"

namespace wavesim::wh {

InputVc::InputVc(Flit* slots, std::int32_t capacity)
    : slots_(slots), capacity_(capacity) {
  if (capacity < 1) throw std::invalid_argument("InputVc: capacity < 1");
}

void InputVc::push(const Flit& flit) {
  if (full()) throw std::logic_error("InputVc overflow: credit protocol bug");
  std::int32_t tail = head_ + size_;
  if (tail >= capacity_) tail -= capacity_;
  slots_[tail] = flit;
  ++size_;
}

const Flit& InputVc::front() const {
  if (size_ == 0) throw std::logic_error("InputVc::front on empty VC");
  return slots_[head_];
}

Flit InputVc::pop() {
  if (size_ == 0) throw std::logic_error("InputVc::pop on empty VC");
  Flit f = slots_[head_];
  if (++head_ == capacity_) head_ = 0;
  --size_;
  return f;
}

void InputVc::start_routing(std::vector<route::RouteCandidate> candidates) {
  if (state_ != VcState::kIdle) {
    throw std::logic_error("InputVc::start_routing while not idle");
  }
  candidates_ = std::move(candidates);
  state_ = VcState::kRouting;
}

void InputVc::start_routing(const route::RouteCandidate* candidates,
                            std::size_t count) {
  if (state_ != VcState::kIdle) {
    throw std::logic_error("InputVc::start_routing while not idle");
  }
  candidates_.assign(candidates, candidates + count);
  state_ = VcState::kRouting;
}

void InputVc::activate(PortId out_port, VcId out_vc) {
  if (state_ != VcState::kRouting) {
    throw std::logic_error("InputVc::activate while not routing");
  }
  out_port_ = out_port;
  out_vc_ = out_vc;
  state_ = VcState::kActive;
  candidates_.clear();
}

void InputVc::snap(snap::Archive& ar) {
  std::int32_t n = size_;
  ar.pod(n);
  if (ar.writing()) {
    for (std::int32_t i = 0; i < size_; ++i) {
      std::int32_t pos = head_ + i;
      if (pos >= capacity_) pos -= capacity_;
      snap_flit(ar, slots_[pos]);
    }
  } else {
    if (n < 0 || n > capacity_) {
      throw snap::ArchiveError("InputVc: snapshot occupancy out of range");
    }
    head_ = 0;
    size_ = n;
    for (std::int32_t i = 0; i < n; ++i) snap_flit(ar, slots_[i]);
  }
  ar.pod(state_);
  ar.vec(candidates_, [](snap::Archive& a, route::RouteCandidate& c) {
    a.pod(c.port);
    a.pod(c.vc);
    a.pod(c.escape);
  });
  ar.pod(out_port_);
  ar.pod(out_vc_);
}

void InputVc::release() {
  if (state_ != VcState::kActive) {
    throw std::logic_error("InputVc::release while not active");
  }
  state_ = VcState::kIdle;
  out_port_ = kInvalidPort;
  out_vc_ = kInvalidVc;
}

}  // namespace wavesim::wh
