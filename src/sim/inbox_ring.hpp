// Growable circular FIFO of timed entries, ordered by due cycle.
//
// The fabric keeps one ring per node and per traffic class (credits,
// flits) instead of a global delay line: a node's arrivals are exactly
// the due-ordered prefix of its ring, so stepping a node never scans
// other nodes' traffic. Entries always arrive already ordered: commits
// run in ascending cycle order and each traffic class has one fixed
// latency, so push_back only checks the order.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/types.hpp"
#include "snap/archive.hpp"

namespace wavesim::sim {

/// T must expose a public `Cycle due` field. Capacity grows in powers of
/// two and never shrinks (steady state performs no allocation).
template <typename T>
class InboxRing {
 public:
  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  const T& front() const {
    if (count_ == 0) throw std::logic_error("InboxRing::front on empty ring");
    return buf_[head_];
  }

  void pop_front() {
    if (count_ == 0) throw std::logic_error("InboxRing::pop on empty ring");
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  /// Append at the back. `due` must not be below the back entry's, so
  /// the ring stays ordered front to back and equal dues keep commit
  /// order; a decreasing `due` throws std::logic_error.
  void push_back(const T& value) {
    if (count_ != 0 && value.due < buf_[(head_ + count_ - 1) & mask_].due) {
      throw std::logic_error("InboxRing::push_back: due would decrease");
    }
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = value;
    ++count_;
  }

  /// Serialize the logical FIFO content (snapshot/restore). Only the
  /// due-ordered entries round-trip; the physical layout is normalized
  /// to head_ = 0 on restore, which can never affect behavior -- pops
  /// and pushes see the same logical sequence either way. `fn` is the
  /// per-entry field serializer, `fn(Archive&, T&)`.
  template <typename Fn>
  void snap(snap::Archive& ar, Fn&& fn) {
    std::uint64_t n = count_;
    ar.pod(n);
    if (ar.writing()) {
      for (std::size_t i = 0; i < count_; ++i) {
        fn(ar, buf_[(head_ + i) & mask_]);
      }
    } else {
      buf_.clear();
      head_ = 0;
      count_ = 0;
      std::size_t cap = 8;
      while (cap < n) cap *= 2;
      buf_.resize(cap);
      mask_ = cap - 1;
      for (std::uint64_t i = 0; i < n; ++i) {
        fn(ar, buf_[i]);
        ++count_;
      }
    }
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = buf_[(head_ + i) & mask_];
    }
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  // A ring belongs to one node: its owning shard pops during the shard
  // phase; pushes happen only in the commit phase. [shard: owned]
  std::vector<T> buf_;
  std::size_t mask_ = 0;  ///< capacity - 1 (power of two) [shard: owned]
  std::size_t head_ = 0;   // [shard: owned]
  std::size_t count_ = 0;  // [shard: owned]
};

}  // namespace wavesim::sim
