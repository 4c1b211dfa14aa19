// Growable circular FIFO. Capacity grows in powers of two and never
// shrinks, so steady state performs no allocation, and an empty ring owns
// no storage: nothing is allocated before the first push_back. A moved-from
// ring is empty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "snap/archive.hpp"

namespace wavesim::sim {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(Ring&& other) noexcept { *this = std::move(other); }
  Ring& operator=(Ring&& other) noexcept {
    buf_ = std::exchange(other.buf_, {});
    mask_ = std::exchange(other.mask_, 0);
    head_ = std::exchange(other.head_, 0);
    count_ = std::exchange(other.count_, 0);
    return *this;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  const T& front() const {
    if (count_ == 0) throw std::logic_error("Ring::front on empty ring");
    return buf_[head_];
  }
  /// The last entry pushed.
  const T& back() const {
    if (count_ == 0) throw std::logic_error("Ring::back on empty ring");
    return buf_[(head_ + count_ - 1) & mask_];
  }

  void pop_front() {
    if (count_ == 0) throw std::logic_error("Ring::pop on empty ring");
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void push_back(const T& value) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = value;
    ++count_;
  }

  /// Serialize the logical FIFO content (snapshot/restore): the entry
  /// count as a u64, then each entry front to back through `fn(Archive&,
  /// T&)` -- the layout of snap::Archive::deq. The physical layout is
  /// normalized to head_ = 0 on restore, which can never affect behavior:
  /// pops and pushes see the same logical sequence either way.
  template <typename Fn>
  void snap(snap::Archive& ar, Fn&& fn) {
    std::uint64_t n = count_;
    ar.pod(n);
    if (ar.writing()) {
      for (std::size_t i = 0; i < count_; ++i) {
        fn(ar, buf_[(head_ + i) & mask_]);
      }
      return;
    }
    ar.check_len(n);
    *this = Ring{};
    if (n == 0) return;
    std::size_t cap = 8;
    while (cap < n) cap *= 2;
    buf_.resize(cap);
    mask_ = cap - 1;
    for (std::uint64_t i = 0; i < n; ++i) {
      fn(ar, buf_[i]);
      ++count_;
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

  // A ring belongs to one owner (a node's inbox, a node interface's
  // queue), which is the only one to touch it. [shard: owned]
  std::vector<T> buf_;
  std::size_t mask_ = 0;   ///< capacity - 1 (power of two) [shard: owned]
  std::size_t head_ = 0;   // [shard: owned]
  std::size_t count_ = 0;  // [shard: owned]
};

}  // namespace wavesim::sim
