// Circular FIFO of timed entries, ordered by due cycle.
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

#include "sim/ring.hpp"
#include "sim/types.hpp"
#include "snap/archive.hpp"

namespace wavesim::sim {

/// T must expose a public `Cycle due` field. Storage is a sim::Ring: no
/// allocation before the first push, none in steady state.
template <typename T>
class InboxRing {
 public:
  bool empty() const noexcept { return ring_.empty(); }
  std::size_t size() const noexcept { return ring_.size(); }
  const T& front() const { return ring_.front(); }
  void pop_front() { ring_.pop_front(); }

  /// Append at the back. `due` must not be below the back entry's, so
  /// the ring stays ordered front to back and equal dues keep commit
  /// order; a decreasing `due` throws std::logic_error.
  void push_back(const T& value) {
    if (!ring_.empty() && value.due < ring_.back().due) {
      throw std::logic_error("InboxRing::push_back: due would decrease");
    }
    ring_.push_back(value);
  }

  /// Serialize the logical FIFO content (see Ring::snap).
  template <typename Fn>
  void snap(snap::Archive& ar, Fn&& fn) {
    ring_.snap(ar, std::forward<Fn>(fn));
  }

 private:
  // A ring belongs to one node: its owning shard pops during the shard
  // phase; pushes happen only in the commit phase. [shard: owned]
  Ring<T> ring_;
};

}  // namespace wavesim::sim
