#include "pcs/history.hpp"

#include <algorithm>
#include <stdexcept>

#include "snap/archive.hpp"

namespace wavesim::pcs {

HistoryStore::HistoryStore(std::int32_t num_nodes) : num_nodes_(num_nodes) {
  if (num_nodes < 1) {
    throw std::invalid_argument("HistoryStore: num_nodes < 1");
  }
}

HistoryStore::Slot HistoryStore::acquire(ProbeId probe) {
  if (!free_.empty()) {
    const Slot slot = free_.back();
    free_.pop_back();
    owner_[static_cast<std::size_t>(slot)] = probe;
    return slot;
  }
  const Slot slot = static_cast<Slot>(owner_.size());
  owner_.push_back(probe);
  extent_.push_back(0);
  masks_.resize(masks_.size() + static_cast<std::size_t>(num_nodes_), 0);
  return slot;
}

void HistoryStore::release(Slot slot) {
  std::int32_t& extent = extent_.at(static_cast<std::size_t>(slot));
  std::fill_n(masks_.begin() + static_cast<std::ptrdiff_t>(index(slot, 0)),
              extent, 0u);
  extent = 0;
  owner_[static_cast<std::size_t>(slot)] = kInvalidProbe;
  free_.push_back(slot);
}

void HistoryStore::mark(Slot slot, NodeId node, PortId out_port) {
  if (out_port < 0 || out_port >= 32) {
    throw std::invalid_argument("HistoryStore: port out of mask range");
  }
  if (node < 0 || node >= num_nodes_) {
    throw std::invalid_argument("HistoryStore: node out of range");
  }
  masks_.at(index(slot, node)) |= 1u << out_port;
  std::int32_t& extent = extent_[static_cast<std::size_t>(slot)];
  extent = std::max(extent, node + 1);
}

std::int64_t HistoryStore::entries(Slot slot) const {
  std::int64_t total = 0;
  for (NodeId node = 0; node < extent_.at(static_cast<std::size_t>(slot));
       ++node) {
    total += __builtin_popcount(masks_[index(slot, node)]);
  }
  return total;
}

HistoryStore::Slot HistoryStore::adopt(ProbeId probe) {
  const auto restored = std::find(owner_.begin(), owner_.end(), probe);
  if (restored != owner_.end()) {
    return static_cast<Slot>(restored - owner_.begin());
  }
  return acquire(probe);
}

void HistoryStore::snap(snap::Archive& ar) {
  if (ar.writing()) {
    std::vector<Slot> marked;
    for (Slot s = 0; s < static_cast<Slot>(owner_.size()); ++s) {
      if (extent_[static_cast<std::size_t>(s)] > 0) marked.push_back(s);
    }
    std::sort(marked.begin(), marked.end(), [this](Slot a, Slot b) {
      return owner_[static_cast<std::size_t>(a)] <
             owner_[static_cast<std::size_t>(b)];
    });
    std::uint64_t n = marked.size();
    ar.pod(n);
    for (Slot s : marked) {
      ProbeId probe = owner_[static_cast<std::size_t>(s)];
      ar.pod(probe);
      std::uint64_t len = static_cast<std::uint64_t>(extent_[s]);
      ar.pod(len);
      for (std::int32_t node = 0; node < extent_[s]; ++node) {
        ar.pod(masks_[index(s, node)]);
      }
    }
    return;
  }
  masks_.clear();
  extent_.clear();
  owner_.clear();
  free_.clear();
  std::uint64_t n = 0;
  ar.pod(n);
  std::vector<std::uint32_t> row;
  for (std::uint64_t i = 0; i < n; ++i) {
    ProbeId probe = kInvalidProbe;
    ar.pod(probe);
    ar.vec_pod(row);
    if (row.size() > static_cast<std::size_t>(num_nodes_) ||
        (!owner_.empty() && probe <= owner_.back())) {
      throw snap::ArchiveError("history row out of range or out of order");
    }
    const Slot slot = acquire(probe);
    std::copy(row.begin(), row.end(),
              masks_.begin() + static_cast<std::ptrdiff_t>(index(slot, 0)));
    extent_[static_cast<std::size_t>(slot)] =
        static_cast<std::int32_t>(row.size());
  }
}

}  // namespace wavesim::pcs
