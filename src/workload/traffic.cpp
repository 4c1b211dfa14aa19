#include "workload/traffic.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>
#include <string_view>

#include "snap/archive.hpp"

namespace wavesim::load {

namespace {

NodeId uniform_not_self(const topo::KAryNCube& topology, NodeId src,
                        sim::Rng& rng) {
  NodeId d = static_cast<NodeId>(rng.next_below(topology.num_nodes()));
  while (d == src) {
    d = static_cast<NodeId>(rng.next_below(topology.num_nodes()));
  }
  return d;
}

}  // namespace

UniformTraffic::UniformTraffic(const topo::KAryNCube& topology)
    : topology_(topology) {}

NodeId UniformTraffic::pick(NodeId src, sim::Rng& rng) {
  return uniform_not_self(topology_, src, rng);
}

HotspotTraffic::HotspotTraffic(const topo::KAryNCube& topology, NodeId hot,
                               double hot_fraction)
    : topology_(topology), hot_(hot), hot_fraction_(hot_fraction) {
  if (hot < 0 || hot >= topology.num_nodes()) {
    throw std::invalid_argument("HotspotTraffic: hot node out of range");
  }
  if (hot_fraction < 0.0 || hot_fraction > 1.0) {
    throw std::invalid_argument("HotspotTraffic: fraction out of [0,1]");
  }
}

NodeId HotspotTraffic::pick(NodeId src, sim::Rng& rng) {
  if (src != hot_ && rng.chance(hot_fraction_)) return hot_;
  return uniform_not_self(topology_, src, rng);
}

TransposeTraffic::TransposeTraffic(const topo::KAryNCube& topology)
    : topology_(topology) {}

NodeId TransposeTraffic::pick(NodeId src, sim::Rng& rng) {
  const auto c = topology_.coord_row(src);
  topo::Coord t(c.size());
  for (std::size_t d = 0; d < c.size(); ++d) {
    t[d] = c[(d + 1) % c.size()];
  }
  const NodeId dest = topology_.node_of(t);
  // Diagonal nodes map to themselves; fall back to uniform for them.
  return dest == src ? uniform_not_self(topology_, src, rng) : dest;
}

BitReversalTraffic::BitReversalTraffic(const topo::KAryNCube& topology)
    : topology_(topology),
      bits_(std::countr_zero(static_cast<unsigned>(topology.num_nodes()))) {}

NodeId BitReversalTraffic::pick(NodeId src, sim::Rng& rng) {
  NodeId dest = 0;
  for (std::int32_t b = 0; b < bits_; ++b) {
    if ((src >> b) & 1) dest |= 1 << (bits_ - 1 - b);
  }
  return dest == src ? uniform_not_self(topology_, src, rng) : dest;
}

BitComplementTraffic::BitComplementTraffic(const topo::KAryNCube& topology)
    : topology_(topology) {}

NodeId BitComplementTraffic::pick(NodeId src, sim::Rng& rng) {
  (void)rng;
  return src ^ (topology_.num_nodes() - 1);  // never equals src
}

TornadoTraffic::TornadoTraffic(const topo::KAryNCube& topology)
    : topology_(topology) {}

NodeId TornadoTraffic::pick(NodeId src, sim::Rng& rng) {
  const auto row = topology_.coord_row(src);
  topo::Coord c(row.begin(), row.end());
  for (std::int32_t d = 0; d < topology_.num_dims(); ++d) {
    const std::int32_t r = topology_.radix(d);
    c[d] = (c[d] + (r / 2 - (r % 2 == 0 ? 1 : 0))) % r;  // ~half-way around
  }
  const NodeId dest = topology_.node_of(c);
  return dest == src ? uniform_not_self(topology_, src, rng) : dest;
}

NeighborTraffic::NeighborTraffic(const topo::KAryNCube& topology)
    : topology_(topology) {}

NodeId NeighborTraffic::pick(NodeId src, sim::Rng& rng) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    const PortId p = static_cast<PortId>(rng.next_below(topology_.num_ports()));
    const NodeId d = topology_.neighbor(src, p);
    if (d != kInvalidNode && d != src) return d;
  }
  return uniform_not_self(topology_, src, rng);
}

WorkingSetTraffic::WorkingSetTraffic(const topo::KAryNCube& topology,
                                     std::int32_t set_size, double p_in_set,
                                     sim::Rng seed_rng, double skew)
    : topology_(topology), p_in_set_(p_in_set), skew_(skew) {
  if (set_size < 1) {
    throw std::invalid_argument("WorkingSetTraffic: set_size < 1");
  }
  if (p_in_set < 0.0 || p_in_set > 1.0) {
    throw std::invalid_argument("WorkingSetTraffic: p_in_set out of [0,1]");
  }
  if (skew < 0.0 || skew >= 1.0) {
    throw std::invalid_argument("WorkingSetTraffic: skew out of [0,1)");
  }
  sets_.resize(topology.num_nodes());
  for (NodeId src = 0; src < topology.num_nodes(); ++src) {
    auto& set = sets_[src];
    while (static_cast<std::int32_t>(set.size()) < set_size) {
      const NodeId d = uniform_not_self(topology, src, seed_rng);
      if (std::find(set.begin(), set.end(), d) == set.end()) {
        set.push_back(d);
      }
      if (static_cast<std::int32_t>(set.size()) >= topology.num_nodes() - 1) {
        break;
      }
    }
  }
}

NodeId WorkingSetTraffic::pick(NodeId src, sim::Rng& rng) {
  auto& set = sets_[src];
  if (rng.chance(p_in_set_)) {
    if (skew_ <= 0.0) return set[rng.next_below(set.size())];
    const auto rank = rng.geometric(skew_, set.size() - 1);
    return set[rank];
  }
  const NodeId fresh = uniform_not_self(topology_, src, rng);
  // Replace a cold member (the tail of the rank order) so hot members
  // survive under skewed reuse.
  const std::size_t victim =
      skew_ > 0.0 ? set.size() - 1 - rng.next_below((set.size() + 1) / 2)
                  : rng.next_below(set.size());
  set[victim] = fresh;
  return fresh;
}

void check_traffic(const std::string& name,
                   const std::vector<std::int32_t>& radix) {
  static constexpr std::string_view kNames[] = {
      "uniform", "hotspot", "transpose", "bit-reversal", "bit-complement",
      "tornado", "neighbor", "working-set"};
  if (std::find(std::begin(kNames), std::end(kNames), name) ==
      std::end(kNames)) {
    throw std::invalid_argument("unknown pattern '" + name + "'");
  }
  if (name == "transpose" &&
      std::adjacent_find(radix.begin(), radix.end(), std::not_equal_to<>()) !=
          radix.end()) {
    throw std::invalid_argument("pattern 'transpose' needs equal radices");
  }
  // A product of radices is a power of two iff every radix is one.
  const auto power_of_two = [](std::int32_t r) {
    return r > 0 && std::has_single_bit(static_cast<unsigned>(r));
  };
  if ((name == "bit-reversal" || name == "bit-complement") &&
      !std::all_of(radix.begin(), radix.end(), power_of_two)) {
    throw std::invalid_argument("pattern '" + name +
                                "' needs a power-of-two node count");
  }
}

std::unique_ptr<TrafficPattern> make_traffic(
    const std::string& name, const topo::KAryNCube& topology,
    sim::Rng seed_rng, const WorkingSetParams& working_set) {
  check_traffic(name, topology.radices());
  if (name == "uniform") return std::make_unique<UniformTraffic>(topology);
  if (name == "hotspot") {
    return std::make_unique<HotspotTraffic>(topology,
                                            topology.num_nodes() / 2, 0.2);
  }
  if (name == "transpose") return std::make_unique<TransposeTraffic>(topology);
  if (name == "bit-reversal") {
    return std::make_unique<BitReversalTraffic>(topology);
  }
  if (name == "bit-complement") {
    return std::make_unique<BitComplementTraffic>(topology);
  }
  if (name == "tornado") return std::make_unique<TornadoTraffic>(topology);
  if (name == "neighbor") return std::make_unique<NeighborTraffic>(topology);
  // check_traffic admits no other name.
  return std::make_unique<WorkingSetTraffic>(
      topology, working_set.size, working_set.locality, seed_rng,
      working_set.skew);
}

void WorkingSetTraffic::snap(snap::Archive& ar) {
  ar.vec(sets_, [](snap::Archive& a, std::vector<NodeId>& set) {
    a.vec_pod(set);
  });
}

}  // namespace wavesim::load
