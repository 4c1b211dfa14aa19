// Destination-selection patterns for synthetic traffic.
//
// Classic spatial patterns (uniform, permutations, hotspot, tornado,
// nearest-neighbor) plus the temporal-locality pattern the paper's
// protocols are designed for: a per-source working set of favorite
// destinations that is revisited with configurable probability.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "topology/topology.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::load {

class TrafficPattern {
 public:
  virtual ~TrafficPattern() = default;
  /// Destination for the next message from `src`; never returns src.
  virtual NodeId pick(NodeId src, sim::Rng& rng) = 0;
  virtual const char* name() const noexcept = 0;
  /// Serialize mutable pattern state (snapshot/restore). Most patterns
  /// are stateless; WorkingSetTraffic overrides this with its sets.
  virtual void snap(snap::Archive& ar) { (void)ar; }
};

/// Uniformly random destination.
class UniformTraffic final : public TrafficPattern {
 public:
  explicit UniformTraffic(const topo::KAryNCube& topology);
  NodeId pick(NodeId src, sim::Rng& rng) override;
  const char* name() const noexcept override { return "uniform"; }

 private:
  const topo::KAryNCube& topology_;
};

/// Fraction `hot_fraction` of messages go to one hot node, rest uniform.
class HotspotTraffic final : public TrafficPattern {
 public:
  HotspotTraffic(const topo::KAryNCube& topology, NodeId hot,
                 double hot_fraction);
  NodeId pick(NodeId src, sim::Rng& rng) override;
  const char* name() const noexcept override { return "hotspot"; }

 private:
  const topo::KAryNCube& topology_;
  NodeId hot_;           // [snap: skip] config, fixed at construction
  double hot_fraction_;  // [snap: skip] config, fixed at construction
};

/// Matrix transpose: coordinates rotate one dimension (2-D: (x,y)->(y,x)).
class TransposeTraffic final : public TrafficPattern {
 public:
  explicit TransposeTraffic(const topo::KAryNCube& topology);
  NodeId pick(NodeId src, sim::Rng& rng) override;
  const char* name() const noexcept override { return "transpose"; }

 private:
  const topo::KAryNCube& topology_;
};

/// Bit reversal of the node index (requires power-of-two node count).
class BitReversalTraffic final : public TrafficPattern {
 public:
  explicit BitReversalTraffic(const topo::KAryNCube& topology);
  NodeId pick(NodeId src, sim::Rng& rng) override;
  const char* name() const noexcept override { return "bit-reversal"; }

 private:
  const topo::KAryNCube& topology_;
  std::int32_t bits_;  // [snap: skip] derived from topology at construction
};

/// Bit complement of the node index (requires power-of-two node count).
class BitComplementTraffic final : public TrafficPattern {
 public:
  explicit BitComplementTraffic(const topo::KAryNCube& topology);
  NodeId pick(NodeId src, sim::Rng& rng) override;
  const char* name() const noexcept override { return "bit-complement"; }

 private:
  const topo::KAryNCube& topology_;
};

/// Tornado: half-way around each ring dimension (worst case for DOR tori).
class TornadoTraffic final : public TrafficPattern {
 public:
  explicit TornadoTraffic(const topo::KAryNCube& topology);
  NodeId pick(NodeId src, sim::Rng& rng) override;
  const char* name() const noexcept override { return "tornado"; }

 private:
  const topo::KAryNCube& topology_;
};

/// Uniformly random direct neighbor (maximal spatial locality).
class NeighborTraffic final : public TrafficPattern {
 public:
  explicit NeighborTraffic(const topo::KAryNCube& topology);
  NodeId pick(NodeId src, sim::Rng& rng) override;
  const char* name() const noexcept override { return "neighbor"; }

 private:
  const topo::KAryNCube& topology_;
};

/// Temporal communication locality: each source keeps a working set of
/// `set_size` destinations; with probability `p_in_set` the next message
/// goes to a (uniformly chosen) member of the set, otherwise to a fresh
/// uniform destination that replaces a random member. p_in_set = 0 degrades
/// to uniform; p_in_set = 1 pins each source to a fixed set.
class WorkingSetTraffic final : public TrafficPattern {
 public:
  /// `skew` biases which member of the working set is reused: 0 = uniform;
  /// larger values make member 0 hottest (geometric rank distribution).
  WorkingSetTraffic(const topo::KAryNCube& topology, std::int32_t set_size,
                    double p_in_set, sim::Rng seed_rng, double skew = 0.0);
  NodeId pick(NodeId src, sim::Rng& rng) override;
  const char* name() const noexcept override { return "working-set"; }
  const std::vector<NodeId>& working_set(NodeId src) const {
    return sets_.at(src);
  }
  void snap(snap::Archive& ar) override;

 private:
  const topo::KAryNCube& topology_;
  double p_in_set_;  // [snap: skip] config, fixed at construction
  double skew_;      // [snap: skip] config, fixed at construction
  std::vector<std::vector<NodeId>> sets_;
};

/// The working-set pattern's shape: job.v1's ws_size, ws_locality and
/// ws_skew (WorkingSetTraffic's set_size, p_in_set and skew).
struct WorkingSetParams {
  std::int32_t size = 4;
  double locality = 0.8;
  double skew = 0.0;
  friend bool operator==(const WorkingSetParams&,
                         const WorkingSetParams&) = default;
};

/// Throws std::invalid_argument unless `name` is a pattern make_traffic
/// builds and it fits a network of these radices: transpose needs equal
/// radices, bit-reversal and bit-complement a power-of-two node count.
void check_traffic(const std::string& name,
                   const std::vector<std::int32_t>& radix);

/// Factory over pattern names used by benches and examples:
/// uniform | hotspot | transpose | bit-reversal | bit-complement | tornado
/// | neighbor | working-set (shaped by `working_set`). Calls check_traffic
/// first.
std::unique_ptr<TrafficPattern> make_traffic(
    const std::string& name, const topo::KAryNCube& topology,
    sim::Rng seed_rng, const WorkingSetParams& working_set = {});

}  // namespace wavesim::load
