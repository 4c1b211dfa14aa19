#include "check/shrink.hpp"

#include <algorithm>

#include "fault/schedule.hpp"
#include "topology/topology.hpp"

namespace wavesim::check {

namespace {

std::size_t link_count(const sim::TopologyConfig& t) {
  return fault::canonical_links(topo::KAryNCube(t.radix, t.torus)).size();
}

/// Links the storm fails; 0 without a storm.
std::size_t storm_links(const sim::SimConfig& c) {
  if (!(c.faults.storm.fraction > 0.0)) return 0;
  return fault::storm_links(c.faults.storm, link_count(c.topology));
}

}  // namespace

ShrinkMeasure shrink_measure(const Scenario& s) {
  const snap::RunSpec& r = s.spec;
  const sim::SimConfig& c = r.config;
  const sim::ProtocolConfig& p = c.protocol;
  double nodes = 1;
  for (const std::int32_t radix : c.topology.radix) nodes *= radix;
  const auto n = [](auto v) { return static_cast<double>(v); };
  return {n(r.measure), r.offered_load, n(c.topology.radix.size()), nodes,
          n(c.topology.torus), n(s.engine_shards), n(r.pattern != "uniform"),
          n(r.sizes != "fixed"), n(r.message_flits),
          c.faults.link_fault_rate, n(p.max_packet_flits), n(storm_links(c)),
          n(c.faults.storm.repair_after), n(p.pcs_only), n(p.clrp_variant),
          n(r.carp != "none"), n(p.protocol), n(c.router.wave_switches),
          n(p.max_misroutes), n(p.circuit_cache_entries), n(p.replacement),
          n(c.router.wormhole_vcs), n(c.router.routing)};
}

const std::vector<ShrinkTransform>& shrink_transforms() {
  using S = Scenario;
  using C = sim::SimConfig;
  static const std::vector<ShrinkTransform> transforms = {
      // -- traffic volume ---------------------------------------------------
      {kInjectCycles,
       [](S& s, C&) {
         s.spec.measure = std::max<Cycle>(128, s.spec.measure / 2);
       }},
      {kLoad, [](S& s, C&) { s.spec.offered_load /= 2; }},
      // -- topology ---------------------------------------------------------
      {kDims,
       [](S&, C& c) {
         if (c.topology.radix.size() > 1) c.topology.radix.pop_back();
       }},
      {kNodes,
       [](S&, C& c) {
         auto& radix = c.topology.radix;
         auto largest = std::max_element(radix.begin(), radix.end());
         *largest = std::max(2, *largest / 2);
       }},
      {kNodes,
       [](S&, C& c) {
         auto& radix = c.topology.radix;
         auto largest = std::max_element(radix.begin(), radix.end());
         *largest = std::max(2, *largest - 1);
       }},
      {kTorus, [](S&, C& c) { c.topology.torus = false; }},
      // -- engine -----------------------------------------------------------
      // Try the sequential stepper first (a failure that survives without
      // the engine is not a synchronization bug); otherwise walk the shard
      // count down to find the smallest parallel configuration that still
      // diverges.
      {kEngineShards, [](S& s, C&) { s.engine_shards = 0; }},
      {kEngineShards,
       [](S& s, C&) { s.engine_shards = std::max(0, s.engine_shards / 2); }},
      // -- workload shape ---------------------------------------------------
      {kPattern, [](S& s, C&) { s.spec.pattern = "uniform"; }},
      {kSizes, [](S& s, C&) { s.spec.sizes = "fixed"; }},
      {kLength,
       [](S& s, C&) {
         s.spec.message_flits = std::max(1, s.spec.message_flits / 2);
       }},
      {kFaultRate, [](S&, C& c) { c.faults.link_fault_rate = 0.0; }},
      {kSegment, [](S&, C& c) { c.protocol.max_packet_flits = 0; }},
      // -- dynamic faults ---------------------------------------------------
      // Drop the storm entirely first; otherwise fail half as many whole
      // links (at one link only dropping it remains), then never repair.
      {kStormLinks, [](S&, C& c) { c.faults.storm.fraction = 0.0; }},
      {kStormLinks,
       [](S&, C& c) {
         const std::size_t count = storm_links(c);
         if (count < 2) return;
         c.faults.storm.fraction = static_cast<double>(count / 2) /
                                   static_cast<double>(link_count(c.topology));
       }},
      {kStormRepair, [](S&, C& c) { c.faults.storm.repair_after = 0; }},
      // -- protocol ---------------------------------------------------------
      {kPcsOnly, [](S&, C& c) { c.protocol.pcs_only = false; }},
      {kVariant,
       [](S&, C& c) { c.protocol.clrp_variant = sim::ClrpVariant::kFull; }},
      {kCarpCalls, [](S& s, C&) { s.spec.carp = "none"; }},
      {kProtocol,
       [](S&, C& c) {
         if (c.protocol.protocol == sim::ProtocolKind::kCarp) {
           c.protocol.protocol = sim::ProtocolKind::kClrp;
         }
       }},
      {kProtocol,
       [](S&, C& c) {
         c.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
       }},
      {kSwitches, [](S&, C& c) { c.router.wave_switches = 1; }},
      {kMisroutes,
       [](S&, C& c) {
         c.protocol.max_misroutes = std::max(0, c.protocol.max_misroutes - 1);
       }},
      {kCacheEntries, [](S&, C& c) { c.protocol.circuit_cache_entries = 1; }},
      {kReplacement,
       [](S&, C& c) { c.protocol.replacement = sim::ReplacementPolicy::kLru; }},
      // -- router -----------------------------------------------------------
      {kVcs,
       [](S&, C& c) {
         c.router.wormhole_vcs = std::max(1, c.router.wormhole_vcs - 1);
       }},
      {kRouting,
       [](S&, C& c) {
         c.router.routing = sim::RoutingKind::kDimensionOrder;
       }},
  };
  return transforms;
}

ShrinkResult shrink(const Scenario& scenario, const RunOutcome& outcome) {
  ShrinkResult result;
  result.scenario = scenario;
  result.outcome = outcome;

  bool improved = true;
  while (improved && result.runs < kMaxShrinkRuns) {
    improved = false;
    for (const ShrinkTransform& t : shrink_transforms()) {
      if (result.runs >= kMaxShrinkRuns) break;
      Scenario candidate = result.scenario;
      t.apply(candidate, candidate.spec.config);
      candidate.repair();
      // A no-op here, or a change the measure does not count as simpler.
      if (!(shrink_measure(candidate) < shrink_measure(result.scenario))) {
        continue;
      }
      RunOutcome candidate_outcome = run_scenario(candidate);
      ++result.runs;
      if (candidate_outcome.ok()) continue;  // lost the failure; discard
      result.scenario = std::move(candidate);
      result.outcome = std::move(candidate_outcome);
      ++result.accepted;
      improved = true;
    }
  }
  return result;
}

}  // namespace wavesim::check
