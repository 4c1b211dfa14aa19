#include "check/shrink.hpp"

#include <algorithm>
#include <functional>
#include <vector>

namespace wavesim::check {

namespace {

/// One candidate simplification of a scenario and its config. Ordered
/// roughly by how much each removes: big structural cuts first so the
/// expensive early runs shrink the search space fastest, cosmetic knob
/// resets last.
using Transform = std::function<void(Scenario&, sim::SimConfig&)>;

std::vector<Transform> transforms() {
  using S = Scenario;
  using C = sim::SimConfig;
  return {
      // -- traffic volume ---------------------------------------------------
      [](S& s, C&) {
        s.spec.measure = std::max<Cycle>(128, s.spec.measure / 2);
      },
      [](S& s, C&) { s.spec.offered_load /= 2; },
      // -- topology ---------------------------------------------------------
      [](S&, C& c) {
        if (c.topology.radix.size() > 1) c.topology.radix.pop_back();
      },
      [](S&, C& c) {
        auto& radix = c.topology.radix;
        auto largest = std::max_element(radix.begin(), radix.end());
        *largest = std::max(2, *largest / 2);
      },
      [](S&, C& c) {
        auto& radix = c.topology.radix;
        auto largest = std::max_element(radix.begin(), radix.end());
        *largest = std::max(2, *largest - 1);
      },
      [](S&, C& c) { c.topology.torus = false; },
      // -- engine -----------------------------------------------------------
      // Try the sequential stepper first (a failure that survives without
      // the engine is not a synchronization bug); otherwise walk the shard
      // count down to find the smallest parallel configuration that still
      // diverges. Both are strictly reducing toward engine_shards = 0.
      [](S& s, C&) { s.engine_shards = 0; },
      [](S& s, C&) { s.engine_shards = std::max(0, s.engine_shards / 2); },
      // -- workload shape ---------------------------------------------------
      [](S& s, C&) { s.spec.pattern = "uniform"; },
      [](S& s, C&) {
        s.size_dist = "fixed";
        s.max_flits = s.spec.message_flits;
      },
      [](S& s, C&) {
        s.spec.message_flits = std::max(1, s.spec.message_flits / 2);
      },
      [](S&, C& c) { c.faults.link_fault_rate = 0.0; },
      [](S&, C& c) { c.protocol.max_packet_flits = 0; },
      // -- dynamic faults ---------------------------------------------------
      // Drop the storm entirely first; otherwise weaken it (fewer links,
      // no recovery wave). All strictly reducing toward the all-zero
      // canonical form repair() maintains.
      [](S&, C& c) { c.faults.storm.fraction = 0.0; },
      [](S&, C& c) { c.faults.storm.fraction /= 2; },
      [](S&, C& c) { c.faults.storm.repair_after = 0; },
      // -- protocol ---------------------------------------------------------
      [](S&, C& c) { c.protocol.pcs_only = false; },
      [](S&, C& c) { c.protocol.clrp_variant = sim::ClrpVariant::kFull; },
      // Keep every transform idempotent-or-strictly-reducing so the greedy
      // fixpoint terminates (CLRP<->wormhole would oscillate otherwise).
      [](S&, C& c) {
        if (c.protocol.protocol == sim::ProtocolKind::kCarp) {
          c.protocol.protocol = sim::ProtocolKind::kClrp;
        }
      },
      [](S&, C& c) { c.protocol.protocol = sim::ProtocolKind::kWormholeOnly; },
      [](S&, C& c) { c.router.wave_switches = 1; },
      [](S&, C& c) {
        c.protocol.max_misroutes = std::max(0, c.protocol.max_misroutes - 1);
      },
      [](S&, C& c) { c.protocol.circuit_cache_entries = 1; },
      [](S&, C& c) { c.protocol.replacement = sim::ReplacementPolicy::kLru; },
      // -- router -----------------------------------------------------------
      [](S&, C& c) {
        c.router.wormhole_vcs = std::max(1, c.router.wormhole_vcs - 1);
      },
      [](S&, C& c) { c.router.routing = sim::RoutingKind::kDimensionOrder; },
  };
}

}  // namespace

ShrinkResult shrink(const Scenario& scenario, const RunOutcome& outcome,
                    const ShrinkOptions& options) {
  ShrinkResult result;
  result.scenario = scenario;
  result.outcome = outcome;

  const std::vector<Transform> candidates = transforms();
  bool improved = true;
  while (improved && result.runs < options.max_runs) {
    improved = false;
    for (const Transform& t : candidates) {
      if (result.runs >= options.max_runs) break;
      Scenario candidate = result.scenario;
      t(candidate, candidate.spec.config);
      candidate.repair();
      if (candidate == result.scenario) continue;  // no-op here
      RunOutcome candidate_outcome =
          run_scenario(candidate, options.oracle);
      ++result.runs;
      if (candidate_outcome.ok()) continue;  // lost the failure; discard
      result.scenario = candidate;
      result.outcome = std::move(candidate_outcome);
      ++result.accepted;
      improved = true;
    }
  }
  return result;
}

}  // namespace wavesim::check
