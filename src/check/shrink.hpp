// Delta-debugging shrinker: given a violating scenario, greedily apply
// simplifying transformations (smaller topology, fewer knobs, less
// traffic) and keep any candidate that still violates, iterating to a
// fixpoint. The result is the smallest scenario this transformation set
// reaches that still reproduces *a* violation — ideal for triage, since a
// 2x2 run with four messages is readable where a 6x6x2 run is not. It
// terminates: a candidate runs only if it lowers shrink_measure, whose
// components take finitely many values, in lexicographic order.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "check/oracle.hpp"
#include "check/scenario.hpp"

namespace wavesim::check {

/// Hard cap on oracle runs spent shrinking one failure.
inline constexpr std::size_t kMaxShrinkRuns = 256;

/// shrink_measure's components, most significant first; an enum counts
/// its value (the simplest choice is 0).
enum ShrinkComponent : std::size_t {
  kInjectCycles, kLoad, kDims, kNodes, kTorus, kEngineShards, kPattern,
  kSizes, kLength, kFaultRate, kSegment, kStormLinks, kStormRepair,
  kPcsOnly, kVariant, kCarpCalls, kProtocol, kSwitches, kMisroutes,
  kCacheEntries, kReplacement, kVcs, kRouting, kShrinkComponents
};
using ShrinkMeasure = std::array<double, kShrinkComponents>;

ShrinkMeasure shrink_measure(const Scenario& scenario);

/// A simplification and the component it lowers whenever it changes a
/// repaired scenario.
struct ShrinkTransform {
  ShrinkComponent lowers;
  void (*apply)(Scenario&, sim::SimConfig&);  ///< config == scenario's
};

/// Every transform, big structural cuts first so the expensive early runs
/// shrink the search space fastest, cosmetic knob resets last.
const std::vector<ShrinkTransform>& shrink_transforms();

struct ShrinkResult {
  Scenario scenario;      ///< smallest still-failing scenario reached
  RunOutcome outcome;     ///< its violations
  std::size_t runs = 0;   ///< oracle executions spent
  std::size_t accepted = 0;  ///< transformations that kept the failure
};

/// Precondition: run_scenario(scenario) reports at least one violation
/// (the caller just observed it). Deterministic.
ShrinkResult shrink(const Scenario& scenario, const RunOutcome& outcome);

}  // namespace wavesim::check
