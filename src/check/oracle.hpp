// The invariant-oracle stack one scenario runs under.
//
// Layered the way the paper's guarantees are layered:
//   structural  — escape-channel CDG acyclicity (Dally & Seitz / Duato),
//                 checked before a single cycle is simulated;
//   dynamic     — progress watchdog (deadlock, Theorems 1/2), per-attempt
//                 misroute budget m from the event stream (livelock,
//                 Theorem 3), periodic control-plane fsck (I1-I6);
//   post-run    — delivery completeness/causality/ordering/conservation,
//                 drained-state leak check, probe-step bound;
//   identity    — the run is the production one (snap::CheckpointableRun
//                 of the scenario's spec, under the parallel engine when
//                 engine_shards >= 1), checkpointed, encoded, decoded and
//                 restored at a cycle drawn from the seed. A one-shot
//                 sequential twin must match every observable (event
//                 fingerprint, offered, delivered, final cycle,
//                 saturation, violations), so engine and restore bugs
//                 surface as violations.
//
// The run also folds every instrumentation event into an order-sensitive
// 64-bit fingerprint, which is what "bit-identical replay" is checked
// against: two runs of the same scenario must produce the same event
// sequence, not merely the same aggregate counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "sim/types.hpp"

namespace wavesim::check {

struct RunOutcome {
  std::vector<std::string> violations;
  /// Drain cap elapsed while the watchdog still saw progress: the offered
  /// load exceeded capacity. Not a violation — completeness checks are
  /// skipped, everything else still applies.
  bool saturated = false;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  Cycle final_cycle = 0;
  /// Order-sensitive digest of the full instrumentation event stream.
  std::uint64_t fingerprint = 0;

  bool ok() const noexcept { return violations.empty(); }
  std::string summary() const;
  friend bool operator==(const RunOutcome&, const RunOutcome&) = default;
};

/// Run `scenario` under the full oracle stack. Deterministic: equal
/// scenarios produce equal RunOutcomes (including the fingerprint).
/// A scenario whose spec fails snap::validate yields a violation rather
/// than a throw, so hand-edited scenarios degrade gracefully.
RunOutcome run_scenario(const Scenario& scenario);

}  // namespace wavesim::check
