// simcheck driver: fan scenarios across a thread pool, collect failures,
// shrink them, and persist each as a `wavesim.repro.v3` JSON artifact that
// replays bit-identically (same seed => same event-stream fingerprint).
//
// Determinism contract: scenario i of a run is Scenario::generate(
// harness::derive_seed(base_seed, i, 0)) — independent of thread count,
// scheduling and wall clock. Early exit after max_failures may let a few
// extra scenarios past the first failure complete; the report is then
// re-ranked by index, so the *reported* failures are stable too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "sim/json.hpp"

namespace wavesim::check {

struct SimcheckOptions {
  std::uint64_t base_seed = 1;
  std::size_t count = 100;
  unsigned threads = 0;           ///< 0 = all hardware threads
  std::size_t max_failures = 1;   ///< stop exploring after this many
  bool shrink_failures = true;
  /// Force a deterministic failure storm onto every scenario
  /// (Scenario::ensure_storm), so a whole run exercises the dynamic-fault
  /// machinery: link-down/-up handling, circuit invalidation, the
  /// distance-vector reachability oracle, seq/par equivalence under
  /// faults. The CI fault leg runs with this on.
  bool faulty = false;
};

/// One failing scenario, before and after shrinking. When shrinking is
/// disabled (or every transformation lost the failure) `shrunk` equals
/// `original`.
struct Failure {
  std::size_t index = 0;          ///< scenario index within the run
  Scenario original;
  RunOutcome original_outcome;
  Scenario shrunk;
  RunOutcome shrunk_outcome;
  std::size_t shrink_runs = 0;
  std::size_t shrink_accepted = 0;
};

struct Report {
  std::uint64_t base_seed = 0;
  std::size_t scenarios_run = 0;
  std::size_t saturated = 0;      ///< over-capacity runs (not failures)
  std::vector<Failure> failures;  ///< ascending index, <= max_failures
  bool ok() const noexcept { return failures.empty(); }
};

Report run_simcheck(const SimcheckOptions& options);

/// wavesim.repro.v3 document for one failure: the shrunk scenario (what
/// --replay executes), the original scenario, the violations observed and
/// the failing run's event fingerprint.
sim::JsonValue repro_to_json(const Failure& failure);

/// Parse a wavesim.repro.v3 document; throws std::runtime_error naming
/// what is malformed: a bad schema id, a missing or unknown member (every
/// member is required), a type mismatch, a counter that is not a whole
/// number in range, a "seed" inside a scenario's "spec", or a spec that
/// runspec_from_json (and so snap::validate) refuses.
Failure repro_from_json(const sim::JsonValue& value);

/// Load + parse a repro file (throws std::runtime_error on I/O or format).
Failure load_repro(const std::string& path);

/// Serialize `failure` to `<dir>/repro-seed-<hex>.json`; returns the path,
/// or an empty string when the file cannot be written.
std::string write_repro(const Failure& failure, const std::string& dir);

}  // namespace wavesim::check
