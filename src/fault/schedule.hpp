// Fault schedules: the `wavesim.faults.v1` file format and the expansion
// of declarative fault sources (explicit events, storms, Poisson churn)
// into one concrete, sorted timeline of link transitions.
//
// Expansion is deterministic: given the same FaultConfig, topology and
// Rng stream it produces the same timeline, so the sequential stepper and
// the sharded parallel engine (which share one Network) see bit-identical
// fault sequences, and a repro file replays exactly. See docs/FAULTS.md.
#pragma once

#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/json.hpp"
#include "sim/rng.hpp"
#include "topology/topology.hpp"

namespace wavesim::fault {

inline constexpr const char* kFaultsSchema = "wavesim.faults.v1";

/// Parse a `wavesim.faults.v1` document into a FaultConfig (dv defaults
/// apply for absent keys). Throws std::runtime_error on schema violations
/// (unknown keys are rejected -- a typo must not silently disable a
/// fault source). Range/topology validation happens later in
/// SimConfig::validate(), which needs the topology.
sim::FaultConfig faults_from_json(const sim::JsonValue& doc);

/// Serialize a FaultConfig back to `wavesim.faults.v1` (round-trips
/// through faults_from_json).
sim::JsonValue faults_to_json(const sim::FaultConfig& faults);

/// Read + parse a schedule file; throws std::runtime_error on I/O, parse
/// or schema errors (the CLI maps this to exit code 2).
sim::FaultConfig load_faults_file(const std::string& path);

/// Canonical representation of every bidirectional link: the (node, port)
/// with the positive port. `links` lists them ascending by (node, port).
std::vector<sim::FaultEvent> canonical_links(const topo::KAryNCube& topology);

/// How many of `links` canonical links `storm` fails: its fraction of
/// them, rounded, at least one; 0 without a storm.
std::size_t storm_links(const sim::FaultStorm& storm, std::size_t links);

/// Expand every fault source into one concrete timeline of kLinkDown /
/// kLinkUp events in canonical direction, sorted by (at, node, port,
/// kind). Node events become per-incident-link events; storms draw a
/// Fisher-Yates sample of the canonical links; churn draws per-cycle
/// Bernoulli failures with geometric repair delays. Overlapping sources
/// may name the same link twice -- application is idempotent (a down on a
/// dead link and an up on a live link are skipped).
std::vector<sim::FaultEvent> expand_schedule(const sim::FaultConfig& faults,
                                             const topo::KAryNCube& topology,
                                             sim::Rng rng);

}  // namespace wavesim::fault
