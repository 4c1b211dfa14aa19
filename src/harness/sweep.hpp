// Parallel experiment-sweep harness.
//
// A sweep is a list of labelled run specs; each point runs `replicas`
// independent measurements. Replica r of point p is the
// snap::CheckpointableRun of the point's spec with its seed replaced by
// derive_seed(base_seed, p, r) -- the same run wavesim_cli or a wavesimd
// job gives for that spec and seed. Tasks own their run, so they are
// embarrassingly parallel. Replica results are merged serially in index
// order, so the merged statistics are bit-identical regardless of how
// many worker threads executed the tasks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "sim/json.hpp"
#include "sim/stats.hpp"
#include "snap/runstate.hpp"

namespace wavesim::harness {

/// One SimulationStats field under its JSON key. `group` is the object it
/// nests in ("" = top level, "faults"); the table order is stats_to_json's
/// order, so walking it gives that document.
struct StatsField {
  const char* key;
  const char* group;
  std::variant<std::uint64_t core::SimulationStats::*,
               double core::SimulationStats::*>
      member;
};

/// Every SimulationStats field, once: stats_to_json, the sweep merge and
/// points_to_json walk it.
const std::vector<StatsField>& stats_fields();

/// One point of a sweep: a run spec under a stable report label. The
/// spec's seed is ignored; each replica derives its own.
struct SweepPoint {
  std::string label;
  snap::RunSpec spec;
};

struct SweepOptions {
  std::uint64_t base_seed = 1;
  std::int32_t replicas = 1;
  unsigned threads = 0;  ///< worker count; 0 = all hardware threads
  /// Step engine installed on every replica's run. The parallel engine
  /// never changes results (bit-identical to seq), only wall time;
  /// prefer engine parallelism for few large replicas and replica
  /// parallelism (threads above) for many small ones.
  engine::EngineConfig engine;
};

/// Seed of task (point_index, replica): a SplitMix64 hash of the three
/// inputs. Stable across platforms and releases of this harness.
std::uint64_t derive_seed(std::uint64_t base_seed, std::size_t point_index,
                          std::int32_t replica) noexcept;

/// Merged outcome of all replicas of one sweep point.
struct PointSummary {
  std::string label;
  std::int32_t replicas = 0;
  std::int32_t saturated_replicas = 0;  ///< replicas that hit the drain cap
  std::int32_t stuck_replicas = 0;      ///< watchdog said kStuck at the end
  /// Integer stats fields summed over the replicas (double fields stay 0).
  core::SimulationStats counters;
  /// Each double stats field's per-replica values, by key.
  std::map<std::string, sim::OnlineStats, std::less<>> metrics;

  /// The replicas' values of the double stats field `key`.
  const sim::OnlineStats& metric(std::string_view key) const;
  /// A point-summary key as one number: replicas, saturated_replicas,
  /// stuck_replicas, an integer stats field (the sum) or a double stats
  /// field (the mean over replicas). Throws std::invalid_argument naming
  /// an unknown key.
  double value(std::string_view key) const;
};

/// True for every key PointSummary::value accepts.
bool is_point_key(std::string_view key);

struct SweepResult {
  std::vector<PointSummary> points;
  std::uint64_t base_seed = 0;
  std::int32_t replicas = 0;
  engine::EngineConfig engine;  ///< step engine the replicas ran under
  unsigned threads_used = 0;
  std::size_t runs = 0;          ///< points x replicas actually executed
  double wall_seconds = 0.0;
};

/// Run every (point x replica) task across `options.threads` workers and
/// merge. Throws std::invalid_argument on a spec snap::validate refuses
/// and propagates simulation exceptions.
SweepResult run_sweep(const std::vector<SweepPoint>& points,
                      const SweepOptions& options);

/// The merged per-point statistics only — deterministic (bit-identical for
/// a fixed base seed, independent of thread count and wall time).
sim::JsonValue points_to_json(const SweepResult& result);

/// Full export: schema id, build/host metadata, wall time, and the points.
sim::JsonValue to_json(const SweepResult& result);

// -- Experiment spec files ----------------------------------------------------
// A spec file (docs/SWEEPS.md, "Experiment spec files") names an
// experiment and holds one or more tables. A table's points
// are the cartesian product of its axes; each point is a job.v1 run spec
// built from `base`, then the `quick` overrides under quick mode, then
// one value per axis, and decoded by snap::runspec_from_json. An axis
// whose values are objects is a bundle: each object's members go into
// the spec together, for paired settings such as (k, split).

/// A table column: a point-summary key, or the ratio `num/den` of two.
struct Column {
  std::string text;
  std::string num;
  std::string den;  ///< empty for a plain key
};

/// One table of an experiment: its columns and each point's axis cells.
struct TableSpec {
  std::string name;
  std::string title;
  std::vector<std::string> axis_keys;  ///< every axis's keys, in order
  std::vector<Column> columns;
  std::vector<std::vector<std::string>> cells;  ///< axis values per point
};

/// A decoded spec file: its header, tables, and every table's points.
struct Experiment {
  std::string id, title, setup, note;
  std::int32_t replicas = 1;
  std::vector<TableSpec> tables;
  std::vector<SweepPoint> points;  ///< every table's, in order
};

/// Decode an experiment spec document. Throws std::runtime_error naming
/// what is wrong: an unknown key, an empty or mistyped member, an unknown
/// column, a bundle axis mixing objects and scalars, or a point spec
/// runspec_from_json refuses.
Experiment load_spec(const sim::JsonValue& doc, bool quick);

/// Single-run stats as JSON (shared schema fragment; also used by the
/// service's results and wavesim_cli's run.v1).
sim::JsonValue stats_to_json(const core::SimulationStats& stats);

}  // namespace wavesim::harness
