// Shared helpers for the experiment benches: aligned table printing and
// the common command-line surface (--json / --threads / --quick). Drivers
// fan independent points across harness::run_indexed's thread pool
// (every point owns its Simulation; nothing is shared).
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "harness/runner.hpp"
#include "sim/json.hpp"

namespace wavesim::bench {

/// Print an experiment banner: id, claim, and setup description.
void banner(const std::string& id, const std::string& title,
            const std::string& setup);

/// Fixed-width table. Column widths adapt to the widest cell.
/// When the WAVESIM_CSV_DIR environment variable is set, print(name)
/// additionally writes `$WAVESIM_CSV_DIR/<name>.csv` for plotting.
class Table {
 public:
  explicit Table(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  void print(const std::string& csv_name = "") const;
  void write_csv(const std::string& path) const;

  /// {"name": ..., "header": [...], "rows": [[...], ...]}
  sim::JsonValue to_json(const std::string& name) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double value, int precision = 1);
std::string fmt_int(std::uint64_t value);
std::string fmt_pct(double fraction, int precision = 1);

/// Throw std::runtime_error(message) when `ok` is false. Bench drivers use
/// this to turn silently-ignored failure paths into non-zero exit codes.
void require(bool ok, const std::string& message);

/// Common command-line surface of every bench_e* driver:
///   --json <path>     write a wavesim.bench.v1 metrics file
///   --threads N       worker threads for the points (0/default = all cores)
///   --quick           shrink the experiment for CI smoke runs
///   --engine seq|par  step engine for each simulation (default seq)
///   --shards N        shard count for --engine par (default: auto)
///   --help            usage
/// After parse(), report() both prints a table and records it for export;
/// finish(ok) writes the JSON file and maps ok to the process exit code.
/// (wavesim_cli --trace/--metrics observes a single run.)
class Cli {
 public:
  Cli(std::string experiment, std::string title);

  /// Rename the run for the export (bench_sweep takes it from its spec).
  void rename(std::string experiment, std::string title) {
    experiment_ = std::move(experiment);
    title_ = std::move(title);
  }

  /// Register a driver-specific integer flag (e.g. "--replicas") that
  /// parse() will accept and store into *target. Call before parse().
  void add_int_flag(std::string flag, std::int64_t* target, std::string help);

  /// Returns false when the run should not proceed; exit_code() is then 0
  /// after --help and 2 after an unknown flag / missing value.
  bool parse(int argc, char** argv);
  int exit_code() const noexcept { return exit_code_; }

  unsigned threads() const noexcept { return threads_; }
  bool quick() const noexcept { return quick_; }

  /// The step engine selected by --engine/--shards (default sequential).
  /// A driver that hands it on (bench_sweep) counts as installing it.
  const engine::EngineConfig& engine_config() const noexcept {
    engine_installed_ = true;
    return engine_;
  }

  /// Install the selected step engine on a simulation (no-op for seq;
  /// results never change either way — the engine only affects wall
  /// time). Drivers that never call this warn at finish() when a parallel
  /// engine was requested.
  void install_engine(core::Simulation& sim) const;

  /// Print the table (CSV side effect included) and record it for JSON
  /// export under `name`.
  void report(const Table& table, const std::string& name);

  /// Attach an extra datum to the export's "extra" object.
  void note(const std::string& key, sim::JsonValue value);

  /// Write the JSON export when --json was given; returns the driver exit
  /// code: 0 when `ok` and the write succeeded, 1 otherwise.
  int finish(bool ok = true);

  /// Run the experiment body and convert exceptions into exit code 1.
  /// The body returns whether the run succeeded; finish() is called on
  /// normal completion.
  int run(const std::function<bool()>& body);

 private:
  struct IntFlag {
    std::string flag;
    std::int64_t* target;
    std::string help;
  };

  std::string experiment_;
  std::string title_;
  std::string json_path_;
  engine::EngineConfig engine_;
  mutable bool engine_installed_ = false;
  std::vector<IntFlag> int_flags_;
  unsigned threads_ = 0;
  bool quick_ = false;
  int exit_code_ = 0;
  std::chrono::steady_clock::time_point start_;
  sim::JsonValue tables_ = sim::JsonValue::array();
  sim::JsonValue extra_ = sim::JsonValue::object();
};

}  // namespace wavesim::bench
