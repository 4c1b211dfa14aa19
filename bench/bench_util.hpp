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

/// Common command-line surface of every bench driver:
///   --json <path>     write a wavesim.bench.v1 metrics file
///   --threads N       worker threads for the points (0/default = all cores)
///   --quick           shrink the experiment for CI smoke runs
///   --help            usage
/// A driver adds its own flags through parse()'s `driver` handler
/// (bench_sweep: --replicas, --base-seed, --engine, --shards).
/// After parse(), report() both prints a table and records it for export;
/// finish(ok) writes the JSON file and maps ok to the process exit code.
/// (wavesim_cli --trace/--metrics observes a single run.)
class Cli {
 public:
  /// A driver's own flag: called with each argument the common surface
  /// does not know; `value()` consumes the flag's value and throws
  /// std::invalid_argument if there is none. Returns false for an
  /// unknown flag.
  using DriverFlag = std::function<bool(
      const std::string& arg, const std::function<const char*()>& value)>;

  Cli(std::string experiment, std::string title);

  /// Rename the run for the export (bench_sweep takes it from its spec).
  void rename(std::string experiment, std::string title) {
    experiment_ = std::move(experiment);
    title_ = std::move(title);
  }

  /// Returns false when the run should not proceed; exit_code() is then 0
  /// after --help and 2 after an unknown flag, a missing value or a
  /// std::invalid_argument from `driver`. `driver_help` is appended to
  /// --help.
  bool parse(int argc, char** argv, const DriverFlag& driver = {},
             const char* driver_help = "");
  int exit_code() const noexcept { return exit_code_; }

  unsigned threads() const noexcept { return threads_; }
  bool quick() const noexcept { return quick_; }

  /// The step engine the export records (default sequential).
  void set_engine(const engine::EngineConfig& engine) { engine_ = engine; }

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
  std::string experiment_;
  std::string title_;
  std::string json_path_;
  engine::EngineConfig engine_;
  unsigned threads_ = 0;
  bool quick_ = false;
  int exit_code_ = 0;
  std::chrono::steady_clock::time_point start_;
  sim::JsonValue tables_ = sim::JsonValue::array();
  sim::JsonValue extra_ = sim::JsonValue::object();
};

}  // namespace wavesim::bench
