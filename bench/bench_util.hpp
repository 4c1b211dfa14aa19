// Shared helpers for the experiment benches: aligned table printing, the
// common command-line surface (--json / --threads / --quick), and a
// parallel_for that fans independent sweep points across the harness
// thread pool (every point owns its Simulation; nothing is shared).
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "obs/observer.hpp"
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

  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }
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
///   --threads N       worker threads for parallel_for (0/default = all cores)
///   --quick           shrink the experiment for CI smoke runs
///   --trace <path>    record one representative run as wavesim.trace.v1
///   --metrics <path>  record its counters/histograms as wavesim.metrics.v1
///   --sample-every N  gauge sampling period for the observed run
///   --engine seq|par  step engine for each simulation (default seq)
///   --shards N        shard count for --engine par (default: auto)
///   --help            usage
/// After parse(), report() both prints a table and records it for export;
/// finish(ok) writes the JSON file and maps ok to the process exit code.
/// A driver supports --trace/--metrics by attaching observe(sim) to one
/// representative (single-threaded) run and calling write_observability()
/// when it completes; drivers that never do warn at finish().
class Cli {
 public:
  Cli(std::string experiment, std::string title);

  /// Register a driver-specific integer flag (e.g. "--replicas") that
  /// parse() will accept and store into *target. Call before parse().
  void add_int_flag(std::string flag, std::int64_t* target, std::string help);

  /// Returns false when the run should not proceed; exit_code() is then 0
  /// after --help and 2 after an unknown flag / missing value.
  bool parse(int argc, char** argv);
  int exit_code() const noexcept { return exit_code_; }

  unsigned threads() const noexcept { return threads_; }
  bool quick() const noexcept { return quick_; }
  bool json_enabled() const noexcept { return !json_path_.empty(); }

  /// True when --trace, --metrics, or --sample-every was given.
  bool observability_requested() const noexcept {
    return !trace_path_.empty() || !metrics_path_.empty() || sample_every_ > 0;
  }

  /// Attach an Observer (per the observability flags) to one
  /// representative simulation. Returns nullptr when no flag was given.
  /// The caller keeps the Observer alive for the run, then passes it to
  /// write_observability().
  std::unique_ptr<obs::Observer> observe(core::Simulation& sim) const;

  /// Write the trace/metrics files requested on the command line from an
  /// observer returned by observe(). Returns false if a write failed.
  bool write_observability(const obs::Observer& observer);

  /// The step engine selected by --engine/--shards (default sequential).
  const engine::EngineConfig& engine_config() const noexcept {
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
  std::string trace_path_;
  std::string metrics_path_;
  Cycle sample_every_ = 0;
  bool observability_written_ = false;
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

/// Run fn(i) for i in [0, n) on up to `threads` workers (0 = hardware
/// concurrency); blocks until all complete. Exceptions propagate. Backed
/// by harness::run_indexed.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace wavesim::bench
