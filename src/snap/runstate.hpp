// Checkpointable open-loop runs: a RunSpec names the whole experiment
// (configuration + workload + spans + seed), and CheckpointableRun owns
// every object a run needs — Simulation, traffic pattern, size
// distribution, OpenLoopDriver — so the complete run can be captured
// into one wavesim.snap.v1 container and resumed in a fresh process.
//
// The resumed run is bit-identical to an uninterrupted one: identical
// ExperimentResult, identical run.v1 JSON. The restoring process may
// install a different step engine (seq/par, any shard count) before
// continuing — results do not change, only wall time
// (core/step_engine.hpp's quiesce seam).
//
// Warm starting: every run whose spec shares warm_key() — same config,
// pattern and working set, load, message length, seed and warmup, any
// measure/drain — passes through the same state at the warmup/measure
// boundary. A checkpoint taken there seeds all such runs: restore,
// rebind() the measurement window, and only the measured span is
// simulated (tests/test_snap.cpp's SnapWarmStart suite checks it equals
// cold replay).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/simulation.hpp"
#include "sim/config.hpp"
#include "snap/snapshot.hpp"
#include "workload/generator.hpp"

namespace wavesim::snap {

struct RunSpec {
  sim::SimConfig config;
  std::string pattern = "uniform";
  load::WorkingSetParams working_set;  ///< used by pattern "working-set"
  std::int32_t message_flits = 64;  ///< the shortest message
  /// Message lengths over [message_flits, max_length()]: "fixed" |
  /// "uniform" | "bimodal".
  std::string sizes = "fixed";
  std::int32_t max_flits = 0;  ///< longest message; 0 = message_flits
  /// CARP calls around the sends (load::CarpCalls): "none" | "random".
  std::string carp = "none";
  double offered_load = 0.10;
  Cycle warmup = 2000;
  Cycle measure = 10000;
  Cycle drain_cap = 300'000;
  std::uint64_t seed = 1;
  friend bool operator==(const RunSpec&, const RunSpec&) = default;

  std::int32_t max_length() const noexcept {
    return max_flits != 0 ? max_flits : message_flits;
  }
};

/// RunSpec round trip (includes the embedded config).
void snap_runspec(Archive& ar, RunSpec& spec);

/// The drain cap a front end uses when the spec names none: generous
/// enough that only a saturated run hits it.
inline Cycle default_drain_cap(Cycle warmup, Cycle measure) {
  return 40 * (warmup + measure) + 1'000'000;
}

/// Throws std::invalid_argument unless CheckpointableRun can build the
/// spec: a valid config, a pattern that fits its topology
/// (load::check_traffic), length >= 1, 0 <= load/length <= 1,
/// working-set values in range (size >= 1, locality in [0, 1], skew in
/// [0, 1)) that differ from the defaults only under pattern
/// "working-set", a known size distribution whose max_flits is 0 or
/// >= length (== length under "fixed"), and CARP calls only under
/// protocol carp. Workload errors name their job.v1 field ("spec field
/// 'load': ..."). Builds no topology or network.
void validate(const RunSpec& spec);

/// Hash over the warm-sharable prefix of a spec: config, pattern and its
/// working-set values, load, message length, seed, warmup — NOT measure
/// or drain_cap. Two specs with equal warm keys reach identical
/// simulation state at the warmup/measure boundary, so they can share a
/// post-warmup checkpoint.
std::uint64_t warm_key(const RunSpec& spec);

class CheckpointableRun {
 public:
  /// Fresh run at cycle 0. Traffic pattern seeding matches wavesim_cli
  /// (sim::Rng{seed * 31 + 7}), so a checkpointed CLI run and a service
  /// job with the same spec are the same run.
  explicit CheckpointableRun(const RunSpec& spec);

  /// Resume from a checkpoint() snapshot, anywhere in any phase.
  explicit CheckpointableRun(const Snapshot& snapshot);

  const load::OpenLoopDriver& driver() const noexcept { return *driver_; }

  /// Install a step engine (nullptr = sequential). May differ from the
  /// engine the checkpointing process used.
  void set_engine(std::unique_ptr<core::StepEngine> engine) {
    sim_->set_engine(std::move(engine));
  }

  /// Advance by at most `max_cycles`; returns cycles consumed. See
  /// load::OpenLoopDriver::advance.
  Cycle advance(Cycle max_cycles) { return driver_->advance(max_cycles); }

  bool done() const noexcept { return driver_->done(); }
  const load::ExperimentResult& result() const { return driver_->result(); }

  bool at_measure_boundary() const noexcept {
    return driver_->at_measure_boundary();
  }

  /// Retarget the measurement window (warm start); only legal
  /// at_measure_boundary(). Updates the spec so later checkpoints carry
  /// the rebound spans.
  void rebind(Cycle measure, Cycle drain_cap);

  /// Capture the complete run: sections "config", "network" (from
  /// snapshot_simulation) plus "runspec", "pattern" and "driver". Must
  /// be called between advance() slices, never mid-step.
  Snapshot checkpoint();

  const RunSpec& spec() const noexcept { return spec_; }
  core::Simulation& sim() noexcept { return *sim_; }
  Cycle now() const noexcept { return sim_->now(); }

 private:
  void build(const RunSpec& spec);

  RunSpec spec_;
  std::unique_ptr<core::Simulation> sim_;
  std::unique_ptr<load::TrafficPattern> pattern_;
  std::unique_ptr<load::SizeDist> sizes_;
  std::unique_ptr<load::OpenLoopDriver> driver_;
};

}  // namespace wavesim::snap
