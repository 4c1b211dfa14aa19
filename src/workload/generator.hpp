// Open-loop Bernoulli traffic generation and the warmup / measure / drain
// experiment harness used by every benchmark.
#pragma once

#include <memory>

#include "core/simulation.hpp"
#include "verify/watchdog.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic.hpp"

namespace wavesim::snap {
class Archive;
}  // namespace wavesim::snap

namespace wavesim::load {

/// The CARP calls around each send (a run spec's `carp`). With `random`,
/// establish_circuit(src, dest) with `buffer_flits` buffers precedes it
/// w.p. 0.3 and release_circuit(src, dest) follows it w.p. 0.1; without
/// it the generator draws nothing for them.
struct CarpCalls {
  bool random = false;
  std::int32_t buffer_flits = 0;
};

/// Injects messages open-loop: every cycle, every node offers a message
/// with probability `offered_load / mean_length` so that the offered load
/// in flits per node per cycle matches the request.
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(core::Simulation& sim, TrafficPattern& pattern,
                    SizeDist& sizes, double offered_flits_per_node_cycle,
                    sim::Rng rng, CarpCalls carp = {});

  /// Draw the next `cycles` cycles of traffic (cycle-major, node-minor)
  /// into Network::schedule_send, then advance the simulation with one
  /// run() call. Any split of a span into batches offers the same traffic.
  void run_batch(Cycle cycles);

  std::uint64_t offered_messages() const noexcept { return offered_; }

  /// Serialize the generator's RNG stream and offered counter
  /// (snapshot/restore).
  void snap(snap::Archive& ar);

 private:
  core::Simulation& sim_;
  TrafficPattern& pattern_;
  SizeDist& sizes_;
  /// Each node offers a message each cycle with p = load / mean length.
  sim::Bernoulli offer_;  // [snap: skip] derived from config at construction
  CarpCalls carp_;        // [snap: skip] config, fixed at construction
  sim::Rng rng_;
  std::uint64_t offered_ = 0;
};

/// One complete measurement: warm up, measure, then drain in-flight
/// traffic, reporting statistics over messages created during the
/// measurement window only.
struct ExperimentResult {
  core::SimulationStats stats;
  std::uint64_t offered_messages = 0;
  bool drained = true;  ///< false if the drain cap was hit (saturation)
  Cycle cycles_total = 0;
  /// Last progress-watchdog verdict (polled every 512 cycles throughout
  /// warmup, measurement, and drain).
  verify::Verdict watchdog_verdict = verify::Verdict::kIdle;
  Cycle max_stalled = 0;  ///< longest no-movement stretch observed
};

/// Resumable form of run_open_loop: the same warmup / measure / drain
/// state machine, but advanced in caller-chosen slices so the run can be
/// checkpointed between slices (src/snap) or preempted by a job scheduler
/// (src/service). Driving a fresh driver to completion — any slicing —
/// yields results bit-identical to run_open_loop: message sequence, RNG
/// draw order, and watchdog poll cycles are all slice-invariant.
class OpenLoopDriver {
 public:
  static constexpr Cycle kPollEvery = 512;  ///< watchdog poll period

  OpenLoopDriver(core::Simulation& sim, TrafficPattern& pattern,
                 SizeDist& sizes, double offered_load, Cycle warmup,
                 Cycle measure, Cycle drain_cap, std::uint64_t seed,
                 CarpCalls carp = {});

  /// Advance the run by at most `max_cycles` simulated cycles. Returns the
  /// cycles actually consumed (less than `max_cycles` only when the run
  /// completes). Phase transitions are eager: bookkeeping for a finished
  /// phase happens before returning, so a snapshot taken between slices is
  /// never ambiguous about which phase it is in.
  Cycle advance(Cycle max_cycles);

  bool done() const noexcept { return phase_ == Phase::kDone; }

  /// Valid once done(): the same result run_open_loop would return.
  const ExperimentResult& result() const;

  /// True exactly at the warmup/measure boundary (warmup finished, no
  /// measured cycle run yet) — the point sweeps warm-start from.
  bool at_measure_boundary() const noexcept {
    return phase_ == Phase::kMeasure && done_in_phase_ == 0;
  }

  /// Retarget the measurement window. Only legal at_measure_boundary():
  /// a warm-started sweep point restores a shared post-warmup snapshot
  /// and then measures for its own span.
  void rebind(Cycle measure, Cycle drain_cap);

  /// The last watchdog poll's verdict and the stall it measured.
  verify::Verdict verdict() const noexcept { return result_.watchdog_verdict; }
  Cycle stalled_for() const noexcept { return watchdog_.stalled_for(); }

  /// Serialize driver progress (phase machine, counters, watchdog,
  /// generator RNG). The caller serializes the Simulation and the traffic
  /// pattern separately.
  void snap(snap::Archive& ar);

 private:
  enum class Phase : std::uint8_t {
    kWarmup = 0,
    kMeasure = 1,
    kDrain = 2,
    kDone = 3,
  };
  void poll();
  void next_phase();

  core::Simulation& sim_;
  verify::ProgressWatchdog watchdog_;
  OpenLoopGenerator gen_;
  Cycle warmup_;      // [snap: skip] config, fixed at construction
  Cycle measure_;     // [snap: skip] restored externally via rebind()
  Cycle drain_cap_;   // [snap: skip] restored externally via rebind()
  Phase phase_ = Phase::kWarmup;
  Cycle done_in_phase_ = 0;
  Cycle cut_ = 0;                ///< measurement window start
  std::uint64_t offered_before_ = 0;
  Cycle drain_deadline_ = 0;
  ExperimentResult result_;
};

ExperimentResult run_open_loop(core::Simulation& sim, TrafficPattern& pattern,
                               SizeDist& sizes, double offered_load,
                               Cycle warmup, Cycle measure, Cycle drain_cap,
                               std::uint64_t seed);

/// Binary-search the saturation throughput of a configuration: the
/// largest offered load (flits/node/cycle) the network sustains, where
/// "sustains" means the run drains within the cap, delivers every offered
/// message, and keeps mean latency within 5x the latency measured at the
/// low end of the bracket (the classic latency-blowup criterion). A fresh
/// Simulation is built from `config` for every probe point. Returns the
/// bracket midpoint once `hi - lo <= tolerance`.
struct SaturationSearch {
  double load = 0.0;            ///< estimated saturation load
  double latency_at_load = 0.0; ///< mean latency at the last stable point
  int points_probed = 0;
};
SaturationSearch find_saturation(const sim::SimConfig& config,
                                 const std::string& pattern_name,
                                 std::int32_t message_flits,
                                 double lo = 0.02, double hi = 1.0,
                                 double tolerance = 0.02,
                                 Cycle warmup = 1000, Cycle measure = 4000,
                                 std::uint64_t seed = 1);

}  // namespace wavesim::load
