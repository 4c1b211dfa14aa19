// Wall-clock overhead gates: machinery a run has armed but never uses must
// cost it at most 5%. Two pieces are gated:
//
//   * the fault hook. With no dynamic fault source the fault plane is
//     never built and the per-step hook is a null check; an armed run
//     builds the plane and pays the per-cycle hook (timeline scan,
//     dormancy check, distance-vector idle step) on every cycle;
//   * checkpoint slicing. wavesim_cli --checkpoint-every C turns one
//     advance(max) into advance(C) slices, which must change no result.
//
// Both compare the best kcycles/s of a baseline leg against a variant leg
// over interleaved repetitions (best_of_overhead). Registered only in
// optimized builds without sanitizers, and run serially (ctest label
// `perf`).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <string>

#include "core/simulation.hpp"
#include "harness/sweep.hpp"
#include "sim/config.hpp"
#include "snap/runstate.hpp"
#include "workload/generator.hpp"

namespace wavesim {
namespace {

/// Largest allowed ratio of the baseline leg's rate to the variant's.
constexpr double kMaxOverhead = 1.05;

/// One timed leg: its simulated rate and a digest of what it produced.
struct Timed {
  double kcycles_per_s = 0.0;
  std::string digest;
};

double kcycles_per_s(Cycle cycles,
                     std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(cycles) / elapsed.count() / 1000.0;
}

struct Overhead {
  double ratio = 0.0;  ///< best baseline rate / best variant rate
  std::string base_digest;
  std::string variant_digest;
};

/// Runs `base` and `variant` alternately and compares the best rate each
/// has reached so far. A side's best repetition converges on its true
/// capacity as repetitions accumulate, which squeezes out the scheduler
/// noise that on a loaded host dwarfs the cost being gated. Repetitions
/// stop once at least 3 have run and the ratio is within kMaxOverhead, or
/// after 12: a noisy host needs a few more, while a real cost above the
/// bound never clears it. Every repetition of a leg must reproduce that
/// leg's first digest.
Overhead best_of_overhead(const std::function<Timed()>& base,
                          const std::function<Timed()>& variant) {
  constexpr int kMinReps = 3;
  constexpr int kMaxReps = 12;
  Overhead out;
  double base_rate = 0.0;
  double variant_rate = 0.0;
  for (int rep = 0; rep < kMaxReps; ++rep) {
    const Timed b = base();
    const Timed v = variant();
    if (rep == 0) {
      out.base_digest = b.digest;
      out.variant_digest = v.digest;
    }
    EXPECT_EQ(b.digest, out.base_digest)
        << "baseline leg is not reproducible (repetition " << rep << ")";
    EXPECT_EQ(v.digest, out.variant_digest)
        << "variant leg is not reproducible (repetition " << rep << ")";
    base_rate = std::max(base_rate, b.kcycles_per_s);
    variant_rate = std::max(variant_rate, v.kcycles_per_s);
    out.ratio = base_rate / variant_rate;
    if (rep + 1 >= kMinReps && out.ratio <= kMaxOverhead) break;
  }
  return out;
}

sim::SimConfig clrp_16x16() {
  sim::SimConfig config;
  config.topology.radix = {16, 16};
  config.topology.torus = true;
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  config.seed = 9;
  return config;
}

/// 16x16 CLRP, uniform load 0.12, 64-flit messages. The measured window
/// is long (20k cycles) so a burst of host noise is amortized instead of
/// deciding the ratio.
Timed open_loop_leg(const sim::SimConfig& config) {
  core::Simulation sim(config);
  load::UniformTraffic pattern(sim.topology());
  load::FixedSize sizes(64);
  const auto start = std::chrono::steady_clock::now();
  const auto r = load::run_open_loop(sim, pattern, sizes,
                                     /*offered_load=*/0.12, /*warmup=*/500,
                                     /*measure=*/20'000,
                                     /*drain_cap=*/300'000, /*seed=*/33);
  return Timed{kcycles_per_s(sim.now(), start),
               harness::stats_to_json(r.stats).dump() + "@" +
                   std::to_string(sim.now())};
}

TEST(OverheadGate, ArmedButQuietFaultHookCostsAtMostFivePercent) {
  // The armed schedule is a link-up for a link that is already up:
  // dynamic() is true so the plane exists, but the transition is filtered
  // as idempotent, the plane never wakes and the timeline is exhausted at
  // cycle 0, so the run drains like the healthy one (a pending future
  // event would hold off drained()). Arming also forks the workload rng,
  // so the armed run is a different sample of the same traffic: it is
  // compared by rate, which normalizes the two drain lengths, and each
  // leg is only required to reproduce itself.
  const sim::SimConfig healthy = clrp_16x16();
  sim::SimConfig armed = healthy;
  armed.faults.events.push_back(
      sim::FaultEvent{/*at=*/0, sim::FaultEventKind::kLinkUp, 0, 0});
  ASSERT_FALSE(healthy.faults.dynamic());
  ASSERT_TRUE(armed.faults.dynamic());
  const Overhead overhead =
      best_of_overhead([&] { return open_loop_leg(healthy); },
                       [&] { return open_loop_leg(armed); });
  EXPECT_LE(overhead.ratio, kMaxOverhead)
      << "the fault hook costs more than 5% on the healthy path "
         "(healthy/armed kcycles-per-s ratio "
      << overhead.ratio << ")";
}

/// Drives a fresh run of `spec` to completion in `slice`-cycle chunks.
Timed sliced_leg(const snap::RunSpec& spec, Cycle slice) {
  snap::CheckpointableRun run(spec);
  const auto start = std::chrono::steady_clock::now();
  while (!run.done()) run.advance(slice);
  const double rate = kcycles_per_s(run.now(), start);
  return Timed{rate, std::to_string(run.checkpoint().digest())};
}

TEST(OverheadGate, SlicedAdvanceCostsAtMostFivePercentAndChangesNothing) {
  snap::RunSpec spec;
  spec.config = clrp_16x16();
  spec.pattern = "uniform";
  spec.message_flits = 64;
  spec.offered_load = 0.12;
  spec.warmup = 4000;
  spec.measure = 8000;
  spec.drain_cap = 300'000;
  spec.seed = 33;
  const Overhead overhead = best_of_overhead(
      [&] { return sliced_leg(spec, std::numeric_limits<Cycle>::max()); },
      [&] { return sliced_leg(spec, /*slice=*/2000); });
  EXPECT_EQ(overhead.variant_digest, overhead.base_digest)
      << "sliced advance() diverged from the one-shot run";
  EXPECT_LE(overhead.ratio, kMaxOverhead)
      << "the sliced step loop costs more than 5% "
         "(one-shot/sliced kcycles-per-s ratio "
      << overhead.ratio << ")";
}

}  // namespace
}  // namespace wavesim
