#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "snap/archive.hpp"
#include "workload/traffic.hpp"

namespace wavesim::load {

OpenLoopGenerator::OpenLoopGenerator(core::Simulation& sim,
                                     TrafficPattern& pattern, SizeDist& sizes,
                                     double offered_flits_per_node_cycle,
                                     sim::Rng rng, CarpCalls carp)
    : sim_(sim), pattern_(pattern), sizes_(sizes),
      offer_(offered_flits_per_node_cycle / sizes.mean()), carp_(carp),
      rng_(rng) {
  const double load = offered_flits_per_node_cycle;
  // NaN passes both range checks below, so it is refused by name.
  if (!std::isfinite(load)) {
    throw std::invalid_argument("OpenLoopGenerator: load is not finite");
  }
  if (load < 0.0) {
    throw std::invalid_argument("OpenLoopGenerator: negative load");
  }
  if (load / sizes.mean() > 1.0) {
    throw std::invalid_argument(
        "OpenLoopGenerator: load exceeds one message per node per cycle");
  }
}

void OpenLoopGenerator::run_batch(Cycle cycles) {
  using Call = core::Network::Call;
  const std::int32_t n = sim_.topology().num_nodes();
  core::Network& net = sim_.network();
  const Cycle base = sim_.now();
  for (Cycle j = 0; j < cycles; ++j) {
    // One chance(offer_) per node in node order; failures() runs the
    // draws of the nodes that offer nothing in one register-resident loop.
    for (NodeId src = rng_.failures(offer_, n); src < n;
         src += 1 + rng_.failures(offer_, n - src - 1)) {
      const NodeId dest = pattern_.pick(src, rng_);
      const std::int32_t length = sizes_.sample(rng_);
      if (carp_.random && rng_.chance(0.3)) {
        net.schedule_send(src, dest, carp_.buffer_flits, base + j,
                          Call::kEstablish);
      }
      net.schedule_send(src, dest, length, base + j);
      ++offered_;
      if (carp_.random && rng_.chance(0.1)) {
        net.schedule_send(src, dest, carp_.buffer_flits, base + j,
                          Call::kRelease);
      }
    }
  }
  sim_.run(cycles);
}

void OpenLoopGenerator::snap(snap::Archive& ar) {
  rng_.snap(ar);
  ar.pod(offered_);
}

OpenLoopDriver::OpenLoopDriver(core::Simulation& sim, TrafficPattern& pattern,
                               SizeDist& sizes, double offered_load,
                               Cycle warmup, Cycle measure, Cycle drain_cap,
                               std::uint64_t seed, CarpCalls carp)
    // The watchdog is read-only: polling it does not perturb the run, so
    // results stay bit-identical to a run without it.
    : sim_(sim), watchdog_(sim.network(), 20'000),
      gen_(sim, pattern, sizes, offered_load, sim::Rng{seed}, carp),
      warmup_(warmup), measure_(measure), drain_cap_(drain_cap) {}

void OpenLoopDriver::poll() {
  result_.watchdog_verdict = watchdog_.poll();
  result_.max_stalled = std::max(result_.max_stalled, watchdog_.stalled_for());
}

void OpenLoopDriver::next_phase() {
  switch (phase_) {
    case Phase::kWarmup:
      cut_ = sim_.now();
      offered_before_ = gen_.offered_messages();
      phase_ = Phase::kMeasure;
      break;
    case Phase::kMeasure:
      result_.offered_messages = gen_.offered_messages() - offered_before_;
      drain_deadline_ = sim_.now() + drain_cap_;
      phase_ = Phase::kDrain;
      break;
    case Phase::kDrain:
      poll();
      result_.stats = sim_.stats(cut_);
      result_.cycles_total = sim_.now();
      phase_ = Phase::kDone;
      break;
    case Phase::kDone:
      break;
  }
  done_in_phase_ = 0;
}

Cycle OpenLoopDriver::advance(Cycle max_cycles) {
  Cycle used = 0;
  while (phase_ != Phase::kDone) {
    if (phase_ == Phase::kWarmup || phase_ == Phase::kMeasure) {
      const Cycle total = phase_ == Phase::kWarmup ? warmup_ : measure_;
      if (done_in_phase_ >= total) {
        next_phase();
        continue;
      }
      if (used >= max_cycles) break;
      // Batched driving: spans between watchdog polls go to the generator
      // in one run_batch each. Polls land at phase-local multiples of
      // kPollEvery no matter how the caller slices advance() calls.
      const Cycle span =
          std::min({kPollEvery - done_in_phase_ % kPollEvery,
                    total - done_in_phase_, max_cycles - used});
      gen_.run_batch(span);
      done_in_phase_ += span;
      used += span;
      if (done_in_phase_ % kPollEvery == 0) poll();
    } else {  // Phase::kDrain
      // Drain: same stepping as Simulation::run_until_delivered, with
      // periodic watchdog polls folded in.
      if (sim_.network().quiescent()) {
        next_phase();
        continue;
      }
      if (sim_.now() >= drain_deadline_) {
        result_.drained = false;
        next_phase();
        continue;
      }
      if (used >= max_cycles) break;
      sim_.step();
      ++done_in_phase_;
      ++used;
      if (sim_.now() % kPollEvery == 0) poll();
    }
  }
  return used;
}

const ExperimentResult& OpenLoopDriver::result() const {
  if (phase_ != Phase::kDone) {
    throw std::logic_error("OpenLoopDriver: result() before done()");
  }
  return result_;
}

void OpenLoopDriver::rebind(Cycle measure, Cycle drain_cap) {
  if (!at_measure_boundary()) {
    throw std::logic_error(
        "OpenLoopDriver: rebind() away from the measure boundary");
  }
  measure_ = measure;
  drain_cap_ = drain_cap;
}

void OpenLoopDriver::snap(snap::Archive& ar) {
  watchdog_.snap(ar);
  gen_.snap(ar);
  ar.pod(phase_);
  ar.pod(done_in_phase_);
  ar.pod(cut_);
  ar.pod(offered_before_);
  ar.pod(drain_deadline_);
  ar.pod(result_.offered_messages);
  ar.pod(result_.drained);
  ar.pod(result_.watchdog_verdict);
  ar.pod(result_.max_stalled);
  // Aggregate stats are a pure function of the serialized message log,
  // so a snapshot of a finished run carries them by recomputation, not
  // by value. (Mid-run snapshots recompute them at the drain -> done
  // transition anyway.)
  if (ar.reading() && phase_ == Phase::kDone) {
    result_.stats = sim_.stats(cut_);
    result_.cycles_total = sim_.now();
  }
}

ExperimentResult run_open_loop(core::Simulation& sim, TrafficPattern& pattern,
                               SizeDist& sizes, double offered_load,
                               Cycle warmup, Cycle measure, Cycle drain_cap,
                               std::uint64_t seed) {
  OpenLoopDriver driver(sim, pattern, sizes, offered_load, warmup, measure,
                        drain_cap, seed);
  while (!driver.done()) {
    driver.advance(std::numeric_limits<Cycle>::max());
  }
  return driver.result();
}

SaturationSearch find_saturation(const sim::SimConfig& config,
                                 const std::string& pattern_name,
                                 std::int32_t message_flits, double lo,
                                 double hi, double tolerance, Cycle warmup,
                                 Cycle measure, std::uint64_t seed) {
  if (!(lo > 0.0) || !(hi > lo) || !(tolerance > 0.0)) {
    throw std::invalid_argument("find_saturation: bad bracket");
  }
  SaturationSearch out;
  double reference_latency = 0.0;
  auto probe = [&](double load) {
    core::Simulation sim(config);
    auto pattern = make_traffic(pattern_name, sim.topology(),
                                sim::Rng{seed * 131 + 7});
    FixedSize sizes(message_flits);
    const Cycle drain_cap = 20 * (warmup + measure);
    ++out.points_probed;
    return run_open_loop(sim, *pattern, sizes, load, warmup, measure,
                         drain_cap, seed);
  };
  auto stable_at = [&](double load) {
    const auto r = probe(load);
    if (!r.drained) return false;
    if (r.stats.messages_delivered < r.offered_messages) return false;
    // Latency-blowup criterion: past saturation, queueing delay explodes
    // relative to the uncongested reference.
    const bool keeps_up = r.stats.latency_mean <= 5.0 * reference_latency;
    if (keeps_up) out.latency_at_load = r.stats.latency_mean;
    return keeps_up;
  };
  // Reference point: the bracket's low end must itself be sustainable.
  const auto ref = probe(lo);
  if (!ref.drained || ref.stats.messages_delivered < ref.offered_messages) {
    out.load = lo;
    return out;
  }
  reference_latency = ref.stats.latency_mean;
  out.latency_at_load = reference_latency;
  if (stable_at(hi)) {
    out.load = hi;
    return out;
  }
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    if (stable_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.load = 0.5 * (lo + hi);
  return out;
}

}  // namespace wavesim::load
