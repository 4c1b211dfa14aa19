// Public facade of the library.
//
// Typical use:
//   core::Simulation sim(sim::SimConfig::default_torus());
//   sim.send(src, dest, length_flits);
//   sim.run_until_delivered();
//   auto stats = sim.stats();
#pragma once

#include <functional>
#include <memory>

#include "core/network.hpp"
#include "core/step_engine.hpp"
#include "sim/stats.hpp"

namespace wavesim::core {

/// Aggregated results of a run, computed from the message log and the
/// component counters. `min_created` lets benchmarks skip warm-up traffic.
struct SimulationStats {
  std::uint64_t messages_offered = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t flits_delivered = 0;

  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double latency_max = 0.0;

  /// Delivered payload flits per cycle per node over the measured span.
  double throughput_flits_per_node_cycle = 0.0;

  // Per-mode message counts and mean latencies.
  std::uint64_t circuit_hit_count = 0;
  std::uint64_t circuit_setup_count = 0;
  std::uint64_t fallback_count = 0;
  std::uint64_t wormhole_count = 0;
  double circuit_hit_latency = 0.0;
  double circuit_setup_latency = 0.0;
  double fallback_latency = 0.0;
  double wormhole_latency = 0.0;

  // Circuit machinery (zeros on a pure wormhole configuration).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t probes_launched = 0;
  std::uint64_t probes_succeeded = 0;
  std::uint64_t probes_failed = 0;
  std::uint64_t probe_advances = 0;
  std::uint64_t probe_backtracks = 0;
  std::uint64_t probe_misroutes = 0;
  std::uint64_t release_requests = 0;
  std::uint64_t teardowns = 0;
  std::uint64_t buffer_reallocs = 0;

  // Dynamic faults (zeros without a fault schedule; docs/FAULTS.md).
  std::uint64_t links_failed = 0;
  std::uint64_t links_restored = 0;
  std::uint64_t circuits_killed = 0;       ///< any circuit crossing a dead link
  std::uint64_t circuits_invalidated = 0;  ///< established ones, cache evicted
  std::uint64_t probes_killed = 0;
  std::uint64_t transfers_aborted = 0;
  std::uint64_t unreachable_fallbacks = 0;
  std::uint64_t routes_withdrawn = 0;
  std::uint64_t route_timeouts = 0;
  std::uint64_t dv_updates_sent = 0;
  std::uint64_t dv_triggered_updates = 0;
  std::uint64_t dv_adverts_dropped = 0;

  double cache_hit_rate() const noexcept {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
  double setup_success_rate() const noexcept {
    const double total = static_cast<double>(probes_launched);
    return total > 0.0 ? static_cast<double>(probes_succeeded) / total : 0.0;
  }
};

class Simulation {
 public:
  /// Validates the configuration (throws std::invalid_argument).
  explicit Simulation(const sim::SimConfig& config);

  const sim::SimConfig& config() const noexcept { return network_->config(); }
  const topo::KAryNCube& topology() const noexcept {
    return network_->topology();
  }
  Cycle now() const noexcept { return network_->now(); }

  MessageId send(NodeId src, NodeId dest, std::int32_t length_flits) {
    return network_->send(src, dest, length_flits);
  }
  bool establish_circuit(NodeId src, NodeId dest,
                         std::int32_t max_message_flits = 0) {
    return network_->establish_circuit(src, dest, max_message_flits);
  }
  void release_circuit(NodeId src, NodeId dest) {
    network_->release_circuit(src, dest);
  }
  bool message_done(MessageId id) const {
    return network_->messages().at(id).done;
  }

  void step() {
    if (engine_) {
      engine_->step(*network_);
    } else {
      network_->step();
    }
    if (step_hook_) step_hook_(network_->now());
  }
  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) step();
  }

  /// Step until every offered message is delivered and the network drains.
  /// Returns false if `max_cycles` elapse first (a watchdog for the
  /// deadlock/livelock guarantees of Theorems 1-4).
  bool run_until_delivered(Cycle max_cycles = 1'000'000);

  /// Aggregate statistics over messages created at or after `min_created`.
  SimulationStats stats(Cycle min_created = 0) const;

  /// Latency histogram over delivered messages created at or after
  /// `min_created` (fixed-width bins over [lo, hi)).
  sim::Histogram latency_histogram(double lo, double hi, std::size_t bins,
                                   Cycle min_created = 0) const;

  /// Install an event sink (see core/instrumentation.hpp).
  void set_event_sink(Instrumentation::Sink sink) {
    network_->set_event_sink(std::move(sink));
  }

  /// Install a per-cycle hook, called after each step with the new cycle
  /// number (observability sampling). Empty hook = no per-cycle cost
  /// beyond one branch. The hook must not mutate the simulation.
  using StepHook = std::function<void(Cycle)>;
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

  /// Install a step engine (see core/step_engine.hpp); the simulation
  /// takes ownership. nullptr restores the default sequential stepper.
  void set_engine(std::unique_ptr<StepEngine> engine) {
    engine_ = std::move(engine);
  }
  const StepEngine* engine() const noexcept { return engine_.get(); }

  Network& network() noexcept { return *network_; }
  const Network& network() const noexcept { return *network_; }

 private:
  std::unique_ptr<Network> network_;
  std::unique_ptr<StepEngine> engine_;
  StepHook step_hook_;
};

}  // namespace wavesim::core
