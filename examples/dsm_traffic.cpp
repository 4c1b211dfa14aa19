// DSM-style traffic (the paper's motivating workload): a mix of short
// coherence messages and long cache-line/page transfers with strong
// temporal locality. Compares plain wormhole switching against wave
// switching with CLRP on the same offered load.
//
//   $ ./dsm_traffic [offered_load]
#include <cstdio>
#include <stdexcept>

#include "cli_number.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

core::SimulationStats run_one(sim::ProtocolKind protocol, double load) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = protocol;
  if (protocol == sim::ProtocolKind::kWormholeOnly) {
    config.router.wave_switches = 0;
  }
  config.seed = 2026;

  core::Simulation sim(config);
  // 70% short coherence control (8 flits), 30% long data (128 flits);
  // each node mostly talks to a working set of 4 peers (home nodes).
  load::WorkingSetTraffic pattern(sim.topology(), /*set_size=*/4,
                                  /*p_in_set=*/0.9, sim::Rng{7});
  load::BimodalSize sizes(8, 128, /*p_long=*/0.3);
  const auto result = load::run_open_loop(sim, pattern, sizes, load,
                                          /*warmup=*/3000, /*measure=*/12000,
                                          /*drain_cap=*/400000, /*seed=*/99);
  if (!result.drained) {
    std::fprintf(stderr, "  (saturated: drain cap hit)\n");
  }
  return result.stats;
}

}  // namespace

int main(int argc, char** argv) try {
  const double load =
      argc > 1 ? cli::number<double>("offered_load", argv[1]) : 0.15;
  std::printf("DSM traffic on an 8x8 torus, offered load %.2f "
              "flits/node/cycle\n\n", load);
  std::printf("%-12s %10s %10s %10s %12s %10s\n", "protocol", "mean", "p50",
              "p99", "throughput", "hit-rate");

  for (const auto protocol :
       {sim::ProtocolKind::kWormholeOnly, sim::ProtocolKind::kClrp}) {
    const auto stats = run_one(protocol, load);
    std::printf("%-12s %10.1f %10.1f %10.1f %12.4f %9.1f%%\n",
                sim::to_string(protocol), stats.latency_mean,
                stats.latency_p50, stats.latency_p99,
                stats.throughput_flits_per_node_cycle,
                100.0 * stats.cache_hit_rate());
  }
  std::printf("\nWith temporal locality, CLRP turns most sends into circuit"
              " hits and\nlong transfers ride wave-pipelined channels.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  // The generator refuses a negative load the same way.
  cli::usage_error(e);
}
