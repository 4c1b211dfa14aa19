// Compiler-aided circuits (CARP) on a 5-point stencil: the "compiler"
// knows each node exchanges halos with the same 4 neighbors every
// iteration, so it pre-establishes circuits before the first round and
// releases them after the last -- exactly the usage the paper's section
// 3.2 describes. Compared against CLRP (circuits discovered on demand)
// and plain wormhole switching on the identical send sequence.
//
//   $ ./stencil_carp [iterations]
#include <cstdio>
#include <cstdlib>

#include "cli_number.hpp"
#include "core/simulation.hpp"
#include "workload/trace.hpp"

namespace {

using namespace wavesim;

struct Row {
  const char* name;
  double mean_latency;
  double p99;
  Cycle makespan;
  std::uint64_t circuit_messages;
};

Row run_one(const char* name, sim::ProtocolKind protocol,
            const load::Trace& trace) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = protocol;
  if (protocol == sim::ProtocolKind::kWormholeOnly) {
    config.router.wave_switches = 0;
  }
  config.protocol.circuit_cache_entries = 8;  // room for all 4 neighbors
  core::Simulation sim(config);
  if (!load::replay(trace, sim, 4'000'000)) {
    std::fprintf(stderr, "%s: drain cap hit\n", name);
  }
  const auto stats = sim.stats();
  return Row{name, stats.latency_mean, stats.latency_p99, sim.now(),
             stats.circuit_hit_count + stats.circuit_setup_count};
}

}  // namespace

int main(int argc, char** argv) {
  const std::int32_t iterations =
      argc > 1 ? cli::number<std::int32_t>("iterations", argv[1]) : 6;
  if (iterations < 1) {
    std::fprintf(stderr, "error: iterations must be >= 1 (got %d)\n",
                 iterations);
    return 2;
  }
  topo::KAryNCube topo({8, 8}, true);
  const Cycle per_iter = 300;
  const std::int32_t halo = 64;

  const load::Trace carp_trace =
      load::make_stencil_trace(topo, iterations, halo, per_iter,
                               /*carp_circuits=*/true);
  const load::Trace plain_trace = carp_trace.without_circuit_ops();

  std::printf("5-point stencil, 8x8 torus, %d iterations, %d-flit halos\n\n",
              iterations, halo);
  std::printf("%-10s %12s %10s %10s %16s\n", "protocol", "mean-lat", "p99",
              "makespan", "circuit-msgs");
  for (const Row& row :
       {run_one("wormhole", sim::ProtocolKind::kWormholeOnly, plain_trace),
        run_one("clrp", sim::ProtocolKind::kClrp, plain_trace),
        run_one("carp", sim::ProtocolKind::kCarp, carp_trace)}) {
    std::printf("%-10s %12.1f %10.1f %10llu %16llu\n", row.name,
                row.mean_latency, row.p99,
                static_cast<unsigned long long>(row.makespan),
                static_cast<unsigned long long>(row.circuit_messages));
  }
  std::printf("\nCARP hides the setup latency by prefetching circuits before"
              " the first\nhalo exchange; CLRP pays it on the first "
              "iteration, wormhole on every hop.\n");
  return 0;
}
