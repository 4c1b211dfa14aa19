// E11 -- The software messaging layer (paper section 1): "Even for a very
// efficient messaging layer based on active messages, software overhead
// accounts for 50-70% of the total cost. Therefore, reducing the network
// hardware latency has a minimal impact on performance." And section 5:
// wave switching "allows to reduce the overhead of the software messaging
// layer ... message buffers can be allocated at both ends when the
// physical circuit is established. Those buffers will be reused."
//
// Two regimes:
//  * DSM: zero software overhead (hardware sends) -- hardware latency is
//    everything, wave switching shines directly;
//  * multicomputer: a heavy software send path for wormhole messages,
//    reduced to buffer-reuse cost for messages on an established circuit.
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Row {
  double mean = 0.0;
  double p99 = 0.0;
  std::uint64_t reallocs = 0;
};

Row run_point(sim::ProtocolKind protocol, bool multicomputer) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = protocol;
  if (protocol == sim::ProtocolKind::kWormholeOnly) {
    config.router.wave_switches = 0;
  }
  if (multicomputer) {
    // Software path ~2-3x the typical hardware latency (the paper's
    // 50-70% share), collapsing to a small reuse cost on circuits.
    config.software.wormhole_send_overhead = 250;
    config.software.circuit_first_send_overhead = 250;
    config.software.circuit_reuse_send_overhead = 25;
    config.software.buffer_realloc_penalty = 100;
    config.software.clrp_initial_buffer_flits = 64;
  }
  config.seed = 6;
  core::Simulation sim(config);
  load::WorkingSetTraffic pattern(sim.topology(), 2, 0.9, sim::Rng{37});
  load::BimodalSize sizes(8, 128, 0.3);
  if (protocol == sim::ProtocolKind::kCarp) {
    // The "compiler" pre-establishes circuits for each node's working set
    // and declares the longest message (128 flits) so the end-point
    // buffers never need re-allocation.
    for (NodeId src = 0; src < sim.topology().num_nodes(); ++src) {
      for (NodeId dest : pattern.working_set(src)) {
        sim.establish_circuit(src, dest, /*max_message_flits=*/128);
      }
    }
    sim.run(500);
  }
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.10,
                                     /*warmup=*/3000, /*measure=*/10000,
                                     /*drain_cap=*/400000, /*seed=*/43);
  return Row{r.stats.latency_mean, r.stats.latency_p99,
             r.stats.buffer_reallocs};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E11", "software messaging-layer overhead");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E11", "software messaging-layer overhead",
                "8x8 torus, working-set traffic (2 dests, p=0.9), bimodal "
                "8/128-flit messages, load 0.10; multicomputer regime adds "
                "a 250-cycle software send path that circuits amortize");
  bench::Table table({"regime", "protocol", "mean-lat", "p99", "reallocs"});
  struct Case {
    bool multicomputer;
    sim::ProtocolKind protocol;
  };
  std::vector<Case> cases;
  for (const bool multicomputer : {false, true}) {
    for (const auto protocol :
         {sim::ProtocolKind::kWormholeOnly, sim::ProtocolKind::kClrp,
          sim::ProtocolKind::kCarp}) {
      if (cli.quick() && protocol == sim::ProtocolKind::kCarp) continue;
      cases.push_back({multicomputer, protocol});
    }
  }
  std::vector<Row> rows(cases.size());
  harness::run_indexed(cases.size(), [&](std::size_t i) {
    rows[i] = run_point(cases[i].protocol, cases[i].multicomputer);
  }, cli.threads());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    table.add_row({cases[i].multicomputer ? "multicomputer" : "DSM",
                   sim::to_string(cases[i].protocol), bench::fmt(rows[i].mean, 1),
                   bench::fmt(rows[i].p99, 1), bench::fmt_int(rows[i].reallocs)});
  }
  cli.report(table, "e11_software_overhead");
  std::printf("\nExpected shape: in the DSM regime the wave gain is the "
              "hardware gain; in the\nmulticomputer regime wormhole "
              "latency is dominated by the software send path\nwhile CLRP "
              "amortizes it across circuit reuse -- the paper's argument "
              "that\nbetter hardware support (pre-allocated buffers) beats "
              "a faster router alone.\n");
  return true;
  });
}
