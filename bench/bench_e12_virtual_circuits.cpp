// E12 -- Physical vs virtual circuits (paper footnote 1 and section 2).
//
// Wave switching's win decomposes into two effects:
//  1. circuit reuse: no per-hop routing, no contention, pre-allocated
//     buffers -- available to *virtual* circuits too;
//  2. wave pipelining: physical circuits have no flit buffers or link
//     flow control, so the clock runs ~4x faster -- physical-only.
// This ablation runs the identical CLRP workload over physical circuits
// (wave clock x4), virtual circuits (base clock) and plain wormhole to
// attribute the gain.
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Row {
  double mean = 0.0;
  double p99 = 0.0;
  double throughput = 0.0;
};

Row run_point(bool circuits, bool virtual_circuits, std::int32_t length) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol =
      circuits ? sim::ProtocolKind::kClrp : sim::ProtocolKind::kWormholeOnly;
  if (!circuits) config.router.wave_switches = 0;
  config.router.virtual_circuits = virtual_circuits;
  config.seed = 9;
  core::Simulation sim(config);
  load::WorkingSetTraffic pattern(sim.topology(), 2, 0.9, sim::Rng{53});
  load::FixedSize sizes(length);
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.12,
                                     /*warmup=*/2000, /*measure=*/8000,
                                     /*drain_cap=*/400000, /*seed=*/29);
  return Row{r.stats.latency_mean, r.stats.latency_p99,
             r.stats.throughput_flits_per_node_cycle};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E12", "physical vs virtual circuits (wave-pipelining ablation)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E12", "physical vs virtual circuits (wave-pipelining ablation)",
                "8x8 torus, CLRP, working-set traffic (2 dests, p=0.9), "
                "load 0.12; 'virtual' keeps circuit reuse but clocks the "
                "circuit at the base rate");
  struct Variant {
    const char* name;
    bool circuits;
    bool virt;
  };
  const std::vector<Variant> variants{{"wormhole", false, false},
                                      {"virtual-circuits", true, true},
                                      {"physical-circuits", true, false}};
  std::vector<std::int32_t> lengths{16, 128};
  if (cli.quick()) lengths = {16};
  for (const std::int32_t length : lengths) {
    std::printf("\n[%d-flit messages]\n", length);
    bench::Table table({"transport", "mean-lat", "p99", "throughput"});
    std::vector<Row> rows(variants.size());
    harness::run_indexed(variants.size(), [&](std::size_t i) {
      rows[i] = run_point(variants[i].circuits, variants[i].virt, length);
    }, cli.threads());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      table.add_row({variants[i].name, bench::fmt(rows[i].mean, 1),
                     bench::fmt(rows[i].p99, 1),
                     bench::fmt(rows[i].throughput, 3)});
    }
    cli.report(table, length == 16 ? "e12_virtual_short" : "e12_virtual_long");
  }
  std::printf("\nExpected shape: for long messages virtual circuits already "
              "beat wormhole\n(routing and contention removed, setup "
              "amortized), and physical circuits\nadd the wave-clock factor "
              "on top. For short messages circuit setup and\nper-circuit "
              "serialization are not amortized at the base clock -- the "
              "faster\nclock of *physical* circuits is what keeps them "
              "competitive, which is why\nthe paper pairs circuit reuse "
              "with wave pipelining rather than using\nvirtual circuits.\n");
  return true;
  });
}
