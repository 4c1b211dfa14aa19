// E14 -- Scalability with network size (paper section 2): "scalability is
// excellent because the number of switches (chips) per node can increase
// as network size increases, thus compensating the higher average
// distance traveled by messages."
//
// Sweep the torus size at fixed per-node load and compare (a) the wormhole
// baseline, (b) wave with fixed k=2, and (c) wave with k grown alongside
// the network (the multi-chip design point). The paper's claim is that (c)
// flattens the latency growth that distance alone would dictate.
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Point {
  double mean = 0.0;
  double p99 = 0.0;
  double hit_rate = 0.0;
  bool saturated = false;
};

Point run_point(const bench::Cli& cli, std::int32_t radix,
                sim::ProtocolKind protocol, std::int32_t k) {
  sim::SimConfig config;
  config.topology.radix = {radix, radix};
  config.topology.torus = true;
  config.protocol.protocol = protocol;
  config.router.wave_switches =
      protocol == sim::ProtocolKind::kWormholeOnly ? 0 : k;
  config.seed = 18;
  core::Simulation sim(config);
  // The large tori here are the motivating case for --engine par: each
  // point's wall time shrinks while its statistics stay bit-identical.
  cli.install_engine(sim);
  load::WorkingSetTraffic pattern(sim.topology(), 3, 0.85, sim::Rng{67});
  load::FixedSize sizes(64);
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.12,
                                     /*warmup=*/1500, /*measure=*/6000,
                                     /*drain_cap=*/300000, /*seed=*/25);
  return Point{r.stats.latency_mean, r.stats.latency_p99,
               r.stats.cache_hit_rate(), !r.drained};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E14", "scalability with network size (multi-chip argument)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E14", "scalability with network size (multi-chip argument)",
                "r x r torus sweep at fixed load 0.12, working-set traffic "
                "(3 dests, p=0.85), 64-flit messages; 'grown k' scales the "
                "switch count with the radix (k = r/4)");
  struct Size {
    std::int32_t radix;
    std::int32_t grown_k;
  };
  std::vector<Size> sizes{{4, 1}, {8, 2}, {16, 4}};
  if (cli.quick()) sizes = {{4, 1}, {8, 2}};
  bench::Table table({"torus", "avg-dist", "wormhole", "wave k=2",
                      "wave k=r/4", "hit k=2", "hit k=r/4"});
  std::vector<Point> wh(sizes.size()), fixed(sizes.size()), grown(sizes.size());
  harness::run_indexed(sizes.size() * 3, [&](std::size_t i) {
    const auto& sz = sizes[i / 3];
    switch (i % 3) {
      case 0:
        wh[i / 3] =
            run_point(cli, sz.radix, sim::ProtocolKind::kWormholeOnly, 0);
        break;
      case 1:
        fixed[i / 3] = run_point(cli, sz.radix, sim::ProtocolKind::kClrp, 2);
        break;
      case 2:
        grown[i / 3] =
            run_point(cli, sz.radix, sim::ProtocolKind::kClrp, sz.grown_k);
        break;
    }
  }, cli.threads());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    auto cell = [](const Point& p) {
      return (p.saturated ? "sat " : "") + bench::fmt(p.mean, 1);
    };
    table.add_row({bench::fmt_int(sizes[i].radix) + "x" +
                       bench::fmt_int(sizes[i].radix),
                   bench::fmt(sizes[i].radix / 2.0, 1), cell(wh[i]),
                   cell(fixed[i]), cell(grown[i]),
                   bench::fmt_pct(fixed[i].hit_rate),
                   bench::fmt_pct(grown[i].hit_rate)});
  }
  cli.report(table, "e14_scalability");
  std::printf("\nExpected shape: wormhole latency grows with the average "
              "distance (r/2);\nwave latency grows far more slowly, and "
              "growing k with the network keeps\nthe circuit supply -- and "
              "hence the hit rate -- from eroding at scale,\nwhich is the "
              "paper's multi-chip scalability argument.\n");
  return true;
  });
}
