// E3 -- Temporal locality / circuit reuse: short messages only profit from
// wave switching when circuits are reused (sections 1 and 3).
//
// Working-set traffic: each node's messages go to a 4-destination working
// set with probability p (the locality knob). CLRP's circuit cache turns
// locality into hits; at p = 0 (uniform) short messages are better off on
// the wormhole plane.
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Row {
  double hit_rate = 0.0;
  double mean = 0.0;
  double p99 = 0.0;
  double wormhole_mean = 0.0;
};

Row run_point(double p_in_set) {
  Row row;
  for (const bool use_clrp : {true, false}) {
    sim::SimConfig config = sim::SimConfig::default_torus();
    config.protocol.protocol = use_clrp ? sim::ProtocolKind::kClrp
                                        : sim::ProtocolKind::kWormholeOnly;
    // 4 wave switches so the circuit-channel supply can actually hold the
    // working sets (the paper's multi-chip design point).
    config.router.wave_switches = use_clrp ? 4 : 0;
    config.seed = 5;
    core::Simulation sim(config);
    load::WorkingSetTraffic pattern(sim.topology(), 2, p_in_set, sim::Rng{17});
    load::FixedSize sizes(16);  // short messages
    const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.10,
                                       /*warmup=*/3000, /*measure=*/10000,
                                       /*drain_cap=*/300000, /*seed=*/23);
    if (use_clrp) {
      row.hit_rate = r.stats.cache_hit_rate();
      row.mean = r.stats.latency_mean;
      row.p99 = r.stats.latency_p99;
    } else {
      row.wormhole_mean = r.stats.latency_mean;
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E3", "circuit reuse vs temporal locality (short messages)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E3", "circuit reuse vs temporal locality (short messages)",
                "8x8 torus, k=4, 16-flit messages, load 0.10, working set of 2 "
                "destinations per node, locality p swept");
  std::vector<double> ps{0.0, 0.25, 0.5, 0.75, 0.9, 1.0};
  if (cli.quick()) ps = {0.0, 0.9};
  std::vector<Row> rows(ps.size());
  harness::run_indexed(ps.size(), [&](std::size_t i) { rows[i] = run_point(ps[i]); },
                      cli.threads());

  bench::Table table({"locality-p", "cache-hit", "clrp-mean", "clrp-p99",
                      "wormhole-mean", "clrp/wormhole"});
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const Row& r = rows[i];
    table.add_row({bench::fmt(ps[i], 2), bench::fmt_pct(r.hit_rate),
                   bench::fmt(r.mean, 1), bench::fmt(r.p99, 1),
                   bench::fmt(r.wormhole_mean, 1),
                   bench::fmt(r.mean / r.wormhole_mean, 2)});
  }
  cli.report(table, "e3_reuse_locality");
  std::printf("\nExpected shape: at low locality CLRP pays setups it never "
              "amortizes\n(ratio near or above 1); as p grows the hit rate "
              "climbs and the ratio drops\nwell below 1 -- reuse is what "
              "makes circuits pay for short messages.\n");
  return true;
  });
}
