// E7 -- Number of wave switches k and the channel-width question
// (section 2: "splitting physical channels into narrower physical
// channels shares bandwidth in a very inflexible way ... several switches
// per node can be used, each one being implemented in its own chip").
//
// k controls how many circuits can coexist per link direction. The
// multi-chip design (split=off) keeps full-width channels per switch; the
// single-chip design (split=on) divides the wave bandwidth by k.
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Row {
  double mean = 0.0;
  double throughput = 0.0;
  double hit_rate = 0.0;
  double fallback_share = 0.0;
};

Row run_point(std::int32_t k, bool split) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  config.router.wave_switches = k;
  config.router.split_channels = split;
  config.seed = 11;
  core::Simulation sim(config);
  load::WorkingSetTraffic pattern(sim.topology(), 4, 0.85, sim::Rng{41});
  load::FixedSize sizes(64);
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.15,
                                     /*warmup=*/2000, /*measure=*/10000,
                                     /*drain_cap=*/400000, /*seed=*/13);
  Row row;
  row.mean = r.stats.latency_mean;
  row.throughput = r.stats.throughput_flits_per_node_cycle;
  row.hit_rate = r.stats.cache_hit_rate();
  const double total = static_cast<double>(r.stats.messages_delivered);
  row.fallback_share = total > 0 ? r.stats.fallback_count / total : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E7", "wave-switch count k and channel splitting");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E7", "wave-switch count k and channel splitting",
                "8x8 torus, CLRP, working-set traffic (4 dests, p=0.85), "
                "64-flit messages, load 0.15");
  struct Config {
    std::int32_t k;
    bool split;
  };
  std::vector<Config> configs{{1, false}, {2, false}, {4, false},
                              {2, true},  {4, true}};
  if (cli.quick()) configs = {{1, false}, {2, true}};
  std::vector<Row> rows(configs.size());
  harness::run_indexed(configs.size(), [&](std::size_t i) {
    rows[i] = run_point(configs[i].k, configs[i].split);
  }, cli.threads());

  bench::Table table({"k", "channels", "circuit-bw", "mean-lat", "throughput",
                      "cache-hit", "fallback"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& c = configs[i];
    const double bw = 4.0 / (c.split ? c.k : 1);
    table.add_row({bench::fmt_int(c.k),
                   c.split ? "split" : "full-width",
                   bench::fmt(bw, 1) + " f/c", bench::fmt(rows[i].mean, 1),
                   bench::fmt(rows[i].throughput, 3),
                   bench::fmt_pct(rows[i].hit_rate),
                   bench::fmt_pct(rows[i].fallback_share)});
  }
  cli.report(table, "e7_k_switches");
  std::printf("\nExpected shape: more full-width switches -> more coexisting"
              " circuits ->\nhigher hit rates and lower latency (the paper's "
              "multi-chip scalability\nargument); splitting claws those "
              "gains back by cutting circuit bandwidth.\n");
  return true;
  });
}
