// E5 -- Circuit-cache replacement policy ablation (Fig. 5 "Replace" field;
// section 3.1: "a replacement algorithm selects the circuit to be torn
// down ... The meaning of this field depends on the replacement
// algorithm").
//
// Working set (6 destinations) deliberately exceeds the cache (4 entries)
// so the policy choice matters: every miss must evict a live circuit.
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Row {
  double hit_rate = 0.0;
  double mean = 0.0;
  std::uint64_t evictions = 0;
  std::uint64_t teardowns = 0;
};

Row run_point(sim::ReplacementPolicy policy) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  config.protocol.circuit_cache_entries = 3;
  config.protocol.replacement = policy;
  config.router.wave_switches = 4;  // ample channels: cache is the bottleneck
  config.seed = 3;
  core::Simulation sim(config);
  // Skewed reuse: a couple of hot destinations plus a cold tail, so
  // recency/frequency information is worth keeping.
  load::WorkingSetTraffic pattern(sim.topology(), /*set_size=*/6,
                                  /*p_in_set=*/0.9, sim::Rng{29},
                                  /*skew=*/0.6);
  load::FixedSize sizes(32);
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.08,
                                     /*warmup=*/3000, /*measure=*/12000,
                                     /*drain_cap=*/400000, /*seed=*/31);
  Row row;
  row.hit_rate = r.stats.cache_hit_rate();
  row.mean = r.stats.latency_mean;
  row.evictions = r.stats.cache_evictions;
  row.teardowns = r.stats.teardowns;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E5", "circuit-cache replacement policy ablation");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E5", "circuit-cache replacement policy ablation",
                "8x8 torus, CLRP, k=4, cache 3 entries/node vs skewed working set "
                "of 6 (skew 0.6), locality 0.9, 32-flit messages, load 0.08");
  std::vector<sim::ReplacementPolicy> policies{
      sim::ReplacementPolicy::kLru, sim::ReplacementPolicy::kLfu,
      sim::ReplacementPolicy::kFifo, sim::ReplacementPolicy::kRandom};
  if (cli.quick()) policies = {sim::ReplacementPolicy::kLru,
                               sim::ReplacementPolicy::kRandom};
  std::vector<Row> rows(policies.size());
  harness::run_indexed(policies.size(),
                      [&](std::size_t i) { rows[i] = run_point(policies[i]); },
                      cli.threads());

  bench::Table table(
      {"policy", "cache-hit", "mean-lat", "evictions", "teardowns"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    table.add_row({sim::to_string(policies[i]),
                   bench::fmt_pct(rows[i].hit_rate),
                   bench::fmt(rows[i].mean, 1),
                   bench::fmt_int(rows[i].evictions),
                   bench::fmt_int(rows[i].teardowns)});
  }
  cli.report(table, "e5_replacement");
  std::printf("\nExpected shape: recency/frequency-aware policies (LRU/LFU) "
              "hold the hot set\nbetter than FIFO/random, showing higher hit"
              " rates and lower latency.\n");
  return true;
  });
}
