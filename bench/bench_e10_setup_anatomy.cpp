// E10 -- CLRP setup anatomy and the section-3.1 simplifications.
//
// "The CLRP protocol can be simplified in several ways. First, when a
//  circuit cannot be established by using Initial Switch, the Force bit
//  can be set without trying the remaining switches. ... Second, the Force
//  bit can be set when the probe is first sent ... The optimal protocol
//  depends on the number of physical switches per node, and on the
//  applications."
//
// Compares the full three-phase protocol against both simplifications
// under circuit-hungry traffic, reporting where the setup effort goes.
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Row {
  double setup_success = 0.0;
  double probes_per_setup = 0.0;
  std::uint64_t force_waits = 0;
  std::uint64_t release_requests = 0;
  double fallback_share = 0.0;
  double mean = 0.0;
};

Row run_point(sim::ClrpVariant variant) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  config.protocol.clrp_variant = variant;
  config.protocol.circuit_cache_entries = 4;
  config.seed = 8;
  core::Simulation sim(config);
  // Working set larger than the cache and bigger than the channel supply:
  // plenty of misses, evictions and Force-phase action.
  load::WorkingSetTraffic pattern(sim.topology(), 6, 0.8, sim::Rng{71});
  load::FixedSize sizes(48);
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.15,
                                     /*warmup=*/2000, /*measure=*/10000,
                                     /*drain_cap=*/400000, /*seed=*/61);
  Row row;
  std::uint64_t setups_started = 0;
  std::uint64_t setups_succeeded = 0;
  for (NodeId n = 0; n < sim.topology().num_nodes(); ++n) {
    const auto& s = sim.network().interface(n).stats();
    setups_started += s.setups_started;
    setups_succeeded += s.setups_succeeded;
  }
  const auto& s = r.stats;
  row.setup_success = setups_started > 0
      ? static_cast<double>(setups_succeeded) / setups_started
      : 0.0;
  row.probes_per_setup = setups_started > 0
      ? static_cast<double>(s.probes_launched) / setups_started
      : 0.0;
  if (const auto* cp = sim.network().control_plane(); cp != nullptr) {
    row.force_waits = cp->stats().force_waits;
    row.release_requests = cp->stats().release_requests_sent;
  }
  const double total = static_cast<double>(s.messages_delivered);
  row.fallback_share = total > 0 ? s.fallback_count / total : 0.0;
  row.mean = s.latency_mean;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E10", "CLRP setup anatomy: full protocol vs simplifications");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E10", "CLRP setup anatomy: full protocol vs simplifications",
                "8x8 torus, k=2, cache 4 entries vs working set 6 (p=0.8), "
                "48-flit messages, load 0.15");
  std::vector<sim::ClrpVariant> variants{
      sim::ClrpVariant::kFull, sim::ClrpVariant::kForceFirst,
      sim::ClrpVariant::kSingleSwitch};
  if (cli.quick()) variants = {sim::ClrpVariant::kFull};
  std::vector<Row> rows(variants.size());
  harness::run_indexed(variants.size(),
                      [&](std::size_t i) { rows[i] = run_point(variants[i]); },
                      cli.threads());

  bench::Table table({"variant", "setup-ok", "probes/setup", "force-waits",
                      "release-reqs", "fallback", "mean-lat"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Row& r = rows[i];
    table.add_row({sim::to_string(variants[i]), bench::fmt_pct(r.setup_success),
                   bench::fmt(r.probes_per_setup, 2),
                   bench::fmt_int(r.force_waits),
                   bench::fmt_int(r.release_requests),
                   bench::fmt_pct(r.fallback_share), bench::fmt(r.mean, 1)});
  }
  cli.report(table, "e10_setup_anatomy");
  std::printf("\nExpected shape: the variants trade probe work against "
              "teardown pressure --\nforce-first spends the fewest probes "
              "per setup (it never searches politely)\nat the cost of more "
              "release requests; the full protocol searches all\nswitches "
              "first. The paper (section 3.1): the optimal variant is "
              "workload-\nand-k dependent, 'it can only be tuned by using "
              "traces from real applications'.\n");
  return true;
  });
}
