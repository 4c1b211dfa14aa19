// E4 -- CLRP vs CARP on phase-structured applications (section 3: "the
// CARP protocol is able to achieve a higher performance because a circuit
// is only established when there is enough temporal communication
// locality").
//
// Two synthetic applications with compiler-visible communication:
//  * 5-point stencil (halo exchange with fixed neighbors every iteration)
//  * master/worker (requests in, data chunks out)
// Each runs identically under wormhole, CLRP (circuits discovered on
// demand) and CARP (circuits prefetched/released by the "compiler").
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/trace.hpp"

namespace {

using namespace wavesim;

struct Row {
  double mean = 0.0;
  double p99 = 0.0;
  Cycle makespan = 0;
  double circuit_share = 0.0;
};

Row run_trace(sim::ProtocolKind protocol, const load::Trace& trace) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = protocol;
  if (protocol == sim::ProtocolKind::kWormholeOnly) {
    config.router.wave_switches = 0;
  }
  core::Simulation sim(config);
  // Only CARP executes the establish/release instructions; the other
  // protocols replay the identical send sequence.
  if (protocol == sim::ProtocolKind::kCarp) {
    load::replay(trace, sim, 4'000'000);
  } else {
    load::replay(trace.without_circuit_ops(), sim, 4'000'000);
  }
  const auto stats = sim.stats();
  Row row;
  row.mean = stats.latency_mean;
  row.p99 = stats.latency_p99;
  row.makespan = sim.now();
  const double total = static_cast<double>(stats.messages_delivered);
  row.circuit_share =
      total > 0 ? (stats.circuit_hit_count + stats.circuit_setup_count) / total
                : 0.0;
  return row;
}

void run_app(bench::Cli& cli, const char* name, const char* csv,
             const load::Trace& trace) {
  std::printf("\n[%s]\n", name);
  bench::Table table(
      {"protocol", "mean-lat", "p99", "makespan", "circuit-share"});
  std::vector<Row> rows(3);
  const std::vector<sim::ProtocolKind> protocols{
      sim::ProtocolKind::kWormholeOnly, sim::ProtocolKind::kClrp,
      sim::ProtocolKind::kCarp};
  harness::run_indexed(protocols.size(), [&](std::size_t i) {
    rows[i] = run_trace(protocols[i], trace);
  }, cli.threads());
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const Row& row = rows[i];
    bench::require(row.mean > 0.0,
                   std::string("E4: no traffic delivered under ") +
                       sim::to_string(protocols[i]));
    table.add_row({sim::to_string(protocols[i]), bench::fmt(row.mean, 1),
                   bench::fmt(row.p99, 1), bench::fmt_int(row.makespan),
                   bench::fmt_pct(row.circuit_share)});
  }
  cli.report(table, csv);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E4", "CLRP vs CARP on compiler-visible workloads");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E4", "CLRP vs CARP on compiler-visible workloads",
                "8x8 torus; stencil: 6 iterations x 64-flit halos to 4 "
                "neighbors; master/worker: 4 rounds, 4-flit requests, "
                "64-flit chunks");
  topo::KAryNCube topo({8, 8}, true);
  const std::int32_t iterations = cli.quick() ? 2 : 6;
  const std::int32_t rounds = cli.quick() ? 2 : 4;
  run_app(cli, "5-point stencil", "e4_stencil",
          load::make_stencil_trace(topo, iterations, 64, 300, /*carp=*/true));
  run_app(cli, "master/worker", "e4_master_worker",
          load::make_master_worker_trace(topo, topo.node_of({4, 4}), rounds, 4,
                                         64, 800, /*carp=*/true));
  std::printf("\nExpected shape: CARP matches or beats CLRP mean latency "
              "(setup prefetched\noff the critical path) and both beat "
              "wormhole decisively on these\nlocality-heavy apps.\n");
  return true;
  });
}
