// E8 -- Static-fault resilience (section 2: MB-m "is very resilient to
// static faults in the network"; section 5: "tolerance to static faults
// ... is guaranteed for all the messages using physical circuits").
//
// Sweeps the circuit-channel fault rate at two misroute budgets. Load is
// kept low so contention does not mask the fault effect. Delivery must be
// 100% at every fault rate (wormhole fallback).
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "verify/delivery.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Row {
  double setup_success = 0.0;  ///< circuits established / setups started
  double fallback_share = 0.0;
  double mean = 0.0;
  bool all_delivered = false;
  std::int64_t faulty = 0;
};

Row run_point(double rate, std::int32_t m) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  config.protocol.max_misroutes = m;
  config.faults.link_fault_rate = rate;
  config.seed = 1234;
  core::Simulation sim(config);
  load::UniformTraffic pattern(sim.topology());
  load::FixedSize sizes(64);
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.02,
                                     /*warmup=*/2000, /*measure=*/12000,
                                     /*drain_cap=*/600000, /*seed=*/55);
  Row row;
  std::uint64_t setups_started = 0;
  std::uint64_t setups_succeeded = 0;
  for (NodeId n = 0; n < sim.topology().num_nodes(); ++n) {
    const auto& s = sim.network().interface(n).stats();
    setups_started += s.setups_started;
    setups_succeeded += s.setups_succeeded;
  }
  row.setup_success = setups_started > 0
      ? static_cast<double>(setups_succeeded) / setups_started
      : 0.0;
  const double total = static_cast<double>(r.stats.messages_delivered);
  row.fallback_share = total > 0 ? r.stats.fallback_count / total : 0.0;
  row.mean = r.stats.latency_mean;
  row.all_delivered = r.drained && verify::check_delivery(sim.network()).ok();
  row.faulty = sim.network().faulty_channels();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E8", "static-fault resilience of circuit setup");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E8", "static-fault resilience of circuit setup",
                "8x8 torus, CLRP, uniform traffic, 64-flit messages, light "
                "load 0.02; fault rate on circuit channel pairs swept, "
                "m in {0, 2}");
  std::vector<double> rates{0.0, 0.05, 0.10, 0.20, 0.30, 0.40};
  if (cli.quick()) rates = {0.0, 0.20};
  std::vector<Row> m0(rates.size());
  std::vector<Row> m2(rates.size());
  harness::run_indexed(rates.size() * 2, [&](std::size_t i) {
    const std::size_t ri = i / 2;
    if (i % 2 == 0) {
      m0[ri] = run_point(rates[ri], 0);
    } else {
      m2[ri] = run_point(rates[ri], 2);
    }
  }, cli.threads());

  bench::Table table({"fault-rate", "faulty-chan", "setup-ok(m=0)",
                      "setup-ok(m=2)", "fallback(m=2)", "mean(m=2)",
                      "delivered"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    table.add_row({bench::fmt_pct(rates[i], 0), bench::fmt_int(m2[i].faulty),
                   bench::fmt_pct(m0[i].setup_success),
                   bench::fmt_pct(m2[i].setup_success),
                   bench::fmt_pct(m2[i].fallback_share),
                   bench::fmt(m2[i].mean, 1),
                   m0[i].all_delivered && m2[i].all_delivered ? "all"
                                                              : "LOST"});
  }
  cli.report(table, "e8_faults");
  std::printf("\nExpected shape: setup success degrades gracefully with the "
              "fault rate and\nis consistently higher with misrouting "
              "(m=2) than without (m=0); delivery\nstays at 100%% "
              "throughout thanks to the fault-free wormhole fallback.\n");
  bool all_delivered = true;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    all_delivered = all_delivered && m0[i].all_delivered && m2[i].all_delivered;
  }
  if (!all_delivered) {
    std::fprintf(stderr, "E8: messages lost under faults (see table)\n");
  }
  return all_delivered;
  });
}
