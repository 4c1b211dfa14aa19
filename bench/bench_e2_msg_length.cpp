// E2 -- Message-length sensitivity: the paper's headline numbers.
//
// Claim (sections 1 and 5): wave switching improves latency/throughput "by
// a factor higher than three if messages are long enough (>= 128 flits),
// even if circuits are not reused. For short messages, wave switching can
// only improve performance if circuits are reused."
//
// Method: unloaded 8x8 torus, one src->dest pair at the typical distance
// (8 hops). For each message length we measure (a) wormhole latency,
// (b) wave latency including a fresh circuit setup (no reuse: the circuit
// is evicted between messages), and (c) wave latency on a reused circuit.
#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

double wormhole_latency(std::int32_t length, NodeId src, NodeId dest) {
  core::Simulation sim(sim::SimConfig::wormhole_baseline());
  sim.send(src, dest, length);
  bench::require(sim.run_until_delivered(1'000'000),
                 "E2: wormhole reference message did not deliver");
  return sim.network().messages().at(0).latency();
}

/// {setup-latency (cold, no reuse), hit-latency (reused)}.
std::pair<double, double> wave_latency(std::int32_t length, NodeId src,
                                       NodeId dest) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  core::Simulation sim(config);
  sim.send(src, dest, length);
  bench::require(sim.run_until_delivered(1'000'000),
                 "E2: cold wave message did not deliver");
  const double cold = sim.network().messages().at(0).latency();
  sim.send(src, dest, length);
  bench::require(sim.run_until_delivered(1'000'000),
                 "E2: warm wave message did not deliver");
  const double hit = sim.network().messages().at(1).latency();
  return {cold, hit};
}

/// Mean latency under uniform load (0.25 flits/node/cycle). With 63
/// possible destinations and an 8-entry cache, circuit reuse is rare --
/// this is the "even if circuits are not reused" regime of the claim.
double loaded_latency(sim::ProtocolKind protocol, std::int32_t length) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = protocol;
  if (protocol == sim::ProtocolKind::kWormholeOnly) {
    config.router.wave_switches = 0;
  }
  config.seed = 4;
  core::Simulation sim(config);
  load::UniformTraffic pattern(sim.topology());
  load::FixedSize sizes(length);
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.25,
                                     /*warmup=*/2000, /*measure=*/8000,
                                     /*drain_cap=*/300000, /*seed=*/19);
  return r.stats.latency_mean;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("E2", "message-length sensitivity (the >=128-flit, >3x claim)");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
  bench::banner("E2", "message-length sensitivity (the >=128-flit, >3x claim)",
                "unloaded columns: single message (0,0)->(4,4), 8 hops; "
                "loaded column: uniform traffic at 0.25 flits/node/cycle "
                "(negligible reuse)");
  topo::KAryNCube topo({8, 8}, true);
  const NodeId src = topo.node_of({0, 0});
  const NodeId dest = topo.node_of({4, 4});

  std::vector<std::int32_t> lengths{8, 16, 32, 64, 128, 256, 512};
  if (cli.quick()) lengths = {8, 128};
  std::vector<double> wh_loaded(lengths.size());
  std::vector<double> wave_loaded(lengths.size());
  harness::run_indexed(lengths.size() * 2, [&](std::size_t i) {
    const std::size_t li = i / 2;
    if (i % 2 == 0) {
      wh_loaded[li] =
          loaded_latency(sim::ProtocolKind::kWormholeOnly, lengths[li]);
    } else {
      wave_loaded[li] = loaded_latency(sim::ProtocolKind::kClrp, lengths[li]);
    }
  }, cli.threads());

  bench::Table table({"flits", "wormhole", "wave-noreuse", "wave-reuse",
                      "gain-noreuse", "gain-reuse", "gain-loaded"});
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    const std::int32_t length = lengths[i];
    const double wh = wormhole_latency(length, src, dest);
    const auto [cold, hit] = wave_latency(length, src, dest);
    table.add_row({bench::fmt_int(length), bench::fmt(wh, 0),
                   bench::fmt(cold, 0), bench::fmt(hit, 0),
                   bench::fmt(wh / cold, 2) + "x",
                   bench::fmt(wh / hit, 2) + "x",
                   bench::fmt(wh_loaded[i] / wave_loaded[i], 2) + "x"});
  }
  cli.report(table, "e2_msg_length");
  std::printf("\nExpected shape: the unloaded no-reuse gain grows with "
              "length (setup amortizes);\nunder load the gain exceeds 3x "
              "for >=128-flit messages even without reuse,\nwhile reuse "
              "(gain-reuse) is what rescues short messages.\n");
  return true;
  });
}
