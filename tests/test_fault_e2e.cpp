// End-to-end dynamic-fault tests: mid-run link failures against a live
// Simulation. Circuits crossing a dead link are invalidated (cache entry
// evicted, in-flight transfer resent via wormhole), unreachable
// destinations divert to the never-failing S0 wormhole plane, and after
// repair the distance-vector layer re-converges and circuits re-establish.
// The sharded parallel engine must stay bit-identical through all of it.
#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "event_fingerprint.hpp"

namespace wavesim::core {
namespace {

/// 1-D 4-mesh (line 0-1-2-3): every route is forced, so failing link 1-2
/// provably cuts the circuit planes between {0,1} and {2,3}.
sim::SimConfig line_config() {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.topology.radix = {4};
  cfg.topology.torus = false;
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  return cfg;
}

sim::SimConfig torus_config() {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.topology.radix = {4, 4};
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  return cfg;
}

TEST(FaultE2E, EstablishedCircuitCrossingDeadLinkIsInvalidated) {
  sim::SimConfig cfg = line_config();
  cfg.faults.events.push_back({1500, sim::FaultEventKind::kLinkDown, 1, 0});
  Simulation sim(cfg);

  const MessageId first = sim.send(0, 3, 64);
  sim.run(1000);
  EXPECT_TRUE(sim.message_done(first));
  EXPECT_EQ(sim.stats().circuit_setup_count, 1u);

  sim.run(1000);  // the failure at 1500 hits the idle cached circuit
  const auto stats = sim.stats();
  EXPECT_EQ(stats.links_failed, 1u);
  EXPECT_EQ(stats.circuits_killed, 1u);
  EXPECT_EQ(stats.circuits_invalidated, 1u);
  EXPECT_GT(stats.routes_withdrawn, 0u);
}

TEST(FaultE2E, CapacityOneCacheLosesItsOnlyEntryAndFallsBackWhileCut) {
  sim::SimConfig cfg = line_config();
  cfg.protocol.circuit_cache_entries = 1;
  cfg.faults.events.push_back({1500, sim::FaultEventKind::kLinkDown, 1, 0});
  Simulation sim(cfg);

  const MessageId first = sim.send(0, 3, 64);
  sim.run(2000);  // established, cached, then invalidated at 1500
  EXPECT_TRUE(sim.message_done(first));
  EXPECT_EQ(sim.stats().circuits_invalidated, 1u);

  // The only entry is gone and 3 is unreachable on the circuit planes:
  // the retry is a miss that diverts straight to the wormhole fallback.
  const MessageId second = sim.send(0, 3, 64);
  ASSERT_TRUE(sim.run_until_delivered(50'000));
  EXPECT_TRUE(sim.message_done(second));
  EXPECT_EQ(sim.network().messages().at(second).mode,
            MessageMode::kWormholeFallback);
  const auto stats = sim.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_GE(stats.unreachable_fallbacks, 1u);
  EXPECT_EQ(stats.messages_delivered, 2u);
}

TEST(FaultE2E, ReprobesAfterLinkRecovery) {
  // k = 1: one wave switch, one circuit plane. Fail the middle link, let
  // the DV layer converge to "unreachable", repair it, and verify a later
  // message re-probes and establishes a fresh circuit end-to-end.
  sim::SimConfig cfg = line_config();
  cfg.router.wave_switches = 1;
  cfg.faults.events.push_back({1500, sim::FaultEventKind::kLinkDown, 1, 0});
  cfg.faults.events.push_back({3000, sim::FaultEventKind::kLinkUp, 1, 0});
  Simulation sim(cfg);

  const MessageId before = sim.send(0, 3, 64);
  sim.run(2000);
  EXPECT_TRUE(sim.message_done(before));
  EXPECT_EQ(sim.stats().circuits_invalidated, 1u);

  const MessageId during = sim.send(0, 3, 64);  // cut: wormhole fallback
  sim.run(2000);  // crosses the repair at 3000; DV re-converges
  EXPECT_TRUE(sim.message_done(during));
  EXPECT_EQ(sim.network().messages().at(during).mode,
            MessageMode::kWormholeFallback);

  const MessageId after = sim.send(0, 3, 64);
  ASSERT_TRUE(sim.run_until_delivered(100'000));
  EXPECT_TRUE(sim.message_done(after));
  EXPECT_EQ(sim.network().messages().at(after).mode,
            MessageMode::kCircuitAfterSetup);
  const auto stats = sim.stats();
  EXPECT_EQ(stats.circuit_setup_count, 2u);
  EXPECT_GE(stats.probes_succeeded, 2u);
  EXPECT_EQ(stats.links_restored, 1u);
  EXPECT_EQ(stats.messages_delivered, 3u);
}

TEST(FaultE2E, FailureInAnyProbeOrTransferPhaseStillDelivers) {
  // Sweep the failure cycle across the whole setup/transfer window of a
  // single message. Whatever phase the link dies in -- probe in flight,
  // circuit established, transfer running -- the message must arrive, and
  // at least one phase of the sweep must kill a live circuit and at least
  // one must abort an in-flight transfer.
  std::uint64_t circuits_killed = 0;
  std::uint64_t transfers_aborted = 0;
  std::uint64_t probes_killed = 0;
  for (Cycle at = 1; at <= 60; at += 1) {
    sim::SimConfig cfg = line_config();
    cfg.faults.events.push_back(
        {at, sim::FaultEventKind::kLinkDown, 1, 0});
    Simulation sim(cfg);
    const MessageId id = sim.send(0, 3, 96);
    ASSERT_TRUE(sim.run_until_delivered(100'000)) << "failure at " << at;
    EXPECT_TRUE(sim.message_done(id)) << "failure at " << at;
    const auto stats = sim.stats();
    EXPECT_EQ(stats.messages_delivered, 1u) << "failure at " << at;
    circuits_killed += stats.circuits_killed;
    transfers_aborted += stats.transfers_aborted;
    probes_killed += stats.probes_killed;
  }
  EXPECT_GT(circuits_killed, 0u);
  EXPECT_GT(transfers_aborted, 0u);
  EXPECT_GT(probes_killed, 0u);
}

TEST(FaultE2E, StormDeliversEverythingAndReestablishesCircuits) {
  // The acceptance scenario in miniature: ~31% of links fail at cycle 300
  // and recover 1500 cycles later, under steady all-pairs traffic. Every
  // message is survivable (S0 never fails) so every message must arrive.
  sim::SimConfig cfg = torus_config();
  cfg.faults.storm.at = 300;
  cfg.faults.storm.fraction = 0.31;
  cfg.faults.storm.repair_after = 1500;
  Simulation sim(cfg);

  std::uint64_t offered = 0;
  for (int round = 0; round < 13; ++round) {
    for (NodeId n = 0; n < 16; ++n) {
      sim.send(n, (n + 5) % 16, 48);
      ++offered;
    }
    sim.run(50);
  }
  // Ride out the repair at cycle 1800 plus DV re-convergence, then send a
  // final round against the healed network: any pair whose circuit was
  // invalidated and never re-established must now re-probe and succeed.
  sim.run(2500);
  for (NodeId n = 0; n < 16; ++n) {
    sim.send(n, (n + 5) % 16, 48);
    ++offered;
  }
  ASSERT_TRUE(sim.run_until_delivered(300'000));

  const auto stats = sim.stats();
  EXPECT_EQ(stats.messages_delivered, offered);
  EXPECT_EQ(stats.links_failed, 10u);  // round(0.31 * 32)
  EXPECT_EQ(stats.links_restored, 10u);
  EXPECT_GT(stats.circuits_invalidated, 0u);
  EXPECT_GT(stats.routes_withdrawn, 0u);
  EXPECT_GT(stats.dv_updates_sent, 0u);
  // After repair the network is whole again: fresh circuits established
  // beyond the pre-storm set.
  EXPECT_GT(stats.probes_succeeded, 16u);
}

TEST(FaultE2E, ParallelEngineIsBitIdenticalUnderStorm) {
  auto run_once = [](std::int32_t shards) {
    sim::SimConfig cfg = torus_config();
    cfg.faults.storm.at = 200;
    cfg.faults.storm.fraction = 0.25;
    cfg.faults.storm.repair_after = 900;
    Simulation sim(cfg);
    if (shards > 0) {
      engine::EngineConfig engine_config;
      engine_config.kind = engine::EngineKind::kPar;
      engine_config.shards = shards;
      sim.set_engine(
          engine::make_engine(engine_config, sim.topology().num_nodes()));
    }
    EventFingerprint fp;
    sim.set_event_sink([&](const Event& ev) { fp.feed(ev); });
    for (int round = 0; round < 10; ++round) {
      for (NodeId n = 0; n < 16; ++n) sim.send(n, (n + 7) % 16, 32);
      sim.run(40);
    }
    EXPECT_TRUE(sim.run_until_delivered(300'000));
    return std::pair<std::uint64_t, Cycle>{fp.value, sim.now()};
  };

  const auto seq = run_once(0);
  EXPECT_EQ(run_once(2), seq);
  EXPECT_EQ(run_once(8), seq);
}

}  // namespace
}  // namespace wavesim::core
