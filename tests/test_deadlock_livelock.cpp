// Dynamic verification of the paper's Theorems 1-4: under sustained
// adversarial traffic, with tiny circuit caches (maximal Force-bit
// contention) and every protocol variant, the network never deadlocks
// (progress watchdog), never livelocks (bounded probe search), and
// delivers every message.
#include <gtest/gtest.h>

#include "core/control_plane.hpp"
#include "core/instrumentation.hpp"
#include "core/simulation.hpp"
#include "sim/rng.hpp"
#include "verify/delivery.hpp"
#include "verify/fsck.hpp"
#include "verify/watchdog.hpp"
#include "wormhole/link_gate.hpp"

namespace wavesim {
namespace {

using core::Simulation;

struct StressCase {
  const char* name;
  sim::ProtocolKind protocol;
  sim::ClrpVariant variant;
  sim::RoutingKind routing;
  const char* pattern;  // uniform | hotspot | transpose | neighbor
  std::uint64_t seed;
  double load;  // messages per node per cycle
  bool pcs_only = false;
};

std::string PrintCase(const ::testing::TestParamInfo<StressCase>& info) {
  return std::string(info.param.name) + "_seed" +
         std::to_string(info.param.seed);
}

class DeadlockLivelock : public ::testing::TestWithParam<StressCase> {};

NodeId pick_dest(const topo::KAryNCube& topo, const std::string& pattern,
                 NodeId src, sim::Rng& rng) {
  const std::int32_t n = topo.num_nodes();
  if (pattern == "hotspot") {
    // 30% of traffic to one node, rest uniform.
    if (rng.chance(0.3)) {
      const NodeId hot = n / 2;
      if (hot != src) return hot;
    }
  } else if (pattern == "transpose") {
    const auto c = topo.coord_row(src);
    topo::Coord t{c[1], c[0]};
    const NodeId d = topo.node_of(t);
    if (d != src) return d;
  } else if (pattern == "neighbor") {
    const PortId p = static_cast<PortId>(rng.next_below(topo.num_ports()));
    const NodeId d = topo.neighbor(src, p);
    if (d != kInvalidNode && d != src) return d;
  }
  NodeId d = static_cast<NodeId>(rng.next_below(n));
  while (d == src) d = static_cast<NodeId>(rng.next_below(n));
  return d;
}

TEST_P(DeadlockLivelock, DeliversEverythingWithoutStalling) {
  const StressCase& param = GetParam();
  sim::SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.topology.torus = true;
  cfg.protocol.protocol = param.protocol;
  cfg.protocol.clrp_variant = param.variant;
  cfg.router.routing = param.routing;
  cfg.router.wormhole_vcs =
      param.routing == sim::RoutingKind::kDuatoAdaptive ? 3 : 2;
  cfg.router.wave_switches =
      param.protocol == sim::ProtocolKind::kWormholeOnly ? 0 : 1;
  cfg.protocol.pcs_only = param.pcs_only;
  cfg.protocol.circuit_cache_entries = 2;  // force evictions + Force probes
  cfg.protocol.max_misroutes = 1;
  cfg.seed = param.seed;

  Simulation sim(cfg);
  verify::ProgressWatchdog watchdog(sim.network(), /*patience=*/20000);
  sim::Rng rng{param.seed * 7919 + 13};

  const Cycle inject_for = 4000;
  const std::int32_t n = sim.topology().num_nodes();
  std::uint64_t offered = 0;
  for (Cycle c = 0; c < inject_for; ++c) {
    for (NodeId src = 0; src < n; ++src) {
      if (!rng.chance(param.load)) continue;
      const NodeId dest = pick_dest(sim.topology(), param.pattern, src, rng);
      const std::int32_t len =
          static_cast<std::int32_t>(4 + rng.next_below(60));
      if (param.protocol == sim::ProtocolKind::kCarp && rng.chance(0.3)) {
        sim.establish_circuit(src, dest);
      }
      sim.send(src, dest, len);
      ++offered;
      if (param.protocol == sim::ProtocolKind::kCarp && rng.chance(0.1)) {
        sim.release_circuit(src, dest);
      }
    }
    sim.step();
    if ((c & 1023) == 0) {
      ASSERT_NE(watchdog.poll(), verify::Verdict::kStuck)
          << "deadlock suspected at cycle " << sim.now();
      const auto fsck = verify::check_control_state(sim.network());
      ASSERT_TRUE(fsck.ok()) << "at cycle " << sim.now() << ": "
                             << fsck.summary();
    }
  }

  // Drain with the watchdog armed.
  Cycle guard = 0;
  while (!sim.network().quiescent()) {
    sim.run(1000);
    ASSERT_NE(watchdog.poll(), verify::Verdict::kStuck)
        << "deadlock suspected while draining at cycle " << sim.now();
    ASSERT_LT(guard += 1000, 3'000'000u) << "drain did not converge";
  }

  // Completeness + in-order + conservation + register-state consistency
  // + no leaked reservations after the drain.
  const auto check = verify::check_delivery(sim.network());
  EXPECT_TRUE(check.ok()) << check.summary();
  const auto fsck = verify::check_control_state(sim.network());
  EXPECT_TRUE(fsck.ok()) << fsck.summary();
  const auto drained = verify::check_drained(sim.network());
  EXPECT_TRUE(drained.ok()) << drained.summary();
  EXPECT_EQ(sim.stats().messages_delivered, offered);

  // Livelock bound: a probe's decision steps are bounded by the finite
  // search space plus the finite waits on established circuits.
  if (const auto* cp = sim.network().control_plane(); cp != nullptr) {
    EXPECT_LT(cp->stats().max_probe_steps, 1'000'000u)
        << "a probe searched far beyond the finite bound";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stress, DeadlockLivelock,
    ::testing::Values(
        StressCase{"clrp_uniform", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "uniform", 1, 0.02},
        StressCase{"clrp_uniform", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "uniform", 2, 0.02},
        StressCase{"clrp_hotspot", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "hotspot", 3, 0.015},
        StressCase{"clrp_transpose", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "transpose", 4, 0.02},
        StressCase{"clrp_neighbor", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "neighbor", 5, 0.03},
        StressCase{"clrp_forcefirst", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kForceFirst,
                   sim::RoutingKind::kDimensionOrder, "uniform", 6, 0.02},
        StressCase{"clrp_singleswitch", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kSingleSwitch,
                   sim::RoutingKind::kDimensionOrder, "hotspot", 7, 0.015},
        StressCase{"clrp_adaptive", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDuatoAdaptive,
                   "uniform", 8, 0.02},
        StressCase{"carp_uniform", sim::ProtocolKind::kCarp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "uniform", 9, 0.02},
        StressCase{"carp_neighbor", sim::ProtocolKind::kCarp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "neighbor", 10, 0.03},
        StressCase{"wormhole_uniform", sim::ProtocolKind::kWormholeOnly,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "uniform", 11, 0.04},
        StressCase{"wormhole_hotspot", sim::ProtocolKind::kWormholeOnly,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "hotspot", 12, 0.02},
        StressCase{"wormhole_adaptive", sim::ProtocolKind::kWormholeOnly,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDuatoAdaptive,
                   "transpose", 13, 0.03},
        StressCase{"pcs_only_uniform", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "uniform", 14, 0.01, /*pcs_only=*/true},
        StressCase{"pcs_only_hotspot", sim::ProtocolKind::kClrp,
                   sim::ClrpVariant::kFull, sim::RoutingKind::kDimensionOrder,
                   "hotspot", 15, 0.008, /*pcs_only=*/true}),
    PrintCase);

// Seed sweep: the same brutal CLRP configuration (k=1, 2-entry caches,
// hotspot traffic) across many seeds -- each seed explores a different
// interleaving of Force waits, release requests, teardowns and retries.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, ClrpHotspotNeverWedges) {
  sim::SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.topology.torus = true;
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  cfg.router.wave_switches = 1;
  cfg.protocol.circuit_cache_entries = 2;
  cfg.protocol.max_misroutes = 1;
  cfg.seed = GetParam();
  Simulation sim(cfg);
  sim::Rng rng{GetParam() * 2654435761ULL + 1};
  std::uint64_t offered = 0;
  for (Cycle c = 0; c < 2500; ++c) {
    for (NodeId src = 0; src < 16; ++src) {
      if (!rng.chance(0.012)) continue;
      const NodeId dest = pick_dest(sim.topology(), "hotspot", src, rng);
      sim.send(src, dest, static_cast<std::int32_t>(4 + rng.next_below(44)));
      ++offered;
    }
    sim.step();
  }
  ASSERT_TRUE(sim.run_until_delivered(3'000'000)) << "seed " << GetParam();
  EXPECT_EQ(sim.stats().messages_delivered, offered);
  const auto check = verify::check_delivery(sim.network());
  EXPECT_TRUE(check.ok()) << check.summary();
  const auto fsck = verify::check_control_state(sim.network());
  EXPECT_TRUE(fsck.ok()) << fsck.summary();
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(100, 120));

// The Force-bit corner of Theorem 1: Force lets a probe wait only on a
// channel whose circuit is *established* (and demand its release). When
// every requested channel belongs to a circuit still being established
// (reservation placed, ack not yet returned), even a Force probe must
// backtrack -- waiting there could deadlock two pending setups against
// each other. This drives that exact interleaving and asserts (a) the
// probe backtracks (kBacktracked fires), and (b) nothing established is
// torn down.
TEST(ForceCorner, ForceProbeBacktracksOffPendingChannelsOnly) {
  const topo::KAryNCube topo({4, 4}, /*torus=*/true);
  wh::LinkGate gate(topo);
  core::CircuitTable circuits;
  core::Instrumentation instr;
  std::vector<core::Event> events;
  instr.set_sink([&](const core::Event& ev) { events.push_back(ev); });
  // One switch, m = 0: the probe has no misroute escape, so the pending
  // minimal channel is the only thing it could possibly wait on.
  core::ControlPlane plane(topo, circuits, gate,
                           core::ControlPlaneParams{1, 0}, &instr);

  Cycle now = 0;
  std::vector<core::ProbeResult> results;
  const auto run = [&](int cycles) {
    for (int i = 0; i < cycles; ++i) {
      gate.reset();
      plane.step(now++);
      for (const auto& r : plane.take_probe_results()) results.push_back(r);
      plane.take_release_demands();
      plane.take_teardowns_done();
    }
  };

  // An established bystander circuit off the probe's minimal path: it must
  // survive untouched.
  const NodeId n10 = topo.node_of({1, 0});
  const CircuitId bystander = circuits.create(n10, topo.node_of({1, 1}), 0);
  plane.launch_probe(bystander, /*force=*/false);
  run(64);
  ASSERT_EQ(circuits.at(bystander).state, core::CircuitState::kEstablished);

  // Pending setup A: (1,0) -> (3,0) reserves (1,0)+x immediately, and its
  // ack only returns to (1,0) several hops later -- a window in which the
  // channel is busy with a circuit still being established.
  const CircuitId pending = circuits.create(n10, topo.node_of({3, 0}), 0);
  plane.launch_probe(pending, /*force=*/false);
  run(1);  // A has reserved (1,0)+x and moved on; ack far away

  // Force probe B: (0,0) -> (2,0). Its only minimal port at (1,0) is the
  // channel A holds pending. With m = 0 there is nothing else to request.
  const CircuitId forced = circuits.create(topo.node_of({0, 0}),
                                           topo.node_of({2, 0}), 0);
  plane.launch_probe(forced, /*force=*/true);
  run(64);  // everything settles

  // B advanced one hop, hit the pending wall, backtracked, and failed at
  // the source (no misroute credit) instead of waiting.
  bool backtracked = false;
  for (const auto& ev : events) {
    if (ev.kind == core::EventKind::kBacktracked && ev.circuit == forced) {
      backtracked = true;
    }
  }
  EXPECT_TRUE(backtracked)
      << "Force probe should retreat off a pending channel, not wait";
  bool failed = false;
  for (const auto& r : results) {
    if (r.circuit == forced && !r.success) failed = true;
  }
  EXPECT_TRUE(failed) << "exhausted Force probe must report failure";

  // No Force teardown of anything: the bystander is still established and
  // the pending setup completed normally.
  EXPECT_EQ(plane.stats().teardowns_started, 0u);
  for (const auto& ev : events) {
    EXPECT_NE(ev.kind, core::EventKind::kForceTeardown);
    EXPECT_NE(ev.kind, core::EventKind::kTeardownStarted);
  }
  EXPECT_EQ(circuits.at(bystander).state, core::CircuitState::kEstablished);
  EXPECT_EQ(circuits.at(pending).state, core::CircuitState::kEstablished);
}

// Faults + Force probes together: the hardest corner of Theorem 1.
TEST(DeadlockLivelockFaults, ClrpSurvivesFaultyFabric) {
  for (const double rate : {0.05, 0.2, 0.5}) {
    sim::SimConfig cfg;
    cfg.topology.radix = {4, 4};
    cfg.topology.torus = true;
    cfg.protocol.protocol = sim::ProtocolKind::kClrp;
    cfg.protocol.circuit_cache_entries = 2;
    cfg.faults.link_fault_rate = rate;
    cfg.seed = 99;
    Simulation sim(cfg);
    sim::Rng rng{1234};
    std::uint64_t offered = 0;
    for (Cycle c = 0; c < 3000; ++c) {
      for (NodeId src = 0; src < 16; ++src) {
        if (!rng.chance(0.02)) continue;
        NodeId dest = static_cast<NodeId>(rng.next_below(16));
        if (dest == src) dest = (dest + 1) % 16;
        sim.send(src, dest, static_cast<std::int32_t>(4 + rng.next_below(28)));
        ++offered;
      }
      sim.step();
    }
    ASSERT_TRUE(sim.run_until_delivered(3'000'000))
        << "fault rate " << rate << " wedged the network";
    const auto check = verify::check_delivery(sim.network());
    EXPECT_TRUE(check.ok()) << check.summary();
    EXPECT_EQ(sim.stats().messages_delivered, offered);
  }
}

}  // namespace
}  // namespace wavesim
