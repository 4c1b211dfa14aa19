// Golden regression: one fixed scenario with every counter pinned to its
// recorded value. The simulator is specified to be bit-deterministic for a
// given seed, so ANY change here is a behavior change -- if it is
// intentional (model improvement, protocol fix), update the constants in
// the same commit and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "snap/runstate.hpp"
#include "workload/generator.hpp"

namespace wavesim {
namespace {

TEST(Golden, ClrpWorkingSetScenario) {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  cfg.seed = 20260707;
  core::Simulation sim(cfg);
  load::WorkingSetTraffic pattern(sim.topology(), 3, 0.8, sim::Rng{99});
  load::BimodalSize sizes(8, 96, 0.4);
  const auto r = load::run_open_loop(sim, pattern, sizes, /*load=*/0.08,
                                     /*warmup=*/1000, /*measure=*/4000,
                                     /*drain_cap=*/300000, /*seed=*/12345);
  const auto& s = r.stats;
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(s.messages_offered, 455u);
  EXPECT_EQ(s.messages_delivered, 455u);
  EXPECT_EQ(sim.now(), 5182u);
  EXPECT_NEAR(s.latency_mean, 69.400000, 1e-6);
  EXPECT_DOUBLE_EQ(s.latency_p50, 49.0);
  EXPECT_DOUBLE_EQ(s.latency_p99, 280.0);
  EXPECT_NEAR(s.throughput_flits_per_node_cycle, 0.07061572, 1e-8);
  EXPECT_EQ(s.cache_hits, 153u);
  EXPECT_EQ(s.cache_misses, 423u);
  EXPECT_EQ(s.cache_evictions, 0u);
  EXPECT_EQ(s.probes_launched, 872u);
  EXPECT_EQ(s.probes_succeeded, 423u);
  EXPECT_EQ(s.probe_backtracks, 4689u);
  EXPECT_EQ(s.probe_misroutes, 2134u);
  EXPECT_EQ(s.release_requests, 359u);
  EXPECT_EQ(s.teardowns, 350u);
}

// Wormhole router goldens: saturating runs whose full-state checkpoint
// digests (router buffers, VC states, credits and every round-robin
// pointer included) are pinned mid-run and at the end. Any change to the
// order in which the router grants the switch, allocates VCs or computes
// routes moves these digests; the constants were recorded with the
// full-scan router the slot-set router replaced. Offered loads are past
// saturation, so the cases cover credit stalls, VC allocation contention,
// 1- and 2-word slot sets (w=16 on a 2-D torus is 80 input slots, w=10 on
// a 3-D torus 70) and, in the CLRP case, wormhole fallbacks whose switch
// grants are denied by control flits holding the link.
struct RouterGoldenCase {
  std::string name;
  snap::RunSpec spec;
  Cycle cut;                   ///< cycle of the mid-run checkpoint
  std::uint64_t mid_digest;    ///< checkpoint digest at `cut`
  std::uint64_t final_digest;  ///< checkpoint digest once done()
};

void PrintTo(const RouterGoldenCase& c, std::ostream* os) { *os << c.name; }

snap::RunSpec saturating(std::vector<std::int32_t> radix, bool torus,
                         sim::RoutingKind routing, std::int32_t vcs,
                         double load) {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::wormhole_baseline();
  spec.config.topology.radix = std::move(radix);
  spec.config.topology.torus = torus;
  spec.config.router.routing = routing;
  spec.config.router.wormhole_vcs = vcs;
  spec.pattern = "uniform";
  spec.message_flits = 16;
  spec.offered_load = load;
  spec.warmup = 200;
  spec.measure = 800;
  spec.drain_cap = 100'000;
  spec.seed = 11;
  return spec;
}

snap::RunSpec clrp_short_fallback() {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::default_torus();
  spec.config.protocol.protocol = sim::ProtocolKind::kClrp;
  spec.config.router.wave_switches = 2;
  spec.pattern = "uniform";
  spec.message_flits = 6;
  spec.offered_load = 0.30;
  spec.warmup = 200;
  spec.measure = 800;
  spec.drain_cap = 100'000;
  spec.seed = 13;
  return spec;
}

class RouterGolden : public ::testing::TestWithParam<RouterGoldenCase> {};

TEST_P(RouterGolden, CheckpointDigestsMatchRecorded) {
  const RouterGoldenCase& c = GetParam();
  snap::CheckpointableRun run(c.spec);
  ASSERT_EQ(run.advance(c.cut), c.cut);
  const std::uint64_t mid = run.checkpoint().digest();
  while (!run.done()) run.advance(1'000'000);
  const std::uint64_t end = run.checkpoint().digest();
  EXPECT_TRUE(run.result().drained);
  EXPECT_EQ(mid, c.mid_digest) << std::hex << "0x" << mid;
  EXPECT_EQ(end, c.final_digest) << std::hex << "0x" << end;
}

using sim::RoutingKind;

INSTANTIATE_TEST_SUITE_P(
    Saturating, RouterGolden,
    ::testing::Values(
        RouterGoldenCase{"torus8x8_dor_w2",
                         saturating({8, 8}, true, RoutingKind::kDimensionOrder,
                                    2, 0.60),
                         700, 0xf957d7ac0ea6cf96,
                         0xd6eb9f93d279755},
        RouterGoldenCase{"torus8x8_duato_w4",
                         saturating({8, 8}, true, RoutingKind::kDuatoAdaptive,
                                    4, 0.70),
                         700, 0x8df18076d55c4738,
                         0x2565737454fca75e},
        RouterGoldenCase{"torus4x4x4_dor_w3",
                         saturating({4, 4, 4}, true,
                                    RoutingKind::kDimensionOrder, 3, 0.60),
                         700, 0x6cbd5576f041c0ba,
                         0xdc6c220ab17e3068},
        RouterGoldenCase{"mesh8x8_negfirst_w2",
                         saturating({8, 8}, false, RoutingKind::kNegativeFirst,
                                    2, 0.50),
                         700, 0x38629df9deac124a,
                         0xc83ec24e6d84107},
        RouterGoldenCase{"torus8x8_duato_w16",
                         saturating({8, 8}, true, RoutingKind::kDuatoAdaptive,
                                    16, 0.80),
                         700, 0x777a819d85d60e6a,
                         0x2170e17d394ed87a},
        RouterGoldenCase{"torus4x4x4_dor_w10",
                         saturating({4, 4, 4}, true,
                                    RoutingKind::kDimensionOrder, 10, 0.80),
                         700, 0x76ab2b6145468363,
                         0x9408831f4edf91d7},
        RouterGoldenCase{"torus8x8_clrp_k2_short_fallback",
                         clrp_short_fallback(), 700, 0x460ebad226ea9ef1,
                         0x1528094101ed9a3f}),
    [](const ::testing::TestParamInfo<RouterGoldenCase>& param) {
      return param.param.name;
    });

// Idle-fabric injection goldens: open-loop CLRP runs whose full-state
// checkpoint digests (generator RNG state, offered counts, activity bytes
// and every router included) are pinned mid-run and at the end. At load
// 0.05 with 64-flit messages every message rides a circuit, so the
// wormhole plane is idle on most cycles and the per-node Bernoulli draw
// is most of the generator's work. The two edge loads pin the draw
// count: p = 0 (load 0) and p = 1 (load equal to the message length)
// must consume no draw at all. The constants were recorded before the
// threshold draw and the idle-range early exit in Network::step_shard.
snap::RunSpec clrp_idle(double load, bool pcs_only) {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::default_torus();
  spec.config.protocol.protocol = sim::ProtocolKind::kClrp;
  spec.config.protocol.pcs_only = pcs_only;
  spec.config.router.wave_switches = 2;
  spec.pattern = "uniform";
  spec.message_flits = 64;
  spec.offered_load = load;
  spec.warmup = 500;
  spec.measure = 4000;
  spec.drain_cap = 100'000;
  spec.seed = 17;
  return spec;
}

/// p = 1: every node offers a message on every cycle, far past
/// saturation, so the run is kept short and ends at its drain cap.
snap::RunSpec clrp_every_cycle() {
  snap::RunSpec spec = clrp_idle(/*load=*/64.0, /*pcs_only=*/false);
  spec.warmup = 40;
  spec.measure = 80;
  spec.drain_cap = 400;
  return spec;
}

struct InjectionGoldenCase {
  std::string name;
  snap::RunSpec spec;
  Cycle cut;                   ///< cycle of the mid-run checkpoint
  std::uint64_t mid_digest;    ///< checkpoint digest at `cut`
  std::uint64_t final_digest;  ///< checkpoint digest once done()
  std::uint64_t offered;       ///< messages offered over the whole run
};

void PrintTo(const InjectionGoldenCase& c, std::ostream* os) { *os << c.name; }

class InjectionGolden : public ::testing::TestWithParam<InjectionGoldenCase> {};

TEST_P(InjectionGolden, CheckpointDigestsMatchRecorded) {
  const InjectionGoldenCase& c = GetParam();
  snap::CheckpointableRun run(c.spec);
  ASSERT_EQ(run.advance(c.cut), c.cut);
  const std::uint64_t mid = run.checkpoint().digest();
  while (!run.done()) run.advance(1'000'000);
  const std::uint64_t end = run.checkpoint().digest();
  EXPECT_EQ(mid, c.mid_digest) << std::hex << "0x" << mid;
  EXPECT_EQ(end, c.final_digest) << std::hex << "0x" << end;
  EXPECT_EQ(run.sim().stats().messages_offered, c.offered);
}

INSTANTIATE_TEST_SUITE_P(
    IdleFabric, InjectionGolden,
    ::testing::Values(
        InjectionGoldenCase{"torus8x8_clrp_k2_load005",
                            clrp_idle(0.05, false), 2000,
                            0x5147ac9dee795e6c, 0xe0edf9312ebec335, 226},
        InjectionGoldenCase{"torus8x8_clrp_k2_pcs_only_load005",
                            clrp_idle(0.05, true), 2000,
                            0x8f67bfb8d19e8bc4, 0xb8adaa63dd4d992, 226},
        InjectionGoldenCase{"torus8x8_clrp_k2_load0", clrp_idle(0.0, false),
                            2000, 0xb905be2e60f29e60, 0xf902959d78e47c28, 0},
        InjectionGoldenCase{"torus8x8_clrp_k2_p1", clrp_every_cycle(), 60,
                            0xb46e7b756ac07c9e, 0xd6d0fc966b62be16, 7680}),
    [](const ::testing::TestParamInfo<InjectionGoldenCase>& param) {
      return param.param.name;
    });

// MB-m step goldens: CLRP runs whose probe decisions exercise every
// input of the decision step -- mesh edge ports, 6-port nodes with
// three-way offset ties, statically faulty channels, links failing and
// recovering mid-run, and k=1 saturation (Force waits, release requests
// and misroutes). Each pins the mid-run and final checkpoint digests and
// the control-plane counters; a run restored from the mid-run checkpoint
// must reach the same final digest. The constants were recorded with the
// per-port view and ordered-scan decide the status bitmasks replaced.
struct MbmGoldenCase {
  std::string name;
  snap::RunSpec spec;
  Cycle cut;                   ///< cycle of the mid-run checkpoint
  std::uint64_t mid_digest;    ///< checkpoint digest at `cut`
  std::uint64_t final_digest;  ///< checkpoint digest once done()
  std::uint64_t probes_launched;
  std::uint64_t probe_advances;
  std::uint64_t probe_backtracks;
  std::uint64_t probe_misroutes;
  std::uint64_t force_waits;
  std::uint64_t release_requests;
};

void PrintTo(const MbmGoldenCase& c, std::ostream* os) { *os << c.name; }

snap::RunSpec clrp_mbm(std::vector<std::int32_t> radix, bool torus,
                       std::int32_t switches, std::int32_t flits,
                       double load) {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::default_torus();
  spec.config.topology.radix = std::move(radix);
  spec.config.topology.torus = torus;
  spec.config.protocol.protocol = sim::ProtocolKind::kClrp;
  spec.config.router.wave_switches = switches;
  spec.pattern = "uniform";
  spec.message_flits = flits;
  spec.offered_load = load;
  spec.warmup = 300;
  spec.measure = 1500;
  spec.drain_cap = 100'000;
  spec.seed = 29;
  return spec;
}

snap::RunSpec clrp_static_faults() {
  snap::RunSpec spec = clrp_mbm({8, 8}, true, 2, 32, 0.10);
  spec.config.faults.link_fault_rate = 0.15;
  return spec;
}

snap::RunSpec clrp_fault_schedule() {
  snap::RunSpec spec = clrp_mbm({8, 8}, true, 2, 32, 0.10);
  using sim::FaultEventKind;
  spec.config.faults.events = {{400, FaultEventKind::kLinkDown, 9, 0},
                               {450, FaultEventKind::kLinkDown, 27, 2},
                               {900, FaultEventKind::kLinkUp, 9, 0},
                               {1300, FaultEventKind::kLinkUp, 27, 2}};
  spec.config.faults.storm.at = 600;
  spec.config.faults.storm.fraction = 0.2;
  spec.config.faults.storm.repair_after = 500;
  return spec;
}

class MbmGolden : public ::testing::TestWithParam<MbmGoldenCase> {};

TEST_P(MbmGolden, CheckpointDigestsAndCountsMatchRecorded) {
  const MbmGoldenCase& c = GetParam();
  snap::CheckpointableRun run(c.spec);
  ASSERT_EQ(run.advance(c.cut), c.cut);
  const snap::Snapshot at_cut = run.checkpoint();
  while (!run.done()) run.advance(1'000'000);
  const std::uint64_t end = run.checkpoint().digest();
  EXPECT_TRUE(run.result().drained);
  EXPECT_EQ(at_cut.digest(), c.mid_digest) << std::hex << "0x"
                                           << at_cut.digest();
  EXPECT_EQ(end, c.final_digest) << std::hex << "0x" << end;
  const auto& pcs = run.sim().network().control_plane()->stats();
  EXPECT_EQ(pcs.probes_launched, c.probes_launched);
  EXPECT_EQ(pcs.probe_advances, c.probe_advances);
  EXPECT_EQ(pcs.probe_backtracks, c.probe_backtracks);
  EXPECT_EQ(pcs.probe_misroutes, c.probe_misroutes);
  EXPECT_EQ(pcs.force_waits, c.force_waits);
  EXPECT_EQ(pcs.release_requests_sent, c.release_requests);

  // Restore leg: the register masks are not serialized, so this only
  // matches if loading rebuilds them from the per-channel registers.
  snap::CheckpointableRun restored(snap::Snapshot::decode(at_cut.encode()));
  while (!restored.done()) restored.advance(1'000'000);
  EXPECT_EQ(restored.checkpoint().digest(), end);
}

INSTANTIATE_TEST_SUITE_P(
    ProbeStep, MbmGolden,
    ::testing::Values(
        MbmGoldenCase{"mesh8x8_clrp_k2", clrp_mbm({8, 8}, false, 2, 32, 0.10),
                      900, 0x9cc95658e19f86aa, 0x25f8c020ff1a5587, 762, 6724,
                      4303, 1830, 4724, 377},
        MbmGoldenCase{"torus4x4x4_clrp_k2",
                      clrp_mbm({4, 4, 4}, true, 2, 32, 0.10), 900,
                      0x5128df8e50a97470, 0xec9fbe0f440ae0b3, 658, 5043, 3588,
                      2035, 1697, 215},
        MbmGoldenCase{"torus8x8_clrp_k2_static_faults", clrp_static_faults(),
                      900, 0x29c9d5281749870b, 0xa5bf69dd96bd4aa7, 770, 6561,
                      4559, 2095, 3642, 363},
        MbmGoldenCase{"torus8x8_clrp_k2_fault_schedule", clrp_fault_schedule(),
                      900, 0x685ed480a50c2052, 0x849f228ff266a727, 664, 5025,
                      3169, 1513, 2770, 274},
        MbmGoldenCase{"torus8x8_clrp_k1_saturating",
                      clrp_mbm({8, 8}, true, 1, 8, 0.40), 900,
                      0xdeaab0f428705888, 0xa8b63ccc5f9f5771, 10865, 28861,
                      25434, 11221, 56211, 5703}),
    [](const ::testing::TestParamInfo<MbmGoldenCase>& param) {
      return param.param.name;
    });

}  // namespace
}  // namespace wavesim
