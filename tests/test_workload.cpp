// Workload substrate tests: pattern properties, size distributions, the
// open-loop generator's offered load, and trace replay.
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "workload/generator.hpp"
#include "workload/size_dist.hpp"
#include "workload/trace.hpp"
#include "workload/traffic.hpp"

namespace wavesim::load {
namespace {

using topo::KAryNCube;

class TrafficTest : public ::testing::Test {
 protected:
  TrafficTest() : topo_({4, 4}, true), rng_(123) {}
  KAryNCube topo_;
  sim::Rng rng_;
};

TEST_F(TrafficTest, NoPatternEverPicksSelf) {
  for (const char* name : {"uniform", "hotspot", "transpose", "bit-reversal",
                           "bit-complement", "tornado", "neighbor",
                           "working-set"}) {
    auto pattern = make_traffic(name, topo_, rng_.fork());
    for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
      for (int i = 0; i < 50; ++i) {
        const NodeId d = pattern->pick(src, rng_);
        ASSERT_NE(d, src) << name;
        ASSERT_GE(d, 0) << name;
        ASSERT_LT(d, topo_.num_nodes()) << name;
      }
    }
  }
}

TEST_F(TrafficTest, UniformCoversAllDestinations) {
  UniformTraffic uniform(topo_);
  std::map<NodeId, int> seen;
  for (int i = 0; i < 3000; ++i) ++seen[uniform.pick(0, rng_)];
  EXPECT_EQ(seen.size(), 15u);  // every node except the source
}

TEST_F(TrafficTest, HotspotConcentratesTraffic) {
  HotspotTraffic hotspot(topo_, 5, 0.5);
  int to_hot = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) to_hot += hotspot.pick(0, rng_) == 5;
  EXPECT_NEAR(static_cast<double>(to_hot) / trials, 0.5 + 0.5 / 15, 0.05);
}

TEST_F(TrafficTest, TransposeSwapsCoordinates) {
  TransposeTraffic transpose(topo_);
  EXPECT_EQ(transpose.pick(topo_.node_of({1, 3}), rng_), topo_.node_of({3, 1}));
  EXPECT_EQ(transpose.pick(topo_.node_of({0, 2}), rng_), topo_.node_of({2, 0}));
  // Diagonal sources fall back to some other node.
  EXPECT_NE(transpose.pick(topo_.node_of({2, 2}), rng_), topo_.node_of({2, 2}));
}

TEST_F(TrafficTest, BitReversalIsDeterministicInvolution) {
  BitReversalTraffic rev(topo_);
  // 16 nodes -> 4 bits; 0b0001 -> 0b1000.
  EXPECT_EQ(rev.pick(1, rng_), 8);
  EXPECT_EQ(rev.pick(8, rng_), 1);
  EXPECT_EQ(rev.pick(2, rng_), 4);
}

TEST_F(TrafficTest, BitComplementIsFixedPairing) {
  BitComplementTraffic comp(topo_);
  EXPECT_EQ(comp.pick(0, rng_), 15);
  EXPECT_EQ(comp.pick(5, rng_), 10);
}

TEST_F(TrafficTest, NeighborStaysOneHopAway) {
  NeighborTraffic neighbor(topo_);
  for (int i = 0; i < 200; ++i) {
    const NodeId src = static_cast<NodeId>(rng_.next_below(16));
    EXPECT_EQ(topo_.distance(src, neighbor.pick(src, rng_)), 1);
  }
}

TEST_F(TrafficTest, WorkingSetReusesDestinations) {
  WorkingSetTraffic ws(topo_, /*set_size=*/2, /*p_in_set=*/1.0, rng_.fork());
  std::map<NodeId, int> seen;
  for (int i = 0; i < 500; ++i) ++seen[ws.pick(3, rng_)];
  EXPECT_EQ(seen.size(), 2u);  // perfect locality never leaves the set
}

TEST_F(TrafficTest, WorkingSetZeroLocalityIsDiverse) {
  WorkingSetTraffic ws(topo_, 2, 0.0, rng_.fork());
  std::map<NodeId, int> seen;
  for (int i = 0; i < 2000; ++i) ++seen[ws.pick(3, rng_)];
  EXPECT_GT(seen.size(), 10u);
}

TEST_F(TrafficTest, FactoryRejectsUnknown) {
  EXPECT_THROW(make_traffic("nope", topo_, rng_.fork()),
               std::invalid_argument);
}

TEST(SizeDist, FixedAlwaysSame) {
  sim::Rng rng{1};
  FixedSize fixed(32);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fixed.sample(rng), 32);
  EXPECT_DOUBLE_EQ(fixed.mean(), 32.0);
  EXPECT_THROW(FixedSize(0), std::invalid_argument);
}

TEST(SizeDist, UniformWithinRange) {
  sim::Rng rng{2};
  UniformSize dist(8, 16);
  for (int i = 0; i < 1000; ++i) {
    const auto s = dist.sample(rng);
    EXPECT_GE(s, 8);
    EXPECT_LE(s, 16);
  }
  EXPECT_DOUBLE_EQ(dist.mean(), 12.0);
  EXPECT_THROW(UniformSize(5, 4), std::invalid_argument);
}

TEST(SizeDist, BimodalMixesShortAndLong) {
  sim::Rng rng{3};
  BimodalSize dist(8, 128, 0.25);
  int longs = 0;
  const int trials = 8000;
  for (int i = 0; i < trials; ++i) {
    const auto s = dist.sample(rng);
    EXPECT_TRUE(s == 8 || s == 128);
    longs += s == 128;
  }
  EXPECT_NEAR(static_cast<double>(longs) / trials, 0.25, 0.02);
  EXPECT_DOUBLE_EQ(dist.mean(), 0.25 * 128 + 0.75 * 8);
}

TEST(Generator, OfferedLoadMatchesRequest) {
  sim::SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
  cfg.router.wave_switches = 0;
  core::Simulation sim(cfg);
  UniformTraffic pattern(sim.topology());
  FixedSize sizes(8);
  OpenLoopGenerator gen(sim, pattern, sizes, /*load=*/0.16, sim::Rng{7});
  gen.run_batch(4000);
  // Expected messages = load/len * nodes * cycles = 0.02 * 16 * 4000 = 1280.
  EXPECT_NEAR(static_cast<double>(gen.offered_messages()), 1280.0, 130.0);
}

TEST(Generator, RejectsOverload) {
  sim::SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
  cfg.router.wave_switches = 0;
  core::Simulation sim(cfg);
  UniformTraffic pattern(sim.topology());
  FixedSize sizes(4);
  EXPECT_THROW(OpenLoopGenerator(sim, pattern, sizes, 8.0, sim::Rng{1}),
               std::invalid_argument);
}

// NaN fails both `load < 0` and `p > 1`; it must be refused, not run as
// a load that offers nothing.
TEST(Generator, RejectsNonFiniteLoad) {
  sim::SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
  cfg.router.wave_switches = 0;
  core::Simulation sim(cfg);
  UniformTraffic pattern(sim.topology());
  FixedSize sizes(4);
  for (const double load : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(OpenLoopGenerator(sim, pattern, sizes, load, sim::Rng{1}),
                 std::invalid_argument)
        << load;
  }
}

TEST(Generator, RunOpenLoopMeasuresOnlyWindow) {
  sim::SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  core::Simulation sim(cfg);
  UniformTraffic pattern(sim.topology());
  FixedSize sizes(16);
  const auto result = run_open_loop(sim, pattern, sizes, /*load=*/0.1,
                                    /*warmup=*/500, /*measure=*/1500,
                                    /*drain_cap=*/200000, /*seed=*/11);
  EXPECT_TRUE(result.drained);
  EXPECT_GT(result.offered_messages, 0u);
  EXPECT_EQ(result.stats.messages_offered, result.offered_messages);
  EXPECT_EQ(result.stats.messages_delivered, result.offered_messages);
  EXPECT_GT(result.stats.latency_mean, 0.0);
}

TEST(Saturation, RejectsBadBracket) {
  sim::SimConfig cfg = sim::SimConfig::wormhole_baseline();
  EXPECT_THROW(find_saturation(cfg, "uniform", 16, 0.5, 0.1),
               std::invalid_argument);
  EXPECT_THROW(find_saturation(cfg, "uniform", 16, 0.0, 0.5),
               std::invalid_argument);
}

TEST(Saturation, WaveSustainsMoreThanWormhole) {
  // Small network so the search stays quick; the wave configuration must
  // report a strictly higher saturation load than the wormhole baseline
  // under the same long-message uniform traffic.
  sim::SimConfig wormhole;
  wormhole.topology.radix = {4, 4};
  wormhole.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
  wormhole.router.wave_switches = 0;
  const auto wh = find_saturation(wormhole, "uniform", 64, 0.05, 0.9, 0.05,
                                  600, 2500);
  sim::SimConfig wave = wormhole;
  wave.protocol.protocol = sim::ProtocolKind::kClrp;
  wave.router.wave_switches = 2;
  const auto wv = find_saturation(wave, "uniform", 64, 0.05, 0.9, 0.05,
                                  600, 2500);
  EXPECT_GT(wh.points_probed, 0);
  EXPECT_GT(wv.load, wh.load);
  EXPECT_GT(wh.latency_at_load, 0.0);
}

TEST(Trace, EventsSortedAndHorizon) {
  Trace trace;
  trace.send(50, 0, 1, 8);
  trace.send(10, 1, 2, 8);
  trace.establish(0, 0, 1);
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.events().front().op, TraceOp::kEstablish);
  EXPECT_EQ(trace.horizon(), 50u);
  const Trace plain = trace.without_circuit_ops();
  EXPECT_EQ(plain.size(), 2u);
  for (const auto& e : plain.events()) EXPECT_EQ(e.op, TraceOp::kSend);
}

TEST(Trace, RejectsEmptySend) {
  Trace trace;
  EXPECT_THROW(trace.send(0, 0, 1, 0), std::invalid_argument);
}

TEST(Trace, StencilShapeAndReplay) {
  KAryNCube topo({4, 4}, true);
  const Trace trace = make_stencil_trace(topo, /*iterations=*/2,
                                         /*halo_flits=*/8,
                                         /*cycles_per_iteration=*/100,
                                         /*carp_circuits=*/true);
  // 16 nodes x 4 neighbors: 64 establishes + 2x64 sends + 64 releases.
  EXPECT_EQ(trace.size(), 64u + 128u + 64u);

  sim::SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.protocol.protocol = sim::ProtocolKind::kCarp;
  cfg.protocol.circuit_cache_entries = 4;
  core::Simulation sim(cfg);
  ASSERT_TRUE(replay(trace, sim));
  const auto stats = sim.stats();
  EXPECT_EQ(stats.messages_delivered, 128u);
  EXPECT_GT(stats.circuit_hit_count, 0u);
}

TEST(Trace, MasterWorkerReplayUnderClrp) {
  KAryNCube topo({4, 4}, true);
  const Trace trace =
      make_master_worker_trace(topo, /*master=*/5, /*rounds=*/2,
                               /*request_flits=*/4, /*chunk_flits=*/32,
                               /*cycles_per_round=*/400,
                               /*carp_circuits=*/true);
  sim::SimConfig cfg;
  cfg.topology.radix = {4, 4};
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  core::Simulation sim(cfg);
  // CLRP ignores nothing -- establish ops are valid there too, but the
  // canonical comparison strips them.
  ASSERT_TRUE(replay(trace.without_circuit_ops(), sim, 2'000'000));
  EXPECT_EQ(sim.stats().messages_delivered, 2u * 15u * 2u);
}

}  // namespace
}  // namespace wavesim::load
