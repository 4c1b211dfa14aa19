// Unit tests for small shared components: rings, the link gate, the
// message log, and aggregate stat fields.
#include <gtest/gtest.h>

#include <deque>

#include "core/simulation.hpp"
#include "sim/ring.hpp"
#include "snap/archive.hpp"
#include "wormhole/link_gate.hpp"

namespace wavesim {
namespace {

// The node interfaces' queues moved from std::deque to sim::Ring: the
// snapshot bytes must be the Archive::deq layout, across a wrapped ring.
TEST(Ring, SnapBytesMatchTheDequeLayoutAndAMovedFromRingIsEmpty) {
  sim::Ring<std::int64_t> ring;
  std::deque<std::int64_t> reference;
  for (std::int64_t i = 0; i < 13; ++i) {
    ring.push_back(i);
    reference.push_back(i);
    if (i % 3 == 0) {
      ring.pop_front();
      reference.pop_front();
    }
  }
  const auto element = [](snap::Archive& a, std::int64_t& v) { a.pod(v); };
  auto ring_bytes = snap::Archive::writer();
  ring.snap(ring_bytes, element);
  auto deque_bytes = snap::Archive::writer();
  deque_bytes.deq(reference, element);
  EXPECT_EQ(ring_bytes.bytes(), deque_bytes.bytes());

  sim::Ring<std::int64_t> back;
  auto reader = snap::Archive::reader(ring_bytes.bytes());
  back.snap(reader, element);
  EXPECT_TRUE(reader.exhausted());
  sim::Ring<std::int64_t> moved = std::move(back);
  EXPECT_TRUE(back.empty());  // NOLINT(bugprone-use-after-move)
  back.push_back(99);         // a moved-from ring is usable
  EXPECT_EQ(back.front(), 99);
  for (const std::int64_t want : reference) {
    ASSERT_FALSE(moved.empty());
    EXPECT_EQ(moved.front(), want);
    moved.pop_front();
  }
  EXPECT_TRUE(moved.empty());
  EXPECT_THROW(moved.front(), std::logic_error);
}

TEST(LinkGate, OneClaimPerLinkPerCycle) {
  topo::KAryNCube mesh({4, 4}, false);
  wh::LinkGate gate(mesh);
  EXPECT_TRUE(gate.try_acquire(0, 0));
  EXPECT_FALSE(gate.try_acquire(0, 0));   // same link, same cycle
  EXPECT_TRUE(gate.try_acquire(0, 2));    // different port
  EXPECT_TRUE(gate.try_acquire(1, 0));    // different node
  EXPECT_TRUE(gate.in_use(0, 0));
  EXPECT_FALSE(gate.in_use(1, 2));
  gate.reset();
  EXPECT_TRUE(gate.try_acquire(0, 0));    // fresh cycle
}

TEST(MessageLog, CreateAssignsDenseIds) {
  core::MessageLog log;
  EXPECT_EQ(log.create(0, 1, 8, 100), 0);
  EXPECT_EQ(log.create(2, 3, 16, 101), 1);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.at(1).src, 2);
  EXPECT_EQ(log.at(1).length, 16);
  EXPECT_EQ(log.at(1).created, 101u);
  EXPECT_FALSE(log.at(0).done);
}

TEST(MessageLog, DoubleDeliveryThrows) {
  core::MessageLog log;
  const MessageId id = log.create(0, 1, 8, 0);
  log.mark_delivered(id, 50);
  EXPECT_TRUE(log.at(id).done);
  EXPECT_EQ(log.at(id).latency(), 50.0);
  EXPECT_THROW(log.mark_delivered(id, 60), std::logic_error);
}

TEST(SimulationStats, PerModeLatenciesAreConsistent) {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  cfg.protocol.min_circuit_message_flits = 64;
  core::Simulation sim(cfg);
  sim.send(0, 36, 8);     // wormhole by policy
  sim.send(0, 36, 128);   // circuit after setup
  ASSERT_TRUE(sim.run_until_delivered(100000));
  sim.send(0, 36, 128);   // circuit hit
  ASSERT_TRUE(sim.run_until_delivered(100000));
  const auto s = sim.stats();
  EXPECT_EQ(s.wormhole_count, 1u);
  EXPECT_EQ(s.circuit_setup_count, 1u);
  EXPECT_EQ(s.circuit_hit_count, 1u);
  EXPECT_GT(s.wormhole_latency, 0.0);
  EXPECT_GT(s.circuit_setup_latency, s.circuit_hit_latency);
  // The overall mean lies between the per-mode extremes.
  EXPECT_GE(s.latency_mean,
            std::min({s.wormhole_latency, s.circuit_hit_latency,
                      s.circuit_setup_latency}));
  EXPECT_LE(s.latency_mean,
            std::max({s.wormhole_latency, s.circuit_hit_latency,
                      s.circuit_setup_latency}));
  EXPECT_DOUBLE_EQ(s.cache_hit_rate(), 0.5);  // 1 hit, 1 miss
}

TEST(Network, QuiescentTracksPendingWork) {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  core::Simulation sim(cfg);
  EXPECT_TRUE(sim.network().quiescent());
  sim.send(0, 9, 32);
  EXPECT_FALSE(sim.network().quiescent());
  ASSERT_TRUE(sim.run_until_delivered(100000));
  EXPECT_TRUE(sim.network().quiescent());
}

TEST(Network, FaultyChannelCountMatchesConfig) {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  cfg.faults.link_fault_rate = 0.25;
  core::Simulation sim(cfg);
  // 64 nodes x 4 ports x k=2 switches = 512 channels; ~25% faulty.
  EXPECT_NEAR(static_cast<double>(sim.network().faulty_channels()), 128.0,
              40.0);
  sim::SimConfig clean = sim::SimConfig::default_torus();
  core::Simulation no_faults(clean);
  EXPECT_EQ(no_faults.network().faulty_channels(), 0);
}

}  // namespace
}  // namespace wavesim
