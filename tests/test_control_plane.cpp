// Control-plane tests: probe setup, backtracking, Force semantics,
// ack/teardown/release-request walks, and the race rules from the proof of
// Theorem 1.
#include "core/control_plane.hpp"

#include <gtest/gtest.h>

#include "wormhole/link_gate.hpp"

namespace wavesim::core {
namespace {

using topo::KAryNCube;

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest()
      : topo_({4, 4}, true), gate_(topo_),
        plane_(topo_, circuits_, gate_, ControlPlaneParams{2, 2}) {}

  /// Run `cycles` control-plane cycles (gate reset each cycle).
  void run(int cycles) {
    for (int i = 0; i < cycles; ++i) {
      gate_.reset();
      plane_.step(now_++);
      for (const auto& r : plane_.take_probe_results()) results_.push_back(r);
      for (const auto& d : plane_.take_release_demands()) demands_.push_back(d);
      for (const auto& t : plane_.take_teardowns_done()) torn_.push_back(t);
    }
  }

  /// Establish a circuit src -> dest on switch `sw`; returns its id.
  CircuitId establish(NodeId src, NodeId dest, std::int32_t sw = 0) {
    const CircuitId c = circuits_.create(src, dest, sw);
    plane_.launch_probe(c, /*force=*/false);
    run(64);
    EXPECT_EQ(circuits_.at(c).state, CircuitState::kEstablished)
        << "setup of " << src << "->" << dest << " did not finish";
    return c;
  }

  bool got_success(CircuitId c) const {
    for (const auto& r : results_) {
      if (r.circuit == c && r.success) return true;
    }
    return false;
  }
  bool got_failure(CircuitId c) const {
    for (const auto& r : results_) {
      if (r.circuit == c && !r.success) return true;
    }
    return false;
  }

  KAryNCube topo_;
  wh::LinkGate gate_;
  CircuitTable circuits_;
  ControlPlane plane_;
  Cycle now_ = 0;
  std::vector<ProbeResult> results_;
  std::vector<ReleaseDemand> demands_;
  std::vector<TeardownDone> torn_;
};

TEST_F(ControlPlaneTest, EstablishesMinimalCircuitOnEmptyNetwork) {
  const NodeId src = topo_.node_of({0, 0});
  const NodeId dest = topo_.node_of({2, 1});
  const CircuitId c = establish(src, dest);
  EXPECT_TRUE(got_success(c));
  const auto& rec = circuits_.at(c);
  EXPECT_EQ(rec.hops(), topo_.distance(src, dest));
  // Every hop's registers are busy with ack returned.
  NodeId at = src;
  for (PortId p : rec.path) {
    EXPECT_EQ(plane_.registers(at, 0).status(p),
              pcs::ChannelStatus::kBusyCircuit);
    EXPECT_TRUE(plane_.registers(at, 0).ack_returned(p));
    at = topo_.neighbor(at, p);
  }
  EXPECT_EQ(at, dest);
  EXPECT_TRUE(plane_.idle());
}

TEST_F(ControlPlaneTest, SetupTakesRoundTripTime) {
  const NodeId src = topo_.node_of({0, 0});
  const NodeId dest = topo_.node_of({2, 0});
  const CircuitId c = circuits_.create(src, dest, 0);
  plane_.launch_probe(c, false);
  // Probe: 2 hops forward; ack: 2 hops back; plus decision cycles.
  run(3);
  EXPECT_EQ(circuits_.at(c).state, CircuitState::kProbing);
  run(8);
  EXPECT_EQ(circuits_.at(c).state, CircuitState::kEstablished);
}

TEST_F(ControlPlaneTest, DisjointCircuitsCoexist) {
  const CircuitId a = establish(topo_.node_of({0, 0}), topo_.node_of({1, 0}));
  const CircuitId b = establish(topo_.node_of({2, 2}), topo_.node_of({3, 2}));
  EXPECT_TRUE(got_success(a));
  EXPECT_TRUE(got_success(b));
  EXPECT_EQ(circuits_.active(), 2u);
}

TEST_F(ControlPlaneTest, SecondSwitchHostsOverlappingCircuit) {
  const NodeId src = topo_.node_of({0, 0});
  const NodeId dest = topo_.node_of({2, 0});
  establish(src, dest, /*sw=*/0);
  // Same physical route on switch 1 must also succeed (separate channels).
  const CircuitId c2 = establish(src, dest, /*sw=*/1);
  EXPECT_TRUE(got_success(c2));
}

TEST_F(ControlPlaneTest, ProbeMisroutesAroundBusyChannel) {
  const NodeId src = topo_.node_of({0, 0});
  const NodeId dest = topo_.node_of({2, 0});
  // Fill the whole straight-line row: circuit (0,0)->(2,0) over switch 0.
  establish(src, dest, 0);
  // A second circuit for the same pair on the same switch must route
  // around the occupied +x channels.
  const CircuitId c2 = circuits_.create(src, dest, 0);
  plane_.launch_probe(c2, false);
  run(64);
  EXPECT_TRUE(got_success(c2));
  // It cannot have taken the occupied straight-line first hop.
  EXPECT_NE(circuits_.at(c2).path.front(), KAryNCube::port_of(0, true));
  EXPECT_GE(circuits_.at(c2).hops(), topo_.distance(src, dest));
}

TEST_F(ControlPlaneTest, ProbeFailsWhenNoPathWithinBudget) {
  // Saturate every outgoing channel of the source on switch 0 with
  // established circuits so a new probe cannot even leave.
  const NodeId src = topo_.node_of({1, 1});
  for (PortId p = 0; p < topo_.num_ports(); ++p) {
    const NodeId n = topo_.neighbor(src, p);
    establish(src, n, 0);
  }
  const CircuitId c = circuits_.create(src, topo_.node_of({3, 3}), 0);
  plane_.launch_probe(c, /*force=*/false);
  run(16);
  EXPECT_TRUE(got_failure(c));
  EXPECT_TRUE(plane_.idle());
}

TEST_F(ControlPlaneTest, TeardownFreesEveryChannel) {
  const NodeId src = topo_.node_of({0, 0});
  const NodeId dest = topo_.node_of({2, 1});
  const CircuitId c = establish(src, dest);
  const auto path = circuits_.at(c).path;
  plane_.start_teardown(c);
  run(16);
  EXPECT_FALSE(circuits_.contains(c));
  ASSERT_EQ(torn_.size(), 1u);
  EXPECT_EQ(torn_[0].circuit, c);
  NodeId at = src;
  for (PortId p : path) {
    EXPECT_EQ(plane_.registers(at, 0).status(p), pcs::ChannelStatus::kFree);
    at = topo_.neighbor(at, p);
  }
}

TEST_F(ControlPlaneTest, TeardownRequiresIdleEstablishedCircuit) {
  const CircuitId c = establish(topo_.node_of({0, 0}), topo_.node_of({1, 0}));
  circuits_.at(c).in_use = true;
  EXPECT_THROW(plane_.start_teardown(c), std::logic_error);
  circuits_.at(c).in_use = false;
  plane_.start_teardown(c);
  EXPECT_THROW(plane_.start_teardown(c), std::logic_error);  // not established
}

TEST_F(ControlPlaneTest, ForceProbeDemandsReleaseFromCrossingCircuitSource) {
  // Circuit A: (0,0) -> (2,0) occupies (0,0)+x and (1,0)+x on switch 0.
  const NodeId a_src = topo_.node_of({0, 0});
  const CircuitId a = establish(a_src, topo_.node_of({2, 0}), 0);
  // A force probe from (1,0) toward (2,0) has exactly one minimal port,
  // the +x channel held by A (which crosses (1,0) but starts elsewhere):
  // it must wait and send a release request to A's source.
  const NodeId b_src = topo_.node_of({1, 0});
  const CircuitId f = circuits_.create(b_src, topo_.node_of({2, 0}), 0);
  plane_.launch_probe(f, /*force=*/true);
  run(8);
  ASSERT_FALSE(demands_.empty());
  EXPECT_EQ(demands_[0].circuit, a);
  EXPECT_EQ(demands_[0].src, a_src);
  // Honor the demand: tear A down; the probe must then complete.
  plane_.start_teardown(a);
  run(64);
  EXPECT_TRUE(got_success(f));
}

TEST_F(ControlPlaneTest, ParkedForceProbeRedecidesOnlyWhenItsBankChanges) {
  // Same staging as above: the Force probe parks at (1,0) on the +x
  // channel held by A (switch 0).
  const CircuitId a = establish(topo_.node_of({0, 0}), topo_.node_of({2, 0}), 0);
  const NodeId at = topo_.node_of({1, 0});
  const CircuitId f = circuits_.create(at, topo_.node_of({2, 0}), 0);
  plane_.launch_probe(f, /*force=*/true);
  run(4);
  ASSERT_EQ(plane_.waiting_probes().size(), 1u);
  ASSERT_EQ(plane_.waiting_probes()[0].node, at);

  // Unchanged bank: the probe keeps waiting, and keeps counting its wait
  // cycles, without evaluating a new MB-m decision.
  const std::uint64_t decided = plane_.decisions();
  const std::uint64_t waits = plane_.stats().force_waits;
  run(10);
  EXPECT_EQ(plane_.decisions(), decided);
  EXPECT_EQ(plane_.stats().force_waits, waits + 10);

  // A change to another node's bank, or to the same node's other switch,
  // is not this probe's bank: still no re-decide.
  plane_.mark_faulty(topo_.node_of({3, 3}), 0, KAryNCube::port_of(1, true));
  plane_.mark_faulty(at, 1, KAryNCube::port_of(1, true));
  run(3);
  EXPECT_EQ(plane_.decisions(), decided);

  // Any change to its own bank -- here on a port it is not waiting on --
  // costs exactly one re-decide (same wait), then the skip resumes.
  plane_.mark_faulty(at, 0, KAryNCube::port_of(1, true));
  run(5);
  EXPECT_EQ(plane_.decisions(), decided + 1);
  ASSERT_EQ(plane_.waiting_probes().size(), 1u);
  EXPECT_EQ(plane_.stats().force_waits, waits + 18);

  // Tearing A down frees the wait target: the probe re-decides, advances
  // and completes.
  plane_.start_teardown(a);
  run(64);
  EXPECT_TRUE(got_success(f));
  EXPECT_TRUE(plane_.waiting_probes().empty());
}

TEST_F(ControlPlaneTest, ForceProbeBacktracksOffPendingCircuits) {
  // Occupy all out-channels of src with *reservations* (probes that can
  // never finish because their destinations' channels are all reserved by
  // each other is hard to stage; instead park probes by exhausting the
  // gate). Simpler staging: reserve channels directly through probes that
  // are still searching far away is not possible deterministically, so we
  // verify via the decision function's unit tests plus this integration
  // property: a force probe whose every exit is probe-reserved fails
  // rather than waits forever.
  const NodeId src = topo_.node_of({1, 1});
  // Launch four probes from src that will sit in kProbing state for at
  // least a few cycles while they search; then immediately launch the
  // force probe. All of src's channels are reserved by the four probes'
  // first hops.
  for (PortId p = 0; p < topo_.num_ports(); ++p) {
    const NodeId far = topo_.node_of({3, 3});
    const CircuitId c = circuits_.create(src, far, 0);
    plane_.launch_probe(c, false);
    (void)p;
  }
  gate_.reset();
  plane_.step(now_++);  // all four probes take their first hop
  const CircuitId f = circuits_.create(src, topo_.node_of({3, 1}), 0);
  plane_.launch_probe(f, /*force=*/true);
  gate_.reset();
  plane_.step(now_++);
  // The force probe should have failed immediately (backtrack at source
  // with empty stack) or very soon; it must never emit a release demand.
  run(4);
  EXPECT_TRUE(got_failure(f));
  EXPECT_TRUE(demands_.empty());
}

TEST_F(ControlPlaneTest, TwoForceProbesBothRequestReleaseOfSameCircuit) {
  // Two force probes waiting on channels of the same established circuit
  // each send a release request; the source therefore sees duplicate
  // demands and (in the full stack) the NI honors the first and discards
  // the second. At plane level we assert both demands arrive and honoring
  // once lets at least the first waiter proceed.
  const NodeId a_src = topo_.node_of({0, 0});
  const CircuitId a = establish(a_src, topo_.node_of({2, 0}), 0);  // +x,+x
  // f1 waits on (0,0)+x at A's own source (direct demand); f2 waits on
  // (1,0)+x mid-circuit (travelling release request).
  const CircuitId f1 = circuits_.create(topo_.node_of({0, 0}),
                                        topo_.node_of({1, 0}), 0);
  const CircuitId f2 = circuits_.create(topo_.node_of({1, 0}),
                                        topo_.node_of({2, 0}), 0);
  plane_.launch_probe(f1, true);
  plane_.launch_probe(f2, true);
  run(16);
  int demands_for_a = 0;
  for (const auto& d : demands_) {
    if (d.circuit == a) {
      ++demands_for_a;
      EXPECT_EQ(d.src, a_src);
    }
  }
  EXPECT_EQ(demands_for_a, 2);
  // Honor the demand once (the duplicate is simply not acted upon).
  plane_.start_teardown(a);
  run(128);
  EXPECT_TRUE(got_success(f1));
  EXPECT_TRUE(got_success(f2));
  EXPECT_TRUE(plane_.idle());
}

TEST_F(ControlPlaneTest, ReleaseRequestRaceWithTeardownIsDiscarded) {
  const NodeId a_src = topo_.node_of({0, 0});
  // A: (0,0)->(2,1); MB-m prefers the longer offset first, so the path is
  // +x, +x, +y with channels (0,0)+x, (1,0)+x, (2,0)+y.
  const CircuitId a = establish(a_src, topo_.node_of({2, 1}), 0);
  ASSERT_EQ(circuits_.at(a).path.front(), KAryNCube::port_of(0, true));
  // Force probe from (2,0) toward (2,1) waits on A's channel at (2,0) and
  // spawns a release request that must walk two hops back to (0,0).
  const NodeId mid = topo_.node_of({2, 0});
  const CircuitId f = circuits_.create(mid, topo_.node_of({2, 1}), 0);
  plane_.launch_probe(f, true);
  gate_.reset();
  plane_.step(now_++);  // probe waits and spawns the release request
  // Tear A down immediately: the teardown releases (0,0)+x before the
  // travelling request can cross it, so the request finds the mapping gone
  // and is discarded mid-path.
  plane_.start_teardown(a);
  const auto discarded_before = plane_.stats().release_requests_discarded;
  run(64);
  EXPECT_GT(plane_.stats().release_requests_discarded, discarded_before);
  // No demand ever reaches the source, yet the probe completes because the
  // teardown freed the channel it was waiting for.
  EXPECT_TRUE(demands_.empty());
  EXPECT_TRUE(got_success(f));
  EXPECT_TRUE(plane_.idle());
}

TEST_F(ControlPlaneTest, FaultyChannelsAreRoutedAround) {
  const NodeId src = topo_.node_of({0, 0});
  const NodeId dest = topo_.node_of({2, 0});
  plane_.mark_faulty(src, 0, KAryNCube::port_of(0, true));
  const CircuitId c = circuits_.create(src, dest, 0);
  plane_.launch_probe(c, false);
  run(64);
  EXPECT_TRUE(got_success(c));
  // First hop cannot be the faulty +x channel.
  EXPECT_NE(circuits_.at(c).path.front(), KAryNCube::port_of(0, true));
}

TEST_F(ControlPlaneTest, ProbeStepsAreBoundedByHistory) {
  // Livelock freedom: even under heavy contention a probe's decision steps
  // stay within the finite search bound (every advance consumes one
  // unsearched (node, port) entry).
  for (int i = 0; i < 8; ++i) {
    const NodeId s = static_cast<NodeId>((i * 5) % 16);
    const NodeId d = static_cast<NodeId>((i * 7 + 3) % 16);
    if (s == d) continue;
    const CircuitId c = circuits_.create(s, d, 0);
    plane_.launch_probe(c, false);
  }
  run(512);
  EXPECT_TRUE(plane_.idle());
  // Bound: steps <= advances + backtracks + waits; generous static cap.
  EXPECT_LT(plane_.stats().max_probe_steps,
            static_cast<std::uint64_t>(topo_.num_nodes()) *
                topo_.num_ports() * 4);
}

TEST_F(ControlPlaneTest, DebugDumpDescribesLiveState) {
  const CircuitId a = establish(topo_.node_of({0, 0}), topo_.node_of({2, 0}));
  // Park a force probe waiting on A's first channel.
  const CircuitId f = circuits_.create(topo_.node_of({0, 0}),
                                       topo_.node_of({1, 0}), 0);
  plane_.launch_probe(f, true);
  run(4);
  const std::string dump = plane_.debug_dump();
  EXPECT_NE(dump.find("probe"), std::string::npos);
  EXPECT_NE(dump.find("FORCE"), std::string::npos);
  EXPECT_NE(dump.find("WAITING"), std::string::npos);
  EXPECT_NE(dump.find(std::to_string(a)), std::string::npos);
}

TEST_F(ControlPlaneTest, LaunchProbeValidatesState) {
  const CircuitId c = establish(topo_.node_of({0, 0}), topo_.node_of({1, 0}));
  EXPECT_THROW(plane_.launch_probe(c, false), std::logic_error);
}

}  // namespace
}  // namespace wavesim::core
