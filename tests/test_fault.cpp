// Unit tests for the dynamic-fault stack: the wavesim.faults.v1 schedule
// format and its expansion into a concrete timeline, and the RIP-style
// distance-vector reachability layer (triggered updates, split horizon
// with poisoned reverse, route timeouts and the deliver-before-expire
// race rule). See docs/FAULTS.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault/distvec.hpp"
#include "fault/schedule.hpp"
#include "sim/json.hpp"
#include "sim/rng.hpp"
#include "topology/topology.hpp"

namespace wavesim::fault {
namespace {

using topo::KAryNCube;

// ---------------------------------------------------------------------------
// Distance-vector layer
// ---------------------------------------------------------------------------

sim::DistanceVectorConfig dv_config(Cycle advert_period = 64,
                                    std::int32_t timeout_periods = 3) {
  sim::DistanceVectorConfig cfg;
  cfg.advert_period = advert_period;
  cfg.timeout_periods = timeout_periods;
  return cfg;
}

void expect_converged(const DistanceVector& dv, const KAryNCube& topo,
                      const char* context) {
  for (NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (NodeId d = 0; d < topo.num_nodes(); ++d) {
      EXPECT_EQ(dv.metric(s, d), std::min(topo.distance(s, d), dv.infinity()))
          << context << ": route " << s << " -> " << d;
    }
  }
}

TEST(DistVec, InitialTablesMatchShortestPaths) {
  const KAryNCube topo({4, 4}, true);
  const DistanceVector dv(topo, dv_config(), /*hop_cycles=*/1);
  EXPECT_EQ(dv.infinity(), 16);  // max(16, diameter + 2)
  expect_converged(dv, topo, "initial");
}

TEST(DistVec, LinkDownPoisonsBothEndpointsViaTriggeredUpdates) {
  // Line 0-1-2: failing link 1-2 cuts {2} off. Triggered updates alone
  // (first periodic advert is at cycle 64) must poison every route across
  // the cut at every node, well before a count-to-infinity walk could --
  // that is what split horizon with poisoned reverse buys.
  const KAryNCube topo({3}, false);
  DistanceVector dv(topo, dv_config(), /*hop_cycles=*/1);
  Cycle now = 1;
  dv.link_down(1, /*port=*/0, now);
  EXPECT_FALSE(dv.link_alive(1, 0));
  EXPECT_FALSE(dv.link_alive(2, 1));  // both directions agree
  for (; now < 16; ++now) dv.step(now, /*active=*/true);

  EXPECT_EQ(dv.metric(0, 2), dv.infinity());
  EXPECT_EQ(dv.metric(1, 2), dv.infinity());
  EXPECT_EQ(dv.metric(2, 0), dv.infinity());
  EXPECT_EQ(dv.metric(2, 1), dv.infinity());
  EXPECT_FALSE(dv.reachable(0, 2));
  EXPECT_EQ(dv.metric(0, 1), 1);  // the surviving link is untouched
  EXPECT_GT(dv.counters().triggered_updates, 0u);
  EXPECT_GE(dv.counters().routes_withdrawn, 4u);
  EXPECT_TRUE(dv.idle());
}

TEST(DistVec, LinkDownIsIdempotent) {
  const KAryNCube topo({3}, false);
  DistanceVector dv(topo, dv_config(), 1);
  dv.link_down(1, 0, 1);
  const std::uint64_t withdrawn = dv.counters().routes_withdrawn;
  dv.link_down(1, 0, 2);                       // canonical direction again
  dv.link_down(2, 1, 3);                       // same link, other endpoint
  EXPECT_EQ(dv.counters().routes_withdrawn, withdrawn);
}

TEST(DistVec, LinkUpReinstallsDirectRoutesAndReconverges) {
  const KAryNCube topo({4, 4}, true);
  DistanceVector dv(topo, dv_config(), 1);
  Cycle now = 1;
  dv.link_down(0, 0, now);
  for (; now < 40; ++now) dv.step(now, true);
  EXPECT_GT(dv.counters().routes_withdrawn, 0u);

  dv.link_up(0, 0, now);
  EXPECT_TRUE(dv.link_alive(0, 0));
  EXPECT_EQ(dv.metric(0, topo.neighbor(0, 0)), 1);  // direct route back
  // One full periodic round plus propagation re-converges everything.
  for (; now < 200; ++now) dv.step(now, true);
  expect_converged(dv, topo, "after repair");
  EXPECT_TRUE(dv.idle());
}

TEST(DistVec, RouteTimeoutWithdrawsUnrefreshedRoutes) {
  // advert_period 8 x timeout_periods 1 arms learned (metric >= 2) routes
  // with deadline now+8, but hop_cycles 20 delays every refresh until
  // cycle 20 -- so the deadline at cycle 8 fires first. On a 4-ring each
  // node has exactly one 2-hop destination: 4 timeouts. Direct routes
  // never expire. Once the slow adverts do land, the table re-converges.
  const KAryNCube topo({4}, true);
  DistanceVector dv(topo, dv_config(8, 1), /*hop_cycles=*/20);
  dv.refresh_deadlines(0);
  for (Cycle now = 0; now <= 8; ++now) dv.step(now, /*active=*/true);
  EXPECT_EQ(dv.counters().route_timeouts, 4u);
  EXPECT_EQ(dv.metric(0, 2), dv.infinity());
  EXPECT_EQ(dv.metric(0, 1), 1);  // direct routes survive

  for (Cycle now = 9; now < 80; ++now) dv.step(now, true);
  expect_converged(dv, topo, "after timeout recovery");
}

TEST(DistVec, RefreshDeliveredAtDeadlineCycleBeatsTimeout) {
  // Same geometry, but hop_cycles 8 lands the periodic refresh exactly on
  // the deadline cycle. Deliveries run before expiry (the documented race
  // rule), so the refresh saves the route and nothing times out.
  const KAryNCube topo({4}, true);
  DistanceVector dv(topo, dv_config(8, 1), /*hop_cycles=*/8);
  dv.refresh_deadlines(0);
  for (Cycle now = 0; now <= 16; ++now) dv.step(now, /*active=*/true);
  EXPECT_EQ(dv.counters().route_timeouts, 0u);
  expect_converged(dv, topo, "refresh race");
}

TEST(DistVec, AdvertsCrossingADyingLinkAreDropped) {
  const KAryNCube topo({3}, false);
  DistanceVector dv(topo, dv_config(8, 3), /*hop_cycles=*/4);
  // Periodic adverts go out at cycle 0 and are in flight for 4 cycles;
  // the link dies under them.
  dv.step(0, true);
  dv.link_down(0, 0, 1);
  for (Cycle now = 1; now < 12; ++now) dv.step(now, true);
  EXPECT_GT(dv.counters().adverts_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Schedule format and expansion
// ---------------------------------------------------------------------------

TEST(Schedule, CanonicalLinksCoverEveryBidirectionalLinkOnce) {
  // 2-D 4x4 torus: 2 links per node. 1-D 4-mesh: 3 links total.
  EXPECT_EQ(canonical_links(KAryNCube({4, 4}, true)).size(), 32u);
  EXPECT_EQ(canonical_links(KAryNCube({4}, false)).size(), 3u);
  for (const sim::FaultEvent& link : canonical_links(KAryNCube({4, 4}, true))) {
    EXPECT_TRUE(KAryNCube::is_positive(link.port));
  }
}

TEST(Schedule, ExplicitEventsAreCanonicalized) {
  // The same link named from its negative endpoint (node 1, port 1) must
  // expand to the canonical positive direction (node 0, port 0).
  sim::FaultConfig faults;
  faults.events.push_back({5, sim::FaultEventKind::kLinkDown, 1, 1});
  const auto timeline =
      expand_schedule(faults, KAryNCube({4}, false), sim::Rng{1});
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0].node, 0);
  EXPECT_EQ(timeline[0].port, 0);
  EXPECT_EQ(timeline[0].at, 5u);
  EXPECT_EQ(timeline[0].kind, sim::FaultEventKind::kLinkDown);
}

TEST(Schedule, NodeEventsExpandToEveryIncidentLink) {
  sim::FaultConfig faults;
  faults.events.push_back({7, sim::FaultEventKind::kNodeDown, 1, 0});
  const auto timeline =
      expand_schedule(faults, KAryNCube({4}, false), sim::Rng{1});
  ASSERT_EQ(timeline.size(), 2u);  // links 0-1 and 1-2
  EXPECT_EQ(timeline[0].node, 0);
  EXPECT_EQ(timeline[1].node, 1);
}

TEST(Schedule, StormFailsRequestedFractionAndSchedulesRepairs) {
  sim::FaultConfig faults;
  faults.storm.at = 100;
  faults.storm.fraction = 0.25;
  faults.storm.repair_after = 50;
  const KAryNCube topo({4, 4}, true);
  const auto timeline = expand_schedule(faults, topo, sim::Rng{42});
  // 25% of 32 links = 8 downs at cycle 100, 8 ups at cycle 150.
  ASSERT_EQ(timeline.size(), 16u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(timeline[i].at, 100u);
    EXPECT_EQ(timeline[i].kind, sim::FaultEventKind::kLinkDown);
  }
  for (std::size_t i = 8; i < 16; ++i) {
    EXPECT_EQ(timeline[i].at, 150u);
    EXPECT_EQ(timeline[i].kind, sim::FaultEventKind::kLinkUp);
  }
  EXPECT_TRUE(std::is_sorted(
      timeline.begin(), timeline.end(),
      [](const sim::FaultEvent& a, const sim::FaultEvent& b) {
        return a.at < b.at;
      }));
  // Same seed, same timeline: expansion is deterministic.
  const auto again = expand_schedule(faults, topo, sim::Rng{42});
  EXPECT_TRUE(timeline == again);
}

TEST(Schedule, PermanentStormHasNoRepairEvents) {
  sim::FaultConfig faults;
  faults.storm.at = 10;
  faults.storm.fraction = 0.5;
  faults.storm.repair_after = 0;
  const auto timeline =
      expand_schedule(faults, KAryNCube({4, 4}, true), sim::Rng{7});
  ASSERT_EQ(timeline.size(), 16u);
  for (const auto& e : timeline) {
    EXPECT_EQ(e.kind, sim::FaultEventKind::kLinkDown);
  }
}

TEST(Schedule, TinyStormFractionStillFailsOneLink) {
  sim::FaultConfig faults;
  faults.storm.at = 1;
  faults.storm.fraction = 0.001;
  const auto timeline =
      expand_schedule(faults, KAryNCube({4, 4}, true), sim::Rng{3});
  EXPECT_EQ(timeline.size(), 1u);
}

TEST(Schedule, JsonRoundTripsThroughFaultsV1) {
  sim::FaultConfig faults;
  faults.events.push_back({5, sim::FaultEventKind::kLinkDown, 1, 1});
  faults.events.push_back({9, sim::FaultEventKind::kNodeUp, 2, 0});
  faults.storm = {300, 0.25, 1000};
  faults.churn = {0.001, 100, 400, 250};
  faults.dv.advert_period = 128;
  faults.dv.timeout_periods = 2;
  faults.dv.hop_cycles = 3;
  const sim::FaultConfig back = faults_from_json(faults_to_json(faults));
  EXPECT_TRUE(back.events == faults.events);
  EXPECT_TRUE(back.storm == faults.storm);
  EXPECT_TRUE(back.churn == faults.churn);
  EXPECT_TRUE(back.dv == faults.dv);
}

TEST(Schedule, RejectsMalformedDocuments) {
  const auto parse = [](const char* text) {
    return faults_from_json(sim::JsonValue::parse(text));
  };
  // Wrong/missing schema.
  EXPECT_THROW(parse(R"({"storm":{"fraction":0.1}})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"schema":"wavesim.run.v1","storm":{"fraction":0.1}})"),
               std::runtime_error);
  // Unknown keys must not be silently ignored.
  EXPECT_THROW(
      parse(R"({"schema":"wavesim.faults.v1","strom":{"fraction":0.1}})"),
      std::runtime_error);
  EXPECT_THROW(parse(R"({"schema":"wavesim.faults.v1",)"
                     R"("storm":{"fraction":0.1,"repair":5}})"),
               std::runtime_error);
  // A schedule with no fault source is a mistake, not a no-op.
  EXPECT_THROW(parse(R"({"schema":"wavesim.faults.v1"})"), std::runtime_error);
  // Bad event shapes.
  EXPECT_THROW(parse(R"({"schema":"wavesim.faults.v1",)"
                     R"("events":[{"at":1,"kind":"melt","node":0,"port":0}]})"),
               std::runtime_error);
  EXPECT_THROW(parse(R"({"schema":"wavesim.faults.v1",)"
                     R"("events":[{"kind":"link-down","node":0,"port":0}]})"),
               std::runtime_error);
  EXPECT_THROW(
      parse(R"({"schema":"wavesim.faults.v1",)"
            R"("events":[{"at":1,"kind":"node-down","node":0,"port":0}]})"),
      std::runtime_error);
  // Integers are read whole and within their field's type: a fractional
  // cycle is not truncated, and a node id past int32 does not wrap to a
  // valid node before the range check sees it.
  for (const char* event :
       {R"({"at":100.7,"kind":"node-down","node":4})",
        R"({"at":-1,"kind":"node-down","node":4})",
        R"({"at":100,"kind":"node-down","node":4294967296})",
        R"({"at":100,"kind":"link-down","node":4,"port":1e300})"}) {
    const std::string doc = std::string(R"({"schema":"wavesim.faults.v1",)") +
                            R"("events":[)" + event + "]}";
    EXPECT_THROW(parse(doc.c_str()), std::runtime_error)
        << event;
  }
  EXPECT_THROW(parse(R"({"schema":"wavesim.faults.v1",)"
                     R"("storm":{"fraction":0.1},"dv":{"hop_cycles":3e9}})"),
               std::runtime_error);
}

}  // namespace
}  // namespace wavesim::fault
