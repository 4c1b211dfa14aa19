// Unit tests for the wormhole router building blocks (arbiter, input VC,
// single-router pipeline behaviors).
#include "wormhole/router.hpp"

#include <gtest/gtest.h>

#include <random>

#include "routing/dor.hpp"
#include "wormhole/fabric.hpp"

namespace wavesim::wh {
namespace {

using topo::KAryNCube;

TEST(RoundRobinArbiter, RejectsBadSize) {
  EXPECT_THROW(RoundRobinArbiter(0), std::invalid_argument);
}

TEST(RoundRobinArbiter, GrantsSingleRequester) {
  RoundRobinArbiter arb(4);
  const std::uint64_t req[] = {0b0100};
  EXPECT_EQ(arb.grant(req), 2);
  EXPECT_EQ(arb.grant(req), 2);
}

TEST(RoundRobinArbiter, RotatesAmongRequesters) {
  RoundRobinArbiter arb(3);
  const std::uint64_t req[] = {0b111};
  EXPECT_EQ(arb.grant(req), 0);
  EXPECT_EQ(arb.grant(req), 1);
  EXPECT_EQ(arb.grant(req), 2);
  EXPECT_EQ(arb.grant(req), 0);
}

TEST(RoundRobinArbiter, NoRequestersReturnsMinusOne) {
  RoundRobinArbiter arb(2);
  const std::uint64_t req[] = {0};
  EXPECT_EQ(arb.grant(req), -1);
  EXPECT_EQ(arb.pointer(), 0);
}

TEST(RoundRobinArbiter, WidthMismatchThrows) {
  RoundRobinArbiter arb(65);  // two words
  const std::uint64_t req[] = {1};
  EXPECT_THROW(arb.grant(req), std::invalid_argument);
}

TEST(RoundRobinArbiter, SkippedRequesterServedNext) {
  RoundRobinArbiter arb(3);
  const std::uint64_t both[] = {0b101};
  EXPECT_EQ(arb.grant(both), 0);
  EXPECT_EQ(arb.grant(both), 2);
  EXPECT_EQ(arb.grant(both), 0);
}

// Differential check of the mask grant against the rotated full scan it
// replaced: same slots offered in the same order, same winner, same new
// pointer, across word boundaries and with a predicate that turns some
// offers down (as credits and the link gate do in switch allocation).
TEST(RoundRobinArbiter, MaskGrantMatchesRotatedScan) {
  std::mt19937_64 rng(20261017);
  for (std::int32_t size = 1; size <= 130; ++size) {
    const std::int32_t words = mask_words(size);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint64_t> mask(words, 0);
      std::vector<bool> refuse(size);
      const std::uint64_t eighths = rng() % 9;  // empty .. full masks
      for (std::int32_t i = 0; i < size; ++i) {
        if (rng() % 8 < eighths) mask[i / 64] |= std::uint64_t{1} << (i % 64);
        refuse[i] = rng() % 3 == 0;
      }
      const std::int32_t start = static_cast<std::int32_t>(rng() % size);

      // Reference: rotated scan over every slot, skipping non-requesters.
      std::vector<std::int32_t> want_offers;
      std::int32_t want = -1;
      std::int32_t want_pointer = start;
      for (std::int32_t n = 0; n < size && want < 0; ++n) {
        const std::int32_t i = (start + n) % size;
        if ((mask[i / 64] >> (i % 64) & 1) == 0) continue;
        want_offers.push_back(i);
        if (!refuse[i]) {
          want = i;
          want_pointer = (i + 1) % size;
        }
      }

      std::vector<std::int32_t> offers;
      std::int32_t pointer = start;
      const std::int32_t got = grant_round_robin(
          mask.data(), size, pointer, [&](std::int32_t i) {
            offers.push_back(i);
            return !refuse[i];
          });
      ASSERT_EQ(got, want) << "size " << size << " trial " << trial;
      ASSERT_EQ(pointer, want_pointer) << "size " << size;
      ASSERT_EQ(offers, want_offers) << "size " << size;
    }
  }
}

TEST(InputVc, PushPopFifo) {
  Flit slots[4];
  InputVc vc(slots, 4);
  vc.push(make_flit(1, 0, 5, 0, 3, 0));
  vc.push(make_flit(1, 0, 5, 1, 3, 0));
  EXPECT_EQ(vc.occupancy(), 2);
  EXPECT_EQ(vc.front().seq, 0);
  EXPECT_EQ(vc.pop().seq, 0);
  EXPECT_EQ(vc.pop().seq, 1);
  EXPECT_TRUE(vc.empty());
}

TEST(InputVc, OverflowThrows) {
  Flit slots[1];
  InputVc vc(slots, 1);
  vc.push(make_flit(1, 0, 5, 0, 2, 0));
  EXPECT_TRUE(vc.full());
  EXPECT_THROW(vc.push(make_flit(1, 0, 5, 1, 2, 0)), std::logic_error);
}

TEST(InputVc, PopEmptyThrows) {
  Flit slots[2];
  InputVc vc(slots, 2);
  EXPECT_THROW(vc.pop(), std::logic_error);
  EXPECT_THROW(vc.front(), std::logic_error);
}

TEST(InputVc, StateMachineTransitions) {
  Flit slots[2];
  InputVc vc(slots, 2);
  EXPECT_EQ(vc.state(), VcState::kIdle);
  vc.start_routing({route::RouteCandidate{0, 0, true}});
  EXPECT_EQ(vc.state(), VcState::kRouting);
  EXPECT_EQ(vc.candidates().size(), 1u);
  vc.activate(0, 1);
  EXPECT_EQ(vc.state(), VcState::kActive);
  EXPECT_EQ(vc.out_port(), 0);
  EXPECT_EQ(vc.out_vc(), 1);
  vc.release();
  EXPECT_EQ(vc.state(), VcState::kIdle);
}

TEST(InputVc, IllegalTransitionsThrow) {
  Flit slots[2];
  InputVc vc(slots, 2);
  EXPECT_THROW(vc.activate(0, 0), std::logic_error);
  EXPECT_THROW(vc.release(), std::logic_error);
  vc.start_routing({});
  EXPECT_THROW(vc.start_routing({}), std::logic_error);
}

// One router of a fabric, stepped by hand: the router is a view of its
// slices of the fabric's arrays, so it is built through its owner.
class SingleRouter : public ::testing::Test {
 protected:
  SingleRouter()
      : topo_({4, 4}, false), dor_(topo_, 2),
        fabric_(topo_, dor_,
                FabricParams{
                    RouterParams{.num_vcs = 2, .vc_buffer_depth = 4}}),
        router_(fabric_.router(topo_.node_of({1, 1}))), gate_(topo_) {}

  void cycle() {
    gate_.reset();
    moves_ = router_.switch_allocate(gate_);
    router_.vc_allocate();
    router_.route_compute();
  }

  topo::KAryNCube topo_;
  route::DimensionOrderRouting dor_;
  Fabric fabric_;
  Router& router_;
  LinkGate gate_;
  std::vector<SwitchMove> moves_;
};

TEST_F(SingleRouter, HeadFlitTraversesAfterRcVaSa) {
  const NodeId dest = topo_.node_of({3, 1});
  router_.receive(router_.local_port(), 0, make_flit(7, 0, dest, 0, 1, 0));
  cycle();  // RC
  EXPECT_TRUE(moves_.empty());
  cycle();  // VA
  EXPECT_TRUE(moves_.empty());
  cycle();  // SA: flit crosses
  ASSERT_EQ(moves_.size(), 1u);
  EXPECT_EQ(moves_[0].out_port, KAryNCube::port_of(0, true));
  EXPECT_FALSE(moves_[0].eject);
  EXPECT_TRUE(moves_[0].flit.tail);
}

TEST_F(SingleRouter, LocalDestinationEjects) {
  router_.receive(0, 0, make_flit(9, 0, router_.node(), 0, 1, 0));
  cycle();
  cycle();
  cycle();
  ASSERT_EQ(moves_.size(), 1u);
  EXPECT_TRUE(moves_[0].eject);
}

TEST_F(SingleRouter, BodyFlitsFollowHeadWithoutReallocation) {
  const NodeId dest = topo_.node_of({3, 1});
  for (std::int32_t s = 0; s < 3; ++s) {
    router_.receive(router_.local_port(), 0, make_flit(7, 0, dest, s, 3, 0));
  }
  cycle();
  cycle();
  int sent = 0;
  for (int i = 0; i < 3; ++i) {
    cycle();
    sent += static_cast<int>(moves_.size());
  }
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(router_.input_vc(router_.local_port(), 0).state(), VcState::kIdle);
}

TEST_F(SingleRouter, CreditsBlockTransmission) {
  const NodeId dest = topo_.node_of({3, 1});
  const PortId out = KAryNCube::port_of(0, true);
  // 6-flit message into a 4-credit output: only 4 flits may leave until
  // credits come back.
  std::int32_t pushed = 0;
  auto feed = [&] {
    while (pushed < 6 && router_.can_accept(router_.local_port(), 0)) {
      router_.receive(router_.local_port(), 0,
                      make_flit(7, 0, dest, pushed, 6, 0));
      ++pushed;
    }
  };
  feed();
  cycle();  // RC
  cycle();  // VA
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    feed();
    cycle();
    sent += static_cast<int>(moves_.size());
  }
  EXPECT_EQ(sent, 4);
  EXPECT_EQ(pushed, 6);
  EXPECT_EQ(router_.credits(out, 0), 0);
  router_.credit_return(out, 0);
  router_.credit_return(out, 0);
  for (int i = 0; i < 4; ++i) {
    cycle();
    sent += static_cast<int>(moves_.size());
  }
  EXPECT_EQ(sent, 6);
  EXPECT_EQ(router_.input_vc(router_.local_port(), 0).state(), VcState::kIdle);
}

TEST_F(SingleRouter, TwoMessagesShareLinkViaDistinctVcs) {
  const NodeId dest = topo_.node_of({3, 1});
  router_.receive(router_.local_port(), 0, make_flit(1, 0, dest, 0, 2, 0));
  router_.receive(router_.local_port(), 0, make_flit(1, 0, dest, 1, 2, 0));
  router_.receive(router_.local_port(), 1, make_flit(2, 0, dest, 0, 2, 0));
  router_.receive(router_.local_port(), 1, make_flit(2, 0, dest, 1, 2, 0));
  cycle();
  cycle();
  // Both messages routed to the same output port; one flit per cycle total
  // (single physical link), VCs interleave.
  int total = 0;
  for (int i = 0; i < 6 && total < 4; ++i) {
    cycle();
    EXPECT_LE(moves_.size(), 1u);
    total += static_cast<int>(moves_.size());
  }
  EXPECT_EQ(total, 4);
}

TEST_F(SingleRouter, GateDeniesLinkStallsFlit) {
  const NodeId dest = topo_.node_of({3, 1});
  router_.receive(router_.local_port(), 0, make_flit(7, 0, dest, 0, 1, 0));
  cycle();
  cycle();
  // Claim the link before the router's SA runs.
  gate_.reset();
  ASSERT_TRUE(gate_.try_acquire(router_.node(), KAryNCube::port_of(0, true)));
  moves_ = router_.switch_allocate(gate_);
  EXPECT_TRUE(moves_.empty());
  // Next cycle the link is free again.
  cycle();
  EXPECT_EQ(moves_.size(), 1u);
}

TEST_F(SingleRouter, CreditOverflowThrows) {
  EXPECT_THROW(router_.credit_return(0, 0), std::logic_error);
}

TEST_F(SingleRouter, BufferedFlitCount) {
  EXPECT_EQ(router_.buffered_flits(), 0);
  router_.receive(0, 0, make_flit(1, 0, 5, 0, 2, 0));
  router_.receive(0, 1, make_flit(2, 0, 5, 0, 2, 0));
  EXPECT_EQ(router_.buffered_flits(), 2);
}

}  // namespace
}  // namespace wavesim::wh
