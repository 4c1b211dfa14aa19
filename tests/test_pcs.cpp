// Unit tests for the PCS substrate: status registers (Fig. 3), history
// store, and the MB-m decision function.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "pcs/history.hpp"
#include "sim/rng.hpp"
#include "pcs/mbm.hpp"
#include "pcs/registers.hpp"
#include "snap/archive.hpp"

namespace wavesim::pcs {
namespace {

using topo::KAryNCube;

// ---------------------------------------------------------------- registers
//
// A lone bank is built through its owner: a RegisterFile of one node and
// one switch, RegisterFile(1, ports, 1).

TEST(SwitchRegisters, FreshChannelsAreFree) {
  RegisterFile file(1, 4, 1);
  SwitchRegisters& regs = file.at(0, 0);
  for (PortId p = 0; p < 4; ++p) {
    EXPECT_EQ(regs.status(p), ChannelStatus::kFree);
    EXPECT_FALSE(regs.ack_returned(p));
    EXPECT_EQ(regs.reverse_map(p), kInvalidPort);
  }
  EXPECT_EQ(regs.count(ChannelStatus::kFree), 4);
}

TEST(SwitchRegisters, ReserveCommitAckReleaseLifecycle) {
  RegisterFile file(1, 4, 1);
  SwitchRegisters& regs = file.at(0, 0);
  regs.reserve(2, /*probe=*/7, /*in_port=*/0);
  EXPECT_EQ(regs.status(2), ChannelStatus::kReservedByProbe);
  EXPECT_EQ(regs.reserving_probe(2), 7);
  EXPECT_EQ(regs.reverse_map(2), 0);
  EXPECT_EQ(regs.direct_map(0), 2);

  regs.commit(2, /*circuit=*/42);
  EXPECT_EQ(regs.status(2), ChannelStatus::kBusyCircuit);
  EXPECT_EQ(regs.owning_circuit(2), 42);
  EXPECT_FALSE(regs.ack_returned(2));
  EXPECT_EQ(regs.direct_map(0), 2);  // mapping survives commit

  regs.mark_ack_returned(2);
  EXPECT_TRUE(regs.ack_returned(2));

  regs.release_circuit(2);
  EXPECT_EQ(regs.status(2), ChannelStatus::kFree);
  EXPECT_EQ(regs.direct_map(0), kInvalidPort);
}

TEST(SwitchRegisters, BacktrackReleasesReservation) {
  RegisterFile file(1, 4, 1);
  SwitchRegisters& regs = file.at(0, 0);
  regs.reserve(1, 9, kLocalEndpoint);
  regs.release_reservation(1);
  EXPECT_EQ(regs.status(1), ChannelStatus::kFree);
  EXPECT_EQ(regs.direct_map(kLocalEndpoint), kInvalidPort);
}

TEST(SwitchRegisters, LocalEndpointMapping) {
  RegisterFile file(1, 4, 1);
  SwitchRegisters& regs = file.at(0, 0);
  regs.reserve(3, 1, kLocalEndpoint);  // circuit starts at this node
  EXPECT_EQ(regs.direct_map(kLocalEndpoint), 3);
  EXPECT_EQ(regs.reverse_map(3), kLocalEndpoint);
}

TEST(SwitchRegisters, IllegalTransitionsThrow) {
  RegisterFile file(1, 2, 1);
  SwitchRegisters& regs = file.at(0, 0);
  EXPECT_THROW(regs.release_reservation(0), std::logic_error);
  EXPECT_THROW(regs.commit(0, 1), std::logic_error);
  EXPECT_THROW(regs.mark_ack_returned(0), std::logic_error);
  EXPECT_THROW(regs.release_circuit(0), std::logic_error);
  regs.reserve(0, 1, 0);
  EXPECT_THROW(regs.reserve(0, 2, 1), std::logic_error);
  EXPECT_THROW(regs.mark_ack_returned(0), std::logic_error);
  regs.commit(0, 5);
  EXPECT_THROW(regs.release_reservation(0), std::logic_error);
}

TEST(SwitchRegisters, FaultyChannelsStayFaulty) {
  RegisterFile file(1, 2, 1);
  SwitchRegisters& regs = file.at(0, 0);
  regs.mark_faulty(1);
  EXPECT_EQ(regs.status(1), ChannelStatus::kFaulty);
  EXPECT_THROW(regs.reserve(1, 1, 0), std::logic_error);
  EXPECT_THROW(regs.mark_faulty(1), std::logic_error);
}

TEST(SwitchRegisters, TwoCircuitsCrossingOneNodeKeepDistinctMappings) {
  // Two circuits enter a node through different input ports and leave
  // through different output ports; both mapping directions must stay
  // separable (the teardown and ack walkers rely on this).
  RegisterFile file(1, 4, 1);
  SwitchRegisters& regs = file.at(0, 0);
  regs.reserve(/*out=*/0, /*probe=*/1, /*in=*/3);
  regs.reserve(/*out=*/2, /*probe=*/2, /*in=*/1);
  regs.commit(0, /*circuit=*/10);
  regs.commit(2, /*circuit=*/20);
  EXPECT_EQ(regs.direct_map(3), 0);
  EXPECT_EQ(regs.direct_map(1), 2);
  EXPECT_EQ(regs.reverse_map(0), 3);
  EXPECT_EQ(regs.reverse_map(2), 1);
  EXPECT_EQ(regs.owning_circuit(0), 10);
  EXPECT_EQ(regs.owning_circuit(2), 20);
  regs.release_circuit(0);
  EXPECT_EQ(regs.direct_map(3), kInvalidPort);
  EXPECT_EQ(regs.direct_map(1), 2);  // the other circuit is untouched
}

TEST(RegisterFile, IndexesByNodeAndSwitch) {
  KAryNCube torus({4, 4}, true);
  RegisterFile file(torus.num_nodes(), torus.num_ports(), 2);
  EXPECT_EQ(file.num_switches(), 2);
  file.at(3, 1).reserve(0, 1, kLocalEndpoint);
  EXPECT_EQ(file.at(3, 1).status(0), ChannelStatus::kReservedByProbe);
  EXPECT_EQ(file.at(3, 0).status(0), ChannelStatus::kFree);
  EXPECT_EQ(file.at(4, 1).status(0), ChannelStatus::kFree);
  EXPECT_EQ(file.at(3, 1).num_ports(), 4);
  EXPECT_THROW(file.at(3, 2), std::out_of_range);
  EXPECT_THROW(file.at(16, 0), std::out_of_range);
  EXPECT_THROW(file.at(3, 1).status(4), std::out_of_range);
  EXPECT_THROW(RegisterFile(1, kMaxPorts + 1, 1), std::invalid_argument);
}

TEST(SwitchRegisters, VersionCountsEveryMutation) {
  RegisterFile file(1, 4, 1);
  SwitchRegisters& regs = file.at(0, 0);
  std::uint64_t v = regs.version();
  const auto bumped = [&] {
    const bool moved = regs.version() > v;
    v = regs.version();
    return moved;
  };
  regs.reserve(1, 3, kLocalEndpoint);
  EXPECT_TRUE(bumped());
  (void)regs.status(1);
  (void)regs.reverse_map(1);
  (void)regs.direct_map(kLocalEndpoint);
  EXPECT_FALSE(bumped());  // queries leave it alone
  regs.commit(1, 9);
  EXPECT_TRUE(bumped());
  regs.mark_ack_returned(1);
  EXPECT_TRUE(bumped());
  regs.release_circuit(1);
  EXPECT_TRUE(bumped());
  regs.reserve(2, 4, 0);
  EXPECT_TRUE(bumped());
  regs.release_reservation(2);
  EXPECT_TRUE(bumped());
  regs.mark_faulty(3);
  EXPECT_TRUE(bumped());
  regs.clear_faulty(3);
  EXPECT_TRUE(bumped());
}

// Every maintained port mask must equal the one recomputed from the
// per-channel registers.
void expect_masks_match_status(const SwitchRegisters& regs) {
  std::uint32_t free = 0, reserved = 0, busy = 0, acked = 0;
  for (PortId p = 0; p < regs.num_ports(); ++p) {
    const std::uint32_t bit = 1u << p;
    if (regs.status(p) == ChannelStatus::kFree) free |= bit;
    if (regs.status(p) == ChannelStatus::kReservedByProbe) reserved |= bit;
    if (regs.status(p) == ChannelStatus::kBusyCircuit) busy |= bit;
    if (regs.ack_returned(p)) acked |= bit;
  }
  EXPECT_EQ(regs.free_mask(), free);
  EXPECT_EQ(regs.reserved_mask(), reserved);
  EXPECT_EQ(regs.busy_mask(), busy);
  EXPECT_EQ(regs.ack_mask(), acked);
}

TEST(SwitchRegisters, MasksTrackEveryMutationAndSurviveASnapRoundTrip) {
  wavesim::sim::Rng rng{77};
  for (const std::int32_t ports : {4, 6, 32}) {
    RegisterFile file(1, ports, 1);
    SwitchRegisters& regs = file.at(0, 0);
    expect_masks_match_status(regs);
    for (int op = 0; op < 4000; ++op) {
      const auto p = static_cast<PortId>(rng.next_below(ports));
      switch (regs.status(p)) {
        case ChannelStatus::kFree:
          if (rng.chance(0.8)) {
            regs.reserve(p, op, kLocalEndpoint);
          } else {
            regs.mark_faulty(p);
          }
          break;
        case ChannelStatus::kReservedByProbe:
          if (rng.chance(0.5)) {
            regs.commit(p, op);
          } else {
            regs.release_reservation(p);
          }
          break;
        case ChannelStatus::kBusyCircuit:
          if (!regs.ack_returned(p) && rng.chance(0.7)) {
            regs.mark_ack_returned(p);
          } else {
            regs.release_circuit(p);
          }
          break;
        case ChannelStatus::kFaulty:
          regs.clear_faulty(p);
          break;
      }
      expect_masks_match_status(regs);
      auto ar = snap::Archive::writer();
      regs.snap(ar);
      RegisterFile back_file(1, ports, 1);
      SwitchRegisters& back = back_file.at(0, 0);
      auto rd = snap::Archive::reader(ar.bytes());
      back.snap(rd);
      expect_masks_match_status(back);
    }
  }
}

TEST(SwitchRegisters, ViewFoldsAckIntoEstablishedAndPending) {
  RegisterFile file(1, 6, 1);
  SwitchRegisters& regs = file.at(0, 0);
  regs.reserve(0, 1, kLocalEndpoint);  // pending: probe
  regs.reserve(1, 2, kLocalEndpoint);
  regs.commit(1, 7);                   // pending: awaiting ack
  regs.reserve(2, 3, kLocalEndpoint);
  regs.commit(2, 8);
  regs.mark_ack_returned(2);           // established
  regs.mark_faulty(3);                 // in no mask
  const MbmView all = view_of(regs, ~0u);
  EXPECT_EQ(all.available, 0b110000u);
  EXPECT_EQ(all.established, 0b000100u);
  EXPECT_EQ(all.pending, 0b000011u);
  const MbmView some = view_of(regs, 0b010101u);
  EXPECT_EQ(some.available, 0b010000u);
  EXPECT_EQ(some.established, 0b000100u);
  EXPECT_EQ(some.pending, 0b000001u);
}

// ------------------------------------------------------------------ history

TEST(HistoryStore, MarkAndQuery) {
  HistoryStore h(16);
  const auto a = h.acquire(1);
  const auto b = h.acquire(2);
  EXPECT_FALSE(h.searched(a, 5, 2));
  h.mark(a, 5, 2);
  EXPECT_TRUE(h.searched(a, 5, 2));
  EXPECT_FALSE(h.searched(a, 5, 3));
  EXPECT_FALSE(h.searched(a, 6, 2));
  EXPECT_FALSE(h.searched(b, 5, 2));  // other probe unaffected
  EXPECT_EQ(h.mask(a, 5), 0b100u);
}

TEST(HistoryStore, EntriesCountAcrossNodes) {
  HistoryStore h(16);
  const auto a = h.acquire(1);
  h.mark(a, 0, 0);
  h.mark(a, 0, 1);
  h.mark(a, 7, 3);
  EXPECT_EQ(h.entries(a), 3);
  h.mark(a, 0, 0);  // idempotent
  EXPECT_EQ(h.entries(a), 3);
}

TEST(HistoryStore, EraseDropsProbe) {
  HistoryStore h(16);
  const auto a = h.acquire(1);
  const auto b = h.acquire(2);
  h.mark(a, 0, 0);
  h.mark(b, 0, 0);
  h.release(a);
  EXPECT_TRUE(h.searched(b, 0, 0));
  EXPECT_EQ(h.probes_tracked(), 1u);
}

TEST(HistoryStore, RecycledSlotStartsEmpty) {
  HistoryStore h(16);
  const auto a = h.acquire(1);
  h.mark(a, 3, 0);
  h.mark(a, 15, 5);
  h.release(a);
  const auto c = h.acquire(9);
  EXPECT_EQ(c, a);  // the pool hands the zeroed row out again
  EXPECT_EQ(h.entries(c), 0);
  for (NodeId n = 0; n < 16; ++n) EXPECT_EQ(h.mask(c, n), 0u) << n;
}

TEST(HistoryStore, PortOutOfMaskRangeThrows) {
  HistoryStore h(16);
  const auto a = h.acquire(1);
  EXPECT_THROW(h.mark(a, 0, 32), std::invalid_argument);
  EXPECT_THROW(h.mark(a, 0, -1), std::invalid_argument);
  EXPECT_THROW(h.mark(a, 16, 0), std::invalid_argument);
}

// The section layout is part of wavesim.snap.v1 and must not depend on
// slot order: a count, then per probe with at least one mark, in ascending
// id order, the id and its row cut after the highest marked node.
TEST(HistoryStore, SnapBytesMatchTheSnapV1Layout) {
  HistoryStore h(16);
  const auto late = h.acquire(7);
  const auto idle = h.acquire(3);  // nothing marked: not written
  const auto early = h.acquire(5);
  h.mark(late, 2, 1);
  h.mark(early, 9, 0);
  h.mark(early, 4, 3);
  (void)idle;
  auto ar = snap::Archive::writer();
  h.snap(ar);

  auto ref = snap::Archive::writer();
  std::uint64_t n = 2;
  ref.pod(n);
  ProbeId id = 5;
  ref.pod(id);
  std::vector<std::uint32_t> row5(10, 0);
  row5[9] = 0b1;
  row5[4] = 0b1000;
  ref.vec_pod(row5);
  id = 7;
  ref.pod(id);
  std::vector<std::uint32_t> row7(3, 0);
  row7[2] = 0b10;
  ref.vec_pod(row7);
  EXPECT_EQ(ar.bytes(), ref.bytes());

  // Reading rebuilds the rows; each probe adopts its own, and a probe
  // without a stored row gets an empty one.
  HistoryStore back(16);
  auto rd = snap::Archive::reader(ar.bytes());
  back.snap(rd);
  EXPECT_TRUE(rd.exhausted());
  const auto s3 = back.adopt(3);
  const auto s5 = back.adopt(5);
  const auto s7 = back.adopt(7);
  EXPECT_EQ(back.entries(s3), 0);
  EXPECT_EQ(back.mask(s5, 9), 0b1u);
  EXPECT_EQ(back.mask(s5, 4), 0b1000u);
  EXPECT_EQ(back.mask(s7, 2), 0b10u);
  EXPECT_EQ(back.probes_tracked(), 3u);
  auto again = snap::Archive::writer();
  back.snap(again);
  EXPECT_EQ(again.bytes(), ar.bytes());
}

TEST(HistoryStore, SnapRejectsRowsWiderThanTheNetwork) {
  auto ar = snap::Archive::writer();
  std::uint64_t n = 1;
  ar.pod(n);
  ProbeId id = 0;
  ar.pod(id);
  std::vector<std::uint32_t> row(5, 1);
  ar.vec_pod(row);
  HistoryStore h(4);
  auto rd = snap::Archive::reader(ar.bytes());
  EXPECT_THROW(h.snap(rd), snap::ArchiveError);
}

// -------------------------------------------------------------------- MB-m

/// Availability of the (control, data) channel pair behind one output port
/// as seen by a probe: the per-port form of MbmView, in which the tests
/// below and the ordered-scan oracle describe a view port by port.
enum class PortView : std::uint8_t {
  kAvailable,        ///< free pair, selectable
  kBusyEstablished,  ///< owned by a circuit whose ack has returned
  kBusyPending,      ///< owned by a probe or a circuit still awaiting ack
  kUnusable,         ///< faulty, searched (history), or off the mesh edge
};

/// The MbmView of a per-port view; `view` holds exactly one entry per
/// port of `topology` (std::invalid_argument otherwise).
MbmView view_of(const KAryNCube& topology, std::span<const PortView> view) {
  if (static_cast<std::int32_t>(view.size()) != topology.num_ports()) {
    throw std::invalid_argument("view_of: view size mismatch");
  }
  MbmView out;
  for (std::size_t p = 0; p < view.size(); ++p) {
    const std::uint32_t bit = 1u << p;
    out.available |= view[p] == PortView::kAvailable ? bit : 0u;
    out.established |= view[p] == PortView::kBusyEstablished ? bit : 0u;
    out.pending |= view[p] == PortView::kBusyPending ? bit : 0u;
  }
  return out;
}

/// decide() over a per-port view: view_of() then the mask decide().
MbmDecision decide(const KAryNCube& topology, NodeId node, NodeId dest,
                   std::span<const PortView> view, PortId arrival_port,
                   std::int32_t misroutes, std::int32_t max_misroutes,
                   bool force) {
  return pcs::decide(topology, node, dest, view_of(topology, view),
                     arrival_port, misroutes, max_misroutes, force);
}

class MbmTest : public ::testing::Test {
 protected:
  MbmTest() : torus_({8, 8}, true) {}

  std::vector<PortView> all(PortView v) const {
    return std::vector<PortView>(torus_.num_ports(), v);
  }

  KAryNCube torus_;
};

TEST_F(MbmTest, OrderedMinimalPortsPreferLongestOffset) {
  // From (0,0) to (1,3): dim 1 has the larger offset, so its port first.
  const auto ports = ordered_minimal_ports(torus_, torus_.node_of({0, 0}),
                                           torus_.node_of({1, 3}));
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports[0], KAryNCube::port_of(1, true));
  EXPECT_EQ(ports[1], KAryNCube::port_of(0, true));
}

TEST_F(MbmTest, DeliversAtDestination) {
  const auto d = decide(torus_, 5, 5, all(PortView::kAvailable), 0, 0, 2, false);
  EXPECT_EQ(d.action, MbmAction::kDeliver);
}

TEST_F(MbmTest, AdvancesMinimalWhenFree) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 0});
  const auto d = decide(torus_, src, dst, all(PortView::kAvailable),
                        kInvalidPort, 0, 2, false);
  EXPECT_EQ(d.action, MbmAction::kAdvance);
  EXPECT_EQ(d.port, KAryNCube::port_of(0, true));
  EXPECT_FALSE(d.misroute);
}

TEST_F(MbmTest, MisroutesWhenMinimalBlocked) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 0});
  auto view = all(PortView::kAvailable);
  view[KAryNCube::port_of(0, true)] = PortView::kBusyPending;
  const auto d = decide(torus_, src, dst, view, kInvalidPort, 0, 2, false);
  EXPECT_EQ(d.action, MbmAction::kAdvance);
  EXPECT_TRUE(d.misroute);
  EXPECT_NE(d.port, KAryNCube::port_of(0, true));
}

TEST_F(MbmTest, BacktracksWhenBudgetExhausted) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 0});
  auto view = all(PortView::kAvailable);
  view[KAryNCube::port_of(0, true)] = PortView::kBusyPending;
  const auto d = decide(torus_, src, dst, view, kInvalidPort,
                        /*misroutes=*/2, /*max=*/2, false);
  EXPECT_EQ(d.action, MbmAction::kBacktrack);
}

TEST_F(MbmTest, NeverMisroutesBackWhereItCameFrom) {
  const NodeId node = torus_.node_of({2, 0});
  const NodeId dst = torus_.node_of({5, 0});
  // The probe arrived from (1,0): it entered through input port (0,-), and
  // the output link back toward (1,0) is that same port index.
  const PortId arrival = KAryNCube::port_of(0, false);
  auto view = all(PortView::kUnusable);
  view[arrival] = PortView::kAvailable;  // only way "forward" is backward
  const auto d = decide(torus_, node, dst, view, arrival, 0, 2, false);
  EXPECT_EQ(d.action, MbmAction::kBacktrack);
}

TEST_F(MbmTest, ForceWaitsOnEstablishedCircuit) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 0});
  auto view = all(PortView::kBusyPending);
  view[KAryNCube::port_of(0, true)] = PortView::kBusyEstablished;
  const auto d = decide(torus_, src, dst, view, kInvalidPort, 0, 2, true);
  EXPECT_EQ(d.action, MbmAction::kWaitForce);
  EXPECT_EQ(d.port, KAryNCube::port_of(0, true));
  EXPECT_FALSE(d.misroute);
}

TEST_F(MbmTest, ForceNeverWaitsOnPendingCircuits) {
  // Theorem 1: when every requested channel belongs to a circuit still
  // being established, the probe backtracks even with Force set.
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 3});
  const auto d = decide(torus_, src, dst, all(PortView::kBusyPending),
                        kInvalidPort, 0, 2, true);
  EXPECT_EQ(d.action, MbmAction::kBacktrack);
}

TEST_F(MbmTest, ForcePrefersFreeChannelOverTeardown) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 3});
  auto view = all(PortView::kBusyEstablished);
  view[KAryNCube::port_of(1, true)] = PortView::kAvailable;
  const auto d = decide(torus_, src, dst, view, kInvalidPort, 0, 2, true);
  EXPECT_EQ(d.action, MbmAction::kAdvance);
  EXPECT_EQ(d.port, KAryNCube::port_of(1, true));
}

TEST_F(MbmTest, ForceNonMinimalWaitConsumesMisroute) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 0});
  auto view = all(PortView::kBusyPending);
  view[KAryNCube::port_of(1, true)] = PortView::kBusyEstablished;  // non-minimal
  const auto d = decide(torus_, src, dst, view, kInvalidPort, 0, 2, true);
  EXPECT_EQ(d.action, MbmAction::kWaitForce);
  EXPECT_EQ(d.port, KAryNCube::port_of(1, true));
  EXPECT_TRUE(d.misroute);
}

TEST_F(MbmTest, ForceNonMinimalWaitRespectsBudget) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 0});
  auto view = all(PortView::kBusyPending);
  view[KAryNCube::port_of(1, true)] = PortView::kBusyEstablished;
  const auto d = decide(torus_, src, dst, view, kInvalidPort,
                        /*misroutes=*/2, /*max=*/2, true);
  EXPECT_EQ(d.action, MbmAction::kBacktrack);
}

TEST_F(MbmTest, UnusablePortsAreSkipped) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({2, 2});
  auto view = all(PortView::kUnusable);
  view[KAryNCube::port_of(1, true)] = PortView::kAvailable;
  const auto d = decide(torus_, src, dst, view, kInvalidPort, 0, 2, false);
  EXPECT_EQ(d.action, MbmAction::kAdvance);
  EXPECT_EQ(d.port, KAryNCube::port_of(1, true));
}

TEST_F(MbmTest, ZeroMisrouteBudgetIsProfitableOnly) {
  const NodeId src = torus_.node_of({0, 0});
  const NodeId dst = torus_.node_of({3, 0});
  auto view = all(PortView::kAvailable);
  view[KAryNCube::port_of(0, true)] = PortView::kBusyPending;
  const auto d = decide(torus_, src, dst, view, kInvalidPort, 0, 0, false);
  EXPECT_EQ(d.action, MbmAction::kBacktrack);
}

TEST_F(MbmTest, ViewSizeMismatchThrows) {
  const std::vector<PortView> one{PortView::kAvailable};
  EXPECT_THROW(decide(torus_, 0, 1, one, kInvalidPort, 0, 2, false),
               std::invalid_argument);
}

TEST_F(MbmTest, PropertyFuzzOverRandomViews) {
  // Invariants of decide() over randomized channel views:
  //  P1 an advance/wait never targets an unusable port;
  //  P2 a non-force probe never waits;
  //  P3 a wait always targets an established-busy channel;
  //  P4 an advance always targets an available channel;
  //  P5 a non-misroute advance/wait is minimal;
  //  P6 with misroutes == max, every advance is minimal;
  //  P7 an advance never goes straight back through the arrival port.
  wavesim::sim::Rng rng{2024};
  const auto statuses = {PortView::kAvailable, PortView::kBusyEstablished,
                         PortView::kBusyPending, PortView::kUnusable};
  for (int trial = 0; trial < 5000; ++trial) {
    const NodeId node = static_cast<NodeId>(rng.next_below(64));
    NodeId dest = static_cast<NodeId>(rng.next_below(64));
    if (dest == node) dest = (dest + 1) % 64;
    std::vector<PortView> view;
    for (PortId p = 0; p < torus_.num_ports(); ++p) {
      view.push_back(*(statuses.begin() + rng.next_below(4)));
    }
    const PortId arrival =
        rng.chance(0.3) ? kInvalidPort
                        : static_cast<PortId>(rng.next_below(torus_.num_ports()));
    const auto m = static_cast<std::int32_t>(rng.next_below(4));
    const auto used = static_cast<std::int32_t>(rng.next_below(m + 1));
    const bool force = rng.chance(0.5);
    const auto d = decide(torus_, node, dest, view, arrival, used, m, force);
    const auto minimal = ordered_minimal_ports(torus_, node, dest);
    const bool is_minimal =
        d.port != kInvalidPort &&
        std::find(minimal.begin(), minimal.end(), d.port) != minimal.end();
    switch (d.action) {
      case MbmAction::kAdvance:
        ASSERT_EQ(view[d.port], PortView::kAvailable);  // P1, P4
        if (!d.misroute) {
          ASSERT_TRUE(is_minimal);  // P5
        }
        if (used >= m) {
          ASSERT_TRUE(is_minimal);  // P6
        }
        if (!is_minimal) {
          ASSERT_NE(d.port, arrival);  // P7
        }
        break;
      case MbmAction::kWaitForce:
        ASSERT_TRUE(force);                                   // P2
        ASSERT_EQ(view[d.port], PortView::kBusyEstablished);  // P1, P3
        if (!d.misroute) {
          ASSERT_TRUE(is_minimal);  // P5
        }
        break;
      case MbmAction::kBacktrack:
      case MbmAction::kDeliver:
        break;
    }
  }
}

// The ordered-scan decide() the mask decide() replaced, kept verbatim in
// behavior as the oracle of the equivalence test below: minimal ports
// insertion-sorted by (-|offset|, port), then port-by-port scans.
MbmDecision oracle_decide(const KAryNCube& topology, NodeId node, NodeId dest,
                          const std::vector<PortView>& view,
                          PortId arrival_port, std::int32_t misroutes,
                          std::int32_t max_misroutes, bool force,
                          bool mutate_force_unacked) {
  if (node == dest) {
    return MbmDecision{MbmAction::kDeliver, kInvalidPort, false};
  }
  const std::span<const std::int32_t> from = topology.coord_row(node);
  const std::span<const std::int32_t> to = topology.coord_row(dest);
  std::array<std::pair<std::int32_t, PortId>, kMaxPorts> scored;
  std::int32_t n = 0;
  for (std::int32_t d = 0; d < topology.num_dims(); ++d) {
    const std::int32_t off = topology.wrap_offset(to[d] - from[d], d);
    if (off == 0) continue;
    const std::pair<std::int32_t, PortId> key{-std::abs(off),
                                              KAryNCube::port_of(d, off > 0)};
    std::int32_t i = n++;
    for (; i > 0 && key < scored[i - 1]; --i) scored[i] = scored[i - 1];
    scored[i] = key;
  }
  const auto is_minimal = [&](PortId p) {
    for (std::int32_t i = 0; i < n; ++i) {
      if (scored[i].second == p) return true;
    }
    return false;
  };
  const auto waitable = [mutate_force_unacked](PortView v) {
    return v == PortView::kBusyEstablished ||
           (mutate_force_unacked && v == PortView::kBusyPending);
  };
  for (std::int32_t i = 0; i < n; ++i) {
    const PortId p = scored[i].second;
    if (view[p] == PortView::kAvailable) {
      return MbmDecision{MbmAction::kAdvance, p, false};
    }
  }
  if (force) {
    for (std::int32_t i = 0; i < n; ++i) {
      const PortId p = scored[i].second;
      if (waitable(view[p])) {
        return MbmDecision{MbmAction::kWaitForce, p, false};
      }
    }
  }
  if (misroutes < max_misroutes) {
    for (PortId p = 0; p < topology.num_ports(); ++p) {
      if (view[p] != PortView::kAvailable || p == arrival_port ||
          is_minimal(p)) {
        continue;
      }
      return MbmDecision{MbmAction::kAdvance, p, true};
    }
    if (force) {
      for (PortId p = 0; p < topology.num_ports(); ++p) {
        if (!waitable(view[p]) || p == arrival_port || is_minimal(p)) continue;
        return MbmDecision{MbmAction::kWaitForce, p, true};
      }
    }
  }
  return MbmDecision{MbmAction::kBacktrack, kInvalidPort, false};
}

// Every view of every port over the four port states, every arrival port
// (and none), every misroute count up to m, Force and the seeded bug on
// and off, toward every destination from several sources: the mask
// decide() must return exactly the ordered-scan oracle's decision. The
// topologies cover a 4-port torus, a 4-port mesh (edge nodes) and a
// 6-port torus (three-way |offset| ties).
TEST(MbmEquivalence, MaskDecideMatchesTheOrderedScanOnEveryView) {
  constexpr std::int32_t kMaxMisroutes = 2;
  const auto states = {PortView::kAvailable, PortView::kBusyEstablished,
                       PortView::kBusyPending, PortView::kUnusable};
  struct Case {
    KAryNCube topology;
    std::vector<topo::Coord> sources;
  };
  const std::vector<Case> cases = {
      {KAryNCube({6, 6}, true), {{0, 0}, {2, 3}}},
      {KAryNCube({5, 5}, false), {{0, 0}, {2, 0}, {2, 2}, {4, 4}}},
      {KAryNCube({4, 4, 4}, true), {{0, 0, 0}, {1, 2, 3}}},
  };
  std::uint64_t checked = 0;
  for (const Case& c : cases) {
    const KAryNCube& t = c.topology;
    const std::int32_t ports = t.num_ports();
    std::uint32_t views = 1;
    for (std::int32_t p = 0; p < ports; ++p) views *= 4;
    std::vector<PortView> view(static_cast<std::size_t>(ports));
    for (const topo::Coord& at : c.sources) {
      const NodeId node = t.node_of(at);
      for (NodeId dest = 0; dest < t.num_nodes(); ++dest) {
        for (std::uint32_t code = 0; code < views; ++code) {
          for (std::int32_t p = 0; p < ports; ++p) {
            view[p] = *(states.begin() + ((code >> (2 * p)) & 3u));
          }
          const MbmView masks = view_of(t, view);
          for (PortId arrival = kInvalidPort; arrival < ports; ++arrival) {
            for (std::int32_t used = 0; used <= kMaxMisroutes; ++used) {
              for (const int flags : {0, 1, 2, 3}) {
                const bool force = (flags & 1) != 0;
                const bool mutate = (flags & 2) != 0;
                const MbmDecision want =
                    oracle_decide(t, node, dest, view, arrival, used,
                                  kMaxMisroutes, force, mutate);
                const MbmDecision got =
                    decide(t, node, dest, masks, arrival, used, kMaxMisroutes,
                           force, mutate);
                ++checked;
                if (got == want) continue;
                FAIL() << "node " << node << " dest " << dest << " view "
                       << code << " arrival " << arrival << " misroutes "
                       << used << " force " << force << " mutate " << mutate
                       << ": port " << got.port << " vs " << want.port;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(MbmEquivalence, LinkMaskDropsMeshEdgePorts) {
  const KAryNCube mesh({4, 4}, false);
  EXPECT_EQ(link_mask(mesh, mesh.node_of({0, 0})),
            (1u << KAryNCube::port_of(0, true)) |
                (1u << KAryNCube::port_of(1, true)));
  EXPECT_EQ(link_mask(mesh, mesh.node_of({1, 2})), 0b1111u);
  const KAryNCube torus({4, 4, 4}, true);
  EXPECT_EQ(link_mask(torus, 0), 0b111111u);
}

TEST(ControlKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(ControlKind::kProbe), "probe");
  EXPECT_STREQ(to_string(ControlKind::kAck), "ack");
  EXPECT_STREQ(to_string(ControlKind::kTeardown), "teardown");
  EXPECT_STREQ(to_string(ControlKind::kReleaseRequest), "release-request");
}

}  // namespace
}  // namespace wavesim::pcs
