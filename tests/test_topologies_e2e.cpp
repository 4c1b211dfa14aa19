// End-to-end property sweep over topology shapes: every protocol must
// deliver randomized traffic on rings, meshes, asymmetric grids, 3-D tori
// and hypercubes, with all invariants intact.
#include <gtest/gtest.h>

#include <ostream>

#include "core/simulation.hpp"
#include "sim/rng.hpp"
#include "verify/delivery.hpp"
#include "verify/fsck.hpp"

namespace wavesim {
namespace {

struct TopoCase {
  const char* name;
  std::vector<std::int32_t> radix;
  bool torus;
  sim::ProtocolKind protocol;
};

std::string PrintCase(const ::testing::TestParamInfo<TopoCase>& info) {
  return info.param.name;
}

// gtest prints a parameter it cannot format as raw bytes, which include
// the name pointer and the radix vector's heap address; ctest names made
// by gtest_discover_tests would then change from build to build.
void PrintTo(const TopoCase& param, std::ostream* os) { *os << param.name; }

class TopologySweep : public ::testing::TestWithParam<TopoCase> {};

TEST_P(TopologySweep, RandomTrafficDeliversEverywhere) {
  const TopoCase& param = GetParam();
  sim::SimConfig cfg;
  cfg.topology.radix = param.radix;
  cfg.topology.torus = param.torus;
  cfg.protocol.protocol = param.protocol;
  if (param.protocol == sim::ProtocolKind::kWormholeOnly) {
    cfg.router.wave_switches = 0;
  }
  cfg.seed = 77;
  core::Simulation sim(cfg);
  const std::int32_t n = sim.topology().num_nodes();
  sim::Rng rng{1234};
  std::uint64_t sent = 0;
  for (int i = 0; i < 6 * n; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(n));
    NodeId d = static_cast<NodeId>(rng.next_below(n));
    if (d == s) d = (d + 1) % n;
    if (param.protocol == sim::ProtocolKind::kCarp && rng.chance(0.4)) {
      sim.establish_circuit(s, d);
    }
    sim.send(s, d, static_cast<std::int32_t>(2 + rng.next_below(30)));
    ++sent;
    sim.run(4);
  }
  ASSERT_TRUE(sim.run_until_delivered(2'000'000)) << param.name;
  EXPECT_EQ(sim.stats().messages_delivered, sent);
  const auto delivery = verify::check_delivery(sim.network());
  EXPECT_TRUE(delivery.ok()) << delivery.summary();
  const auto fsck = verify::check_control_state(sim.network());
  EXPECT_TRUE(fsck.ok()) << fsck.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologySweep,
    ::testing::Values(
        TopoCase{"ring8_torus_clrp", {8}, true, sim::ProtocolKind::kClrp},
        TopoCase{"line8_wormhole", {8}, false, sim::ProtocolKind::kWormholeOnly},
        TopoCase{"mesh4x4_clrp", {4, 4}, false, sim::ProtocolKind::kClrp},
        TopoCase{"mesh4x4_carp", {4, 4}, false, sim::ProtocolKind::kCarp},
        TopoCase{"torus4x4_clrp", {4, 4}, true, sim::ProtocolKind::kClrp},
        TopoCase{"asym8x4_clrp", {8, 4}, true, sim::ProtocolKind::kClrp},
        TopoCase{"asym8x4mesh_wormhole", {8, 4}, false,
                 sim::ProtocolKind::kWormholeOnly},
        TopoCase{"torus3x3x3_clrp", {3, 3, 3}, true, sim::ProtocolKind::kClrp},
        TopoCase{"torus3x3x3_wormhole", {3, 3, 3}, true,
                 sim::ProtocolKind::kWormholeOnly},
        TopoCase{"hypercube16_clrp", {2, 2, 2, 2}, true,
                 sim::ProtocolKind::kClrp},
        TopoCase{"mesh2x2x2_carp", {2, 2, 2}, false, sim::ProtocolKind::kCarp}),
    PrintCase);

}  // namespace
}  // namespace wavesim
