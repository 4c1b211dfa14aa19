#include "sim/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace wavesim::sim {
namespace {

TEST(SimConfig, PresetsAreValid) {
  EXPECT_NO_THROW(SimConfig::small_mesh().validate());
  EXPECT_NO_THROW(SimConfig::default_torus().validate());
  EXPECT_NO_THROW(SimConfig::wormhole_baseline().validate());
}

TEST(SimConfig, NumNodes) {
  SimConfig cfg;
  cfg.topology.radix = {4, 8};
  EXPECT_EQ(cfg.num_nodes(), 32);
  cfg.topology.radix = {2, 2, 2, 2};
  EXPECT_EQ(cfg.num_nodes(), 16);
}

TEST(SimConfig, RejectsEmptyTopology) {
  SimConfig cfg = SimConfig::default_torus();
  cfg.topology.radix = {};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SimConfig, RejectsRadixOne) {
  SimConfig cfg = SimConfig::default_torus();
  cfg.topology.radix = {8, 1};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SimConfig, TorusDorNeedsTwoVcs) {
  SimConfig cfg = SimConfig::default_torus();
  cfg.router.wormhole_vcs = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.topology.torus = false;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SimConfig, DuatoNeedsEscapePlusAdaptive) {
  SimConfig cfg = SimConfig::default_torus();
  cfg.router.routing = RoutingKind::kDuatoAdaptive;
  cfg.router.wormhole_vcs = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // torus needs 3
  cfg.router.wormhole_vcs = 3;
  EXPECT_NO_THROW(cfg.validate());
  cfg.topology.torus = false;
  cfg.router.wormhole_vcs = 2;
  EXPECT_NO_THROW(cfg.validate());
  cfg.router.wormhole_vcs = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SimConfig, CircuitProtocolNeedsWaveSwitches) {
  SimConfig cfg = SimConfig::default_torus();
  cfg.router.wave_switches = 0;
  cfg.protocol.protocol = ProtocolKind::kClrp;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.protocol.protocol = ProtocolKind::kWormholeOnly;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(SimConfig, RejectsBadScalars) {
  auto check = [](auto&& mutate) {
    SimConfig cfg = SimConfig::default_torus();
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  check([](SimConfig& c) { c.router.vc_buffer_depth = 0; });
  check([](SimConfig& c) { c.router.wave_switches = -1; });
  check([](SimConfig& c) { c.router.wave_clock_factor = 0.0; });
  check([](SimConfig& c) { c.router.circuit_window = 0; });
  check([](SimConfig& c) { c.router.wormhole_pipeline_latency = 0; });
  check([](SimConfig& c) {
    c.router.wormhole_pipeline_latency = kMaxPipelineLatency + 1;
  });
  check([](SimConfig& c) { c.protocol.max_misroutes = -1; });
  check([](SimConfig& c) { c.protocol.circuit_cache_entries = 0; });
  check([](SimConfig& c) { c.protocol.min_circuit_message_flits = -1; });
  check([](SimConfig& c) { c.faults.link_fault_rate = 1.0; });
  check([](SimConfig& c) { c.faults.link_fault_rate = -0.1; });
}

TEST(SimConfig, CircuitBandwidthDependsOnSplit) {
  SimConfig cfg = SimConfig::default_torus();
  cfg.router.wave_clock_factor = 4.0;
  cfg.router.wave_switches = 2;
  cfg.router.split_channels = false;
  EXPECT_DOUBLE_EQ(cfg.circuit_flits_per_cycle(), 4.0);
  cfg.router.split_channels = true;
  EXPECT_DOUBLE_EQ(cfg.circuit_flits_per_cycle(), 2.0);
}

TEST(SimConfig, EnumToString) {
  EXPECT_STREQ(to_string(RoutingKind::kDimensionOrder), "dor");
  EXPECT_STREQ(to_string(RoutingKind::kDuatoAdaptive), "duato");
  EXPECT_STREQ(to_string(ReplacementPolicy::kLru), "lru");
  EXPECT_STREQ(to_string(ReplacementPolicy::kLfu), "lfu");
  EXPECT_STREQ(to_string(ReplacementPolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(ReplacementPolicy::kRandom), "random");
  EXPECT_STREQ(to_string(ProtocolKind::kWormholeOnly), "wormhole");
  EXPECT_STREQ(to_string(ProtocolKind::kClrp), "clrp");
  EXPECT_STREQ(to_string(ProtocolKind::kCarp), "carp");
  EXPECT_STREQ(to_string(ClrpVariant::kFull), "full");
  EXPECT_STREQ(to_string(ClrpVariant::kForceFirst), "force-first");
  EXPECT_STREQ(to_string(ClrpVariant::kSingleSwitch), "single-switch");
}

}  // namespace
}  // namespace wavesim::sim
