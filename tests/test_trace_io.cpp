// Trace file round-trips and the post-drain leak check.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/simulation.hpp"
#include "sim/rng.hpp"
#include "verify/delivery.hpp"
#include "workload/trace.hpp"

namespace wavesim::load {
namespace {

class TraceIo : public ::testing::Test {
 protected:
  TraceIo() {
    path_ = (std::filesystem::temp_directory_path() /
             ("wavesim_trace_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              "_" + std::to_string(counter_++)))
                .string();
  }
  ~TraceIo() override { std::remove(path_.c_str()); }

  static int counter_;
  std::string path_;
};

int TraceIo::counter_ = 0;

TEST_F(TraceIo, RoundTripPreservesEveryEvent) {
  Trace trace;
  trace.establish(0, 3, 7);
  trace.send(5, 3, 7, 64);
  trace.send(5, 1, 2, 8);
  trace.release(90, 3, 7);
  save_trace(trace, path_);
  const Trace loaded = load_trace(path_);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& a = trace.events()[i];
    const auto& b = loaded.events()[i];
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(static_cast<int>(a.op), static_cast<int>(b.op));
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dest, b.dest);
    EXPECT_EQ(a.length, b.length);
  }
}

TEST_F(TraceIo, LoadRejectsMalformedInput) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("# comment\n\n10 send 1 2 8\n11 frobnicate 1 2\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_trace(path_), std::runtime_error);
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("10 send 1 2\n", f);  // missing length
    std::fclose(f);
  }
  EXPECT_THROW(load_trace(path_), std::runtime_error);
  EXPECT_THROW(load_trace(path_ + ".does-not-exist"), std::runtime_error);
}

TEST_F(TraceIo, CommentsAndBlanksIgnored) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    std::fputs("# header\n\n0 establish 1 2\n5 send 1 2 16\n", f);
    std::fclose(f);
  }
  const Trace trace = load_trace(path_);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.events()[1].length, 16);
}

TEST_F(TraceIo, CapturedRunSurvivesDiskRoundTrip) {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  core::Simulation original(cfg);
  sim::Rng rng{7};
  for (int i = 0; i < 25; ++i) {
    NodeId s = static_cast<NodeId>(rng.next_below(64));
    NodeId d = static_cast<NodeId>(rng.next_below(64));
    if (d == s) d = (d + 1) % 64;
    original.send(s, d, static_cast<std::int32_t>(4 + rng.next_below(28)));
    original.run(9);
  }
  ASSERT_TRUE(original.run_until_delivered(500000));
  save_trace(capture(original.network().messages()), path_);

  core::Simulation replayed(cfg);
  ASSERT_TRUE(replay(load_trace(path_), replayed, 500000));
  EXPECT_EQ(replayed.stats().messages_delivered, 25u);
}

TEST(DrainedCheck, CleanAfterFullDrain) {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  cfg.protocol.circuit_cache_entries = 2;
  core::Simulation sim(cfg);
  sim::Rng rng{13};
  for (int i = 0; i < 80; ++i) {
    NodeId s = static_cast<NodeId>(rng.next_below(64));
    NodeId d = static_cast<NodeId>(rng.next_below(64));
    if (d == s) d = (d + 1) % 64;
    sim.send(s, d, static_cast<std::int32_t>(4 + rng.next_below(60)));
    sim.run(5);
  }
  ASSERT_TRUE(sim.run_until_delivered(1'000'000));
  const auto result = verify::check_drained(sim.network());
  EXPECT_TRUE(result.ok()) << result.summary();
}

TEST(DrainedCheck, FlagsNonQuiescentNetwork) {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  core::Simulation sim(cfg);
  sim.send(0, 9, 64);
  const auto result = verify::check_drained(sim.network());
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("not quiescent"), std::string::npos);
}

}  // namespace
}  // namespace wavesim::load
