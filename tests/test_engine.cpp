// The sharded parallel engine: partitioning (contiguous, balanced,
// clamped), the cycle-synchronous pool (every slot runs, errors rethrow,
// reusable across epochs), config parsing/serialization, and — the
// subsystem's core promise — bit-identical results to the sequential
// stepper for any shard and thread count, including circuits established
// and torn down across partition cuts and the k=1 / capacity-1 cache
// corners.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "core/instrumentation.hpp"
#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "engine/partition.hpp"
#include "engine/pool.hpp"
#include "event_fingerprint.hpp"
#include "harness/sweep.hpp"
#include "sim/json.hpp"
#include "sim/rng.hpp"
#include "verify/delivery.hpp"
#include "verify/watchdog.hpp"
#include "workload/generator.hpp"

namespace wavesim::engine {
namespace {

// ------------------------------------------------------------- partition

TEST(Partition, CoversAllNodesContiguouslyAndBalanced) {
  for (const std::int32_t nodes : {1, 5, 16, 64, 256}) {
    for (const std::int32_t shards : {1, 2, 3, 4, 7, 8}) {
      const std::vector<ShardRange> ranges = partition_nodes(nodes, shards);
      ASSERT_FALSE(ranges.empty());
      EXPECT_EQ(ranges.front().begin, 0);
      EXPECT_EQ(ranges.back().end, nodes);
      std::int32_t min_size = nodes;
      std::int32_t max_size = 0;
      for (std::size_t s = 0; s < ranges.size(); ++s) {
        EXPECT_GT(ranges[s].size(), 0) << "empty shard " << s;
        if (s > 0) {
          EXPECT_EQ(ranges[s].begin, ranges[s - 1].end);
        }
        min_size = std::min(min_size, ranges[s].size());
        max_size = std::max(max_size, ranges[s].size());
        for (NodeId n = ranges[s].begin; n < ranges[s].end; ++n) {
          EXPECT_EQ(shard_of(n, nodes, shards),
                    static_cast<std::int32_t>(s));
        }
      }
      EXPECT_LE(max_size - min_size, 1) << nodes << "/" << shards;
    }
  }
}

TEST(Partition, ClampsShardCount) {
  EXPECT_EQ(clamp_shards(0, 16), 1);
  EXPECT_EQ(clamp_shards(-3, 16), 1);
  EXPECT_EQ(clamp_shards(4, 16), 4);
  EXPECT_EQ(clamp_shards(100, 16), 16);  // never an empty shard
  EXPECT_EQ(partition_nodes(16, 100).size(), 16u);
  EXPECT_EQ(partition_nodes(16, 0).size(), 1u);
}

// ------------------------------------------------------------ cycle pool

TEST(CyclePool, EverySlotRunsOncePerEpoch) {
  CyclePool pool(4);
  ASSERT_EQ(pool.participants(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (int epoch = 0; epoch < 500; ++epoch) {
    pool.run([&](unsigned slot) { ++hits[slot]; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 500);
}

TEST(CyclePool, SingleParticipantRunsInline) {
  CyclePool pool(1);
  EXPECT_EQ(pool.participants(), 1u);
  int calls = 0;
  pool.run([&](unsigned slot) {
    EXPECT_EQ(slot, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(CyclePool, WorkerExceptionRethrowsAtTheBarrier) {
  CyclePool pool(3);
  EXPECT_THROW(pool.run([](unsigned slot) {
                 if (slot == 1) throw std::runtime_error("shard failed");
               }),
               std::runtime_error);
  // The pool survives a throwing epoch and keeps working.
  std::atomic<int> ok{0};
  pool.run([&](unsigned) { ++ok; });
  EXPECT_EQ(ok.load(), 3);
}

// ---------------------------------------------------------------- config

TEST(EngineConfig, ParseKind) {
  EXPECT_EQ(parse_engine_kind("seq"), EngineKind::kSeq);
  EXPECT_EQ(parse_engine_kind("par"), EngineKind::kPar);
  EXPECT_FALSE(parse_engine_kind("parallel").has_value());
  EXPECT_FALSE(parse_engine_kind("").has_value());
}

TEST(EngineConfig, JsonStampRecordsKindAndShards) {
  EngineConfig seq;
  EXPECT_EQ(seq.to_json().dump(), "{\"kind\":\"seq\"}");
  EngineConfig par;
  par.kind = EngineKind::kPar;
  par.shards = 3;
  EXPECT_EQ(par.to_json(64).dump(), "{\"kind\":\"par\",\"shards\":3}");
  // More shards than nodes resolves to one shard per node.
  EXPECT_EQ(par.to_json(2).dump(), "{\"kind\":\"par\",\"shards\":2}");
}

TEST(EngineConfig, MakeEngineNeverReturnsNull) {
  EngineConfig cfg;
  ASSERT_NE(make_engine(cfg, 16), nullptr);
  EXPECT_STREQ(make_engine(cfg, 16)->name(), "seq");
  cfg.kind = EngineKind::kPar;
  cfg.shards = 4;
  ASSERT_NE(make_engine(cfg, 16), nullptr);
  EXPECT_STREQ(make_engine(cfg, 16)->name(), "par");
}

// ----------------------------------------------------------- determinism

void install_par(core::Simulation& sim, std::int32_t shards,
                 unsigned threads = 0) {
  EngineConfig cfg;
  cfg.kind = EngineKind::kPar;
  cfg.shards = shards;
  cfg.threads = threads;
  sim.set_engine(make_engine(cfg, sim.topology().num_nodes()));
}

/// Open-loop uniform traffic of one digest run: offered load, message
/// length, the warmup and measured windows, and the traffic seed.
struct Traffic {
  double load = 0.1;
  std::int32_t flits = 32;
  Cycle warmup = 300;
  Cycle measure = 1200;
  std::uint64_t seed = 17;
};

/// Run one open-loop experiment and render everything wavesim.run.v1
/// carries (minus the engine stamp, which intentionally differs): stats,
/// drain/watchdog outcome, final cycle, plus the event fingerprint.
std::string run_digest(const sim::SimConfig& config, std::int32_t shards,
                       unsigned threads = 0, const Traffic& traffic = {}) {
  core::Simulation sim(config);
  if (shards > 0) install_par(sim, shards, threads);
  EventFingerprint fp;
  sim.set_event_sink([&](const core::Event& ev) { fp.feed(ev); });
  load::UniformTraffic pattern(sim.topology());
  load::FixedSize sizes(traffic.flits);
  const auto r = load::run_open_loop(sim, pattern, sizes, traffic.load,
                                     traffic.warmup, traffic.measure,
                                     /*drain_cap=*/300'000, traffic.seed);
  const sim::JsonValue doc =
      sim::JsonValue::object()
          .set("schema", "wavesim.run.v1")
          .set("drained", r.drained)
          .set("watchdog_verdict", verify::to_string(r.watchdog_verdict))
          .set("stalled_for", r.max_stalled)
          .set("stats", harness::stats_to_json(r.stats));
  return doc.dump(2) + "@cycle " + std::to_string(sim.now()) + "@fp " +
         std::to_string(fp.value);
}

TEST(ParallelEngine, RunOutputIdenticalAcrossShardCounts) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  const std::string sequential = run_digest(config, /*shards=*/0);
  for (const std::int32_t shards : {1, 2, 3, 8}) {
    EXPECT_EQ(sequential, run_digest(config, shards))
        << "shards=" << shards << " diverged from the sequential stepper";
  }
}

TEST(ParallelEngine, RunOutputIndependentOfThreadCount) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  const std::string one = run_digest(config, /*shards=*/8, /*threads=*/1);
  EXPECT_EQ(one, run_digest(config, 8, 2));
  EXPECT_EQ(one, run_digest(config, 8, 8));
}

TEST(ParallelEngine, WormholeOnlyIdenticalAcrossShardCounts) {
  sim::SimConfig config = sim::SimConfig::wormhole_baseline();
  const std::string sequential = run_digest(config, 0);
  for (const std::int32_t shards : {2, 3, 8}) {
    EXPECT_EQ(sequential, run_digest(config, shards)) << "shards=" << shards;
  }
}

/// The large torus the engine is sized for: at 8 shards each shard still
/// owns 32 nodes.
sim::SimConfig torus_16x16(sim::ProtocolKind protocol) {
  sim::SimConfig config;
  config.topology.radix = {16, 16};
  config.topology.torus = true;
  config.protocol.protocol = protocol;
  if (protocol == sim::ProtocolKind::kWormholeOnly) {
    config.router.wave_switches = 0;
  }
  config.seed = 9;
  return config;
}

constexpr Traffic kClrp16x16{
    .load = 0.12, .flits = 64, .warmup = 500, .measure = 4000, .seed = 33};

TEST(ParallelEngine, Clrp16x16IdenticalAtTwoFourAndEightShards) {
  const sim::SimConfig config = torus_16x16(sim::ProtocolKind::kClrp);
  const std::string sequential = run_digest(config, 0, 0, kClrp16x16);
  for (const std::int32_t shards : {2, 4, 8}) {
    EXPECT_EQ(sequential, run_digest(config, shards, 0, kClrp16x16))
        << "shards=" << shards;
  }
}

TEST(ParallelEngine, Clrp16x16IdenticalThroughALinkStorm) {
  // 15% of the links fail at cycle 600 and recover 1000 cycles later.
  // Fault work runs in the sequential prologue, so the fault events are
  // part of the stream every shard count must reproduce.
  sim::SimConfig config = torus_16x16(sim::ProtocolKind::kClrp);
  config.faults.storm.at = 600;
  config.faults.storm.fraction = 0.15;
  config.faults.storm.repair_after = 1000;
  const std::string sequential = run_digest(config, 0, 0, kClrp16x16);
  for (const std::int32_t shards : {2, 8}) {
    EXPECT_EQ(sequential, run_digest(config, shards, 0, kClrp16x16))
        << "shards=" << shards;
  }
}

// ------------------------------------------------ sparse and scheduled

/// Like run_digest but without the event sink, so the parallel engine
/// runs exactly the code an unobserved run does.
std::string run_sparse(const sim::SimConfig& config, std::int32_t shards,
                       const Traffic& traffic) {
  core::Simulation sim(config);
  if (shards > 0) install_par(sim, shards);
  load::UniformTraffic pattern(sim.topology());
  load::FixedSize sizes(traffic.flits);
  const auto r = load::run_open_loop(sim, pattern, sizes, traffic.load,
                                     traffic.warmup, traffic.measure,
                                     /*drain_cap=*/300'000, traffic.seed);
  return harness::stats_to_json(r.stats).dump(2) + "@cycle " +
         std::to_string(sim.now());
}

TEST(ParallelEngine, SparseWormholeIdenticalToSequential) {
  // Sparse load and short messages: most nodes are idle on most cycles.
  const struct {
    sim::SimConfig config;
    Traffic traffic;
  } cases[] = {
      {sim::SimConfig::wormhole_baseline(),
       {.load = 0.005, .flits = 16, .warmup = 200, .measure = 1000,
        .seed = 23}},
      {torus_16x16(sim::ProtocolKind::kWormholeOnly),
       {.load = 0.0025, .flits = 16, .warmup = 500, .measure = 4000,
        .seed = 33}},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(run_sparse(c.config, /*shards=*/0, c.traffic),
              run_sparse(c.config, 4, c.traffic))
        << c.config.num_nodes() << " nodes";
  }
}

TEST(ParallelEngine, IdleNodeWakesOnScheduledSendAtTheHorizon) {
  // A quiet 4x4 torus with two far-future scheduled sends: the engine
  // must wake and inject exactly at each scheduled cycle. Node 1 goes
  // idle again mid-run after its message drains, and the second send
  // re-wakes the fabric.
  sim::SimConfig config = sim::SimConfig::wormhole_baseline();
  config.topology.radix = {4, 4};
  auto scenario = [&](std::int32_t shards) {
    core::Simulation sim(config);
    if (shards > 0) install_par(sim, shards);
    core::Network& net = sim.network();
    net.schedule_send(/*src=*/1, /*dest=*/13, /*length=*/32, /*at=*/40);
    net.schedule_send(/*src=*/2, /*dest=*/14, /*length=*/32, /*at=*/120);
    EXPECT_FALSE(net.quiescent()) << "pending scheduled sends must block";
    sim.run(300);
    EXPECT_EQ(sim.stats().messages_delivered, 2u);
    EXPECT_TRUE(net.quiescent());
    return harness::stats_to_json(sim.stats()).dump(2) + "@cycle " +
           std::to_string(sim.now());
  };
  EXPECT_EQ(scenario(0), scenario(4));
}

TEST(ParallelEngine, IdenticalOnSimcheckScenarios) {
  // Three simcheck-generated scenarios (diverse protocol/topology/fault
  // draws) each run under the sequential stepper and under the parallel
  // engine with 4 shards: the digest must never move.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const check::Scenario scenario = check::Scenario::generate(seed);
    const sim::SimConfig& config = scenario.spec.config;
    EXPECT_EQ(run_digest(config, /*shards=*/0),
              run_digest(config, /*shards=*/4))
        << scenario.label() << " (simcheck seed " << seed << ") diverged";
  }
}

TEST(ScheduleSend, ValidatesArgumentsAndBlocksQuiescence) {
  core::Simulation sim(sim::SimConfig::wormhole_baseline());
  core::Network& net = sim.network();
  EXPECT_THROW(net.schedule_send(0, 0, 16, 0), std::invalid_argument);
  EXPECT_THROW(net.schedule_send(0, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW(net.schedule_send(-1, 1, 16, 0), std::invalid_argument);
  sim.run(5);
  EXPECT_THROW(net.schedule_send(0, 1, 16, 2), std::invalid_argument)
      << "scheduling into the past must throw";
  net.schedule_send(0, 1, 16, 10);
  EXPECT_THROW(net.schedule_send(0, 1, 16, 8), std::invalid_argument)
      << "schedule cycles must be non-decreasing";
  EXPECT_FALSE(net.quiescent());
  EXPECT_TRUE(sim.run_until_delivered(10'000));
  EXPECT_TRUE(net.quiescent());
  EXPECT_EQ(sim.stats().messages_delivered, 1u);
}

// ---------------------------------------------- partition-cut protocols

/// 4x4 torus under 4 shards: each shard owns one row, so every column
/// link is a cut edge. Traffic runs strictly along columns, which forces
/// every circuit establishment, transfer, and teardown to cross shard
/// boundaries.
sim::SimConfig cut_config(sim::ClrpVariant variant, std::int32_t k,
                          std::int32_t cache_entries) {
  sim::SimConfig config;
  config.topology.radix = {4, 4};
  config.topology.torus = true;
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  config.protocol.clrp_variant = variant;
  config.router.wave_switches = k;
  config.protocol.circuit_cache_entries = cache_entries;
  config.seed = 41;
  return config;
}

struct CutOutcome {
  std::string digest;
  core::SimulationStats stats;
};

CutOutcome run_cross_cut(const sim::SimConfig& config, std::int32_t shards) {
  core::Simulation sim(config);
  if (shards > 0) install_par(sim, shards);
  EventFingerprint fp;
  sim.set_event_sink([&](const core::Event& ev) { fp.feed(ev); });
  const std::int32_t nodes = sim.topology().num_nodes();
  // Row-major 4x4: node = row * 4 + col. Sources and destinations sit in
  // different rows (= different shards); a tiny cache and repeated
  // re-sends force evictions, hence cross-cut teardowns too.
  sim::Rng rng(7);
  for (int round = 0; round < 24; ++round) {
    for (std::int32_t col = 0; col < 4; ++col) {
      const NodeId src = static_cast<NodeId>(
          (round % 4) * 4 + col);                 // row = round % 4
      const std::int32_t hop =
          1 + static_cast<std::int32_t>(rng.next_below(3));
      const NodeId dest = static_cast<NodeId>((src + 4 * hop) % nodes);
      sim.send(src, dest, 24);
    }
    if (!sim.run_until_delivered(200'000)) break;
  }
  CutOutcome out;
  out.stats = sim.stats();
  const auto check = verify::check_delivery(sim.network());
  out.digest = harness::stats_to_json(out.stats).dump(2) + "@cycle " +
               std::to_string(sim.now()) + "@fp " +
               std::to_string(fp.value) + "@" +
               (check.ok() ? "ok" : check.summary());
  return out;
}

TEST(ParallelEngine, ForceFirstCircuitsAcrossPartitionCuts) {
  // CLRP with Force set on the first probe (Force=1): establishment and
  // teardown both run while shards step concurrently, and every circuit
  // crosses at least one cut.
  const sim::SimConfig config =
      cut_config(sim::ClrpVariant::kForceFirst, /*k=*/2, /*cache=*/2);
  const CutOutcome sequential = run_cross_cut(config, 0);
  const CutOutcome par = run_cross_cut(config, 4);
  EXPECT_EQ(sequential.digest, par.digest);
  // The scenario must actually exercise the cross-cut circuit machinery.
  EXPECT_GT(par.stats.probes_launched, 0u);
  EXPECT_GT(par.stats.messages_delivered, 0u);
  EXPECT_GT(par.stats.teardowns, 0u);
}

TEST(ParallelEngine, CacheCapacityOneCornerUnderFourShards) {
  // k=1 and a single cache entry per node: every new destination evicts
  // the previous circuit mid-traffic, the paper's tightest cache corner.
  const sim::SimConfig config =
      cut_config(sim::ClrpVariant::kFull, /*k=*/1, /*cache=*/1);
  const CutOutcome sequential = run_cross_cut(config, 0);
  const CutOutcome par = run_cross_cut(config, 4);
  EXPECT_EQ(sequential.digest, par.digest);
  EXPECT_GT(par.stats.cache_evictions, 0u);
}

// ----------------------------------------------------------- sweep seam

TEST(Sweep, EngineChoiceDoesNotChangeMergedResults) {
  harness::SweepPoint point;
  point.label = "engine-equivalence";
  point.spec.config.protocol.protocol = sim::ProtocolKind::kClrp;
  point.spec.pattern = "uniform";
  point.spec.message_flits = 32;
  point.spec.offered_load = 0.08;
  point.spec.warmup = 200;
  point.spec.measure = 800;
  point.spec.drain_cap = 100'000;

  harness::SweepOptions seq_options;
  seq_options.base_seed = 5;
  seq_options.replicas = 3;
  seq_options.threads = 1;
  harness::SweepOptions par_options = seq_options;
  par_options.engine.kind = EngineKind::kPar;
  par_options.engine.shards = 4;

  const harness::SweepResult seq = harness::run_sweep({point}, seq_options);
  const harness::SweepResult par = harness::run_sweep({point}, par_options);
  // The deterministic part of the export (per-point merged statistics)
  // must match byte-for-byte; only the engine stamp may differ.
  EXPECT_EQ(harness::points_to_json(seq).dump(2),
            harness::points_to_json(par).dump(2));
  EXPECT_EQ(harness::to_json(seq).at("engine").dump(),
            seq_options.engine.to_json().dump());
  EXPECT_EQ(harness::to_json(par).at("engine").dump(),
            par_options.engine.to_json().dump());
}

}  // namespace
}  // namespace wavesim::engine
