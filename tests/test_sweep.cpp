// Tests for the parallel sweep harness (src/harness/): deterministic
// seeding, thread-count-independent merged statistics, the JSON writer's
// round-trip behaviour, OnlineStats::merge edge cases, and the thread
// pool itself. Distinct from test_sweeps.cpp, which covers the analytic
// parameter sweeps of the model.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "engine/pool.hpp"
#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "sim/json.hpp"
#include "sim/stats.hpp"
#include "snap/runstate.hpp"

namespace wavesim {
namespace {

// ------------------------------------------------------------ derive_seed

TEST(DeriveSeed, StableAcrossCalls) {
  // The seed derivation is part of the export contract: results are only
  // reproducible across releases if these exact values never change.
  EXPECT_EQ(harness::derive_seed(1, 0, 0), harness::derive_seed(1, 0, 0));
  const std::uint64_t pinned = harness::derive_seed(1, 0, 0);
  EXPECT_NE(pinned, 0u);
}

TEST(DeriveSeed, DistinctPerTask) {
  std::set<std::uint64_t> seeds;
  for (std::size_t point = 0; point < 16; ++point) {
    for (std::int32_t replica = 0; replica < 16; ++replica) {
      seeds.insert(harness::derive_seed(42, point, replica));
    }
  }
  EXPECT_EQ(seeds.size(), 16u * 16u);
}

TEST(DeriveSeed, BaseSeedChangesEverything) {
  EXPECT_NE(harness::derive_seed(1, 3, 2), harness::derive_seed(2, 3, 2));
}

// ------------------------------------------------------------- ThreadPool

TEST(Runner, RunIndexedCoversAllIndices) {
  constexpr std::size_t kN = 97;
  std::vector<std::atomic<int>> hits(kN);
  harness::run_indexed(
      kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      4);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Runner, ZeroTasksIsANoOp) {
  harness::run_indexed(0, [](std::size_t) { FAIL(); }, 4);
}

TEST(Runner, ExceptionsPropagate) {
  EXPECT_THROW(
      harness::run_indexed(
          8,
          [](std::size_t i) {
            if (i == 5) throw std::runtime_error("task 5 failed");
          },
          3),
      std::runtime_error);
}

TEST(Runner, ResolveThreadsNeverZero) {
  EXPECT_GE(engine::resolve_engine_threads(0), 1u);
  EXPECT_EQ(engine::resolve_engine_threads(3), 3u);
}

// ---------------------------------------------------- OnlineStats::merge

TEST(OnlineStatsMerge, EmptyPlusEmpty) {
  sim::OnlineStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
}

TEST(OnlineStatsMerge, EmptyAbsorbsNonEmpty) {
  sim::OnlineStats a, b;
  b.add(2.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(OnlineStatsMerge, NonEmptyAbsorbsEmpty) {
  sim::OnlineStats a, b;
  a.add(7.0);
  const double before_mean = a.mean();
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), before_mean);
}

TEST(OnlineStatsMerge, MergeMatchesSequentialAdds) {
  const std::vector<double> values{1.5, -2.0, 8.25, 0.0, 3.125, 9.75, -4.5};
  sim::OnlineStats sequential;
  for (double v : values) sequential.add(v);

  sim::OnlineStats left, right, merged;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < 3 ? left : right).add(values[i]);
  }
  merged.merge(left);
  merged.merge(right);

  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_DOUBLE_EQ(merged.mean(), sequential.mean());
  EXPECT_NEAR(merged.stddev(), sequential.stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(merged.min(), sequential.min());
  EXPECT_DOUBLE_EQ(merged.max(), sequential.max());
}

// -------------------------------------------------------------- run_sweep

std::vector<harness::SweepPoint> tiny_points() {
  std::vector<harness::SweepPoint> points;
  for (const double load : {0.05, 0.12}) {
    harness::SweepPoint p;
    p.label = "clrp@" + std::to_string(load);
    p.spec.config.topology.radix = {4, 4};
    p.spec.offered_load = load;
    p.spec.warmup = 200;
    p.spec.measure = 600;
    p.spec.drain_cap = 60'000;
    points.push_back(std::move(p));
  }
  return points;
}

TEST(RunSweep, MergedStatsIndependentOfThreadCount) {
  harness::SweepOptions serial;
  serial.base_seed = 7;
  serial.replicas = 3;
  serial.threads = 1;
  harness::SweepOptions parallel = serial;
  parallel.threads = 4;

  const auto points = tiny_points();
  const auto a = harness::run_sweep(points, serial);
  const auto b = harness::run_sweep(points, parallel);

  // Byte-for-byte: the deterministic part of the export must not depend
  // on how many workers executed the tasks.
  EXPECT_EQ(harness::points_to_json(a).dump(),
            harness::points_to_json(b).dump());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].counters.messages_delivered,
              b.points[i].counters.messages_delivered);
    EXPECT_EQ(a.points[i].metric("latency_mean").mean(),
              b.points[i].metric("latency_mean").mean());
    EXPECT_EQ(a.points[i].metric("throughput_flits_per_node_cycle").stddev(),
              b.points[i].metric("throughput_flits_per_node_cycle").stddev());
  }
}

TEST(RunSweep, ReplicasActuallyDiffer) {
  // Distinct derived seeds must yield distinct measurements — otherwise
  // the replica stddev is meaninglessly zero.
  auto points = tiny_points();
  points.resize(1);
  harness::SweepOptions options;
  options.replicas = 4;
  options.threads = 1;
  const auto result = harness::run_sweep(points, options);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_GT(result.points[0].metric("latency_mean").stddev(), 0.0);
  EXPECT_EQ(result.points[0].replicas, 4);
  EXPECT_EQ(result.runs, 4u);
}

TEST(RunSweep, RejectsInvalidConfig) {
  auto points = tiny_points();
  points[0].spec.config.topology.radix = {};  // invalid: no dimensions
  EXPECT_THROW(harness::run_sweep(points, {}), std::invalid_argument);
}

// Replica r of a point is the run every front end gives for the point's
// spec at seed derive_seed(base, point, r): the sweep adds no seeding or
// set-up of its own.
TEST(RunSweep, ReplicaIsTheCheckpointableRunOfItsDerivedSeed) {
  auto points = tiny_points();
  points.resize(1);
  harness::SweepOptions options;
  options.base_seed = 7;
  options.replicas = 3;
  options.threads = 2;
  const harness::PointSummary p =
      harness::run_sweep(points, options).points.at(0);

  std::vector<core::SimulationStats> runs;
  for (std::int32_t r = 0; r < options.replicas; ++r) {
    snap::RunSpec spec = points[0].spec;
    spec.seed = harness::derive_seed(options.base_seed, 0, r);
    spec.config.seed = spec.seed;  // the front ends' rule
    snap::CheckpointableRun run(spec);
    while (!run.done()) run.advance(std::numeric_limits<Cycle>::max());
    runs.push_back(run.result().stats);
  }
  ASSERT_NE(runs[0].latency_mean, runs[1].latency_mean);
  using Stats = core::SimulationStats;
  for (const harness::StatsField& f : harness::stats_fields()) {
    if (const auto* m = std::get_if<std::uint64_t Stats::*>(&f.member)) {
      std::uint64_t sum = 0;
      for (const Stats& s : runs) sum += s.*(*m);
      EXPECT_EQ(p.counters.*(*m), sum) << f.key;
      continue;
    }
    sim::OnlineStats expected;
    for (const Stats& s : runs) {
      expected.add(s.*std::get<double Stats::*>(f.member));
    }
    const sim::OnlineStats& got = p.metric(f.key);
    EXPECT_EQ(got.count(), expected.count()) << f.key;
    EXPECT_EQ(got.mean(), expected.mean()) << f.key;
    EXPECT_EQ(got.stddev(), expected.stddev()) << f.key;
    EXPECT_EQ(got.min(), expected.min()) << f.key;
    EXPECT_EQ(got.max(), expected.max()) << f.key;
  }
}

// ------------------------------------------------------------------ JSON

TEST(Json, SweepExportRoundTrips) {
  auto points = tiny_points();
  points.resize(1);
  harness::SweepOptions options;
  options.base_seed = 3;
  options.replicas = 2;
  options.threads = 2;
  const auto result = harness::run_sweep(points, options);

  const sim::JsonValue doc = harness::to_json(result);
  const std::string text = doc.dump(2);
  const sim::JsonValue parsed = sim::JsonValue::parse(text);

  EXPECT_EQ(parsed.at("schema").as_string(), "wavesim.sweep.v1");
  EXPECT_EQ(parsed.at("base_seed").as_int(), 3);
  EXPECT_EQ(parsed.at("replicas").as_int(), 2);
  const sim::JsonValue& pts = parsed.at("points");
  ASSERT_EQ(pts.size(), 1u);
  const sim::JsonValue& p0 = pts.at(0);
  EXPECT_EQ(p0.at("label").as_string(), result.points[0].label);
  EXPECT_EQ(static_cast<std::uint64_t>(
                p0.at("counters").at("messages_delivered").as_int()),
            result.points[0].counters.messages_delivered);
  // Metric doubles survive the dump->parse cycle exactly (printed with
  // enough digits to round-trip).
  EXPECT_DOUBLE_EQ(
      p0.at("metrics").at("latency_mean").at("mean").as_number(),
      result.points[0].metric("latency_mean").mean());
}

TEST(Json, ParserHandlesEscapesAndNesting) {
  const sim::JsonValue v = sim::JsonValue::parse(
      R"({"a": [1, 2.5, true, false, null], "s": "line\nbreak A", )"
      R"("nested": {"deep": [{"x": -3}]}})");
  EXPECT_EQ(v.at("a").size(), 5u);
  EXPECT_EQ(v.at("a").at(0).as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("a").at(1).as_number(), 2.5);
  EXPECT_EQ(v.at("s").as_string(), "line\nbreak A");
  EXPECT_EQ(v.at("nested").at("deep").at(0).at("x").as_int(), -3);
}

TEST(Json, DumpIsStableAndReparsable) {
  sim::JsonValue doc = sim::JsonValue::object()
                           .set("z_first", 1)
                           .set("a_second", "two")
                           .set("list", sim::JsonValue::array());
  const std::string once = doc.dump();
  // Insertion order is preserved (stable diffs), and dump(parse(dump))
  // is a fixpoint.
  EXPECT_LT(once.find("z_first"), once.find("a_second"));
  EXPECT_EQ(sim::JsonValue::parse(once).dump(), once);
}

}  // namespace
}  // namespace wavesim
