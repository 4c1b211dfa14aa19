// Tests for the simcheck property harness itself: scenario generation is
// deterministic and always-valid, repro files round-trip exactly and carry
// a job.v1 run spec, the
// oracle stack is reproducible, and the shrinker minimizes while
// preserving the violation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "check/oracle.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "check/simcheck.hpp"
#include "harness/sweep.hpp"
#include "service/proto.hpp"
#include "sim/json.hpp"
#include "snap/runstate.hpp"

namespace wavesim::check {
namespace {

TEST(HexU64, RoundTripsEdgeValues) {
  for (const std::uint64_t v :
       {0ull, 1ull, 0xdeadbeefull, ~0ull, 0x8000000000000000ull}) {
    std::uint64_t back = 1234;
    ASSERT_TRUE(parse_hex_u64(to_hex_u64(v), back)) << to_hex_u64(v);
    EXPECT_EQ(back, v);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(parse_hex_u64("", out));
  EXPECT_FALSE(parse_hex_u64("42", out));          // missing 0x
  EXPECT_FALSE(parse_hex_u64("0x", out));          // no digits
  EXPECT_FALSE(parse_hex_u64("0xg1", out));        // bad digit
  EXPECT_FALSE(parse_hex_u64("0x11223344556677889", out));  // > 16 digits
}

TEST(Scenario, GenerationIsDeterministic) {
  for (std::uint64_t seed : {1ull, 42ull, 0xabcdefull}) {
    EXPECT_EQ(Scenario::generate(seed), Scenario::generate(seed));
  }
  // The seed is the identity: different seeds explore different scenarios.
  EXPECT_FALSE(Scenario::generate(1) == Scenario::generate(2));
}

TEST(Scenario, GeneratedScenariosAlwaysValidateAndRepairIsIdempotent) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const Scenario s =
        Scenario::generate(harness::derive_seed(7, seed, 0));
    EXPECT_NO_THROW(snap::validate(s.spec)) << s.label();
    EXPECT_EQ(s.spec.config.seed, s.spec.seed) << s.label();
    EXPECT_EQ(s.spec.warmup, 0u) << s.label();
    Scenario again = s;
    again.repair();
    EXPECT_EQ(again, s) << "repair not idempotent for " << s.label();
  }
}

TEST(Scenario, RepairResolvesCrossFieldConstraints) {
  Scenario s;
  sim::SimConfig& c = s.spec.config;
  c.topology.radix = {5, 5, 5};  // 125 nodes: over the size cap
  c.router.routing = sim::RoutingKind::kWestFirst;  // needs a 2-D mesh
  c.topology.torus = true;
  c.router.wormhole_vcs = 0;
  s.spec.pattern = "bit-reversal";  // needs power-of-two node count
  s.spec.warmup = 500;
  s.repair();
  EXPECT_NO_THROW(snap::validate(s.spec)) << s.label();
  EXPECT_EQ(s.spec.warmup, 0u);
}

/// Scenarios the repro round trip covers: generated ones, and the same
/// ones with a storm forced on (simcheck --faulty).
std::vector<Scenario> round_trip_scenarios() {
  std::vector<Scenario> out;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Scenario s = Scenario::generate(harness::derive_seed(11, seed, 0));
    out.push_back(s);
    s.ensure_storm();
    out.push_back(s);
  }
  return out;
}

/// A repro document carrying `s` as both its scenarios.
sim::JsonValue repro_of(const Scenario& s) {
  Failure failure;
  failure.original = s;
  failure.shrunk = s;
  return repro_to_json(failure);
}

/// The error repro_from_json raises for `doc`, or "" if it parses.
std::string repro_error(const sim::JsonValue& doc) {
  try {
    repro_from_json(doc);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Scenario, JsonRoundTripIsExact) {
  for (const Scenario& s : round_trip_scenarios()) {
    // Through text, as a real repro file would travel.
    const sim::JsonValue doc = sim::JsonValue::parse(repro_of(s).dump(2));
    const Failure back = repro_from_json(doc);
    EXPECT_EQ(back.shrunk, s) << s.label();
    EXPECT_EQ(back.original, s) << s.label();
    // The "spec" member is a plain job.v1 run spec: wavesimd accepts it
    // as it stands.
    const sim::JsonValue& spec = doc.at("scenario").at("spec");
    EXPECT_EQ(spec.find("seed"), nullptr);
    snap::RunSpec run;
    ASSERT_NO_THROW(run = service::runspec_from_json(spec)) << spec.dump();
    run.seed = s.spec.seed;
    run.config.seed = s.spec.seed;
    EXPECT_EQ(run, s.spec) << s.label();
  }
}

/// `doc` with member `key` of its scenario set to `value`.
sim::JsonValue with_scenario_member(sim::JsonValue doc, const char* key,
                                    sim::JsonValue value) {
  sim::JsonValue scenario = doc.at("scenario");
  scenario.set(key, std::move(value));
  doc.set("scenario", std::move(scenario));
  return doc;
}

/// `doc` with member `key` of its scenario's "spec" set to `value`.
sim::JsonValue with_spec_member(const sim::JsonValue& doc, const char* key,
                                sim::JsonValue value) {
  sim::JsonValue spec = doc.at("scenario").at("spec");
  spec.set(key, std::move(value));
  return with_scenario_member(doc, "spec", std::move(spec));
}

TEST(Scenario, FromJsonRejectsCorruptDocuments) {
  Scenario stormy = Scenario::generate(3);
  stormy.ensure_storm();
  const sim::JsonValue good = repro_of(stormy);
  EXPECT_EQ(repro_error(good), "");

  // Each case must be refused with the offending field named.
  sim::JsonValue missing = good;
  sim::JsonValue no_shards = sim::JsonValue::object();
  for (const auto& [key, value] : good.at("scenario").members()) {
    if (key != "engine_shards") no_shards.set(key, value);
  }
  missing.set("scenario", no_shards);
  const std::vector<std::pair<sim::JsonValue, const char*>> cases = {
      {with_scenario_member(good, "inject_cycles", 128), "inject_cycles"},
      {missing, "engine_shards"},
      {with_scenario_member(good, "seed", "12345"), "seed"},  // not 0x-hex
      // Size fields are spec keys, not scenario members.
      {with_scenario_member(good, "size_dist", "fixed"), "size_dist"},
      {with_spec_member(good, "sizes", 3), "sizes"},
      {with_spec_member(good, "sizes", "zipf"), "sizes"},
      // The hex seed is the only seed: job.v1's is capped at 2^53.
      {with_spec_member(good, "seed", 7), "spec.seed"},
      {with_spec_member(good, "routing", "shortest-path-first"), "routing"},
      {with_spec_member(good, "wormhole_vcs", 2), "wormhole_vcs"},
      {with_spec_member(good, "protocol", nullptr), "protocol"},
      {with_spec_member(good, "variant", "half"), "variant"},
      // Integers are read whole and within their field's type (job.v1's
      // rule): never truncated, wrapped or cast from an out-of-range
      // double.
      {with_spec_member(good, "k", 2.5), "k"},
      {with_spec_member(good, "k", 3e9), "k"},
      {with_spec_member(good, "measure", -5.0), "measure"},
      {with_spec_member(good, "storm_at", -1.0), "storm_at"},
      {with_spec_member(good, "drain_cap", 1e300), "drain_cap"},
      {with_spec_member(good, "topo", "4.5"), "topo"},
      {with_scenario_member(good, "engine_shards", 1e300), "engine_shards"},
      {with_spec_member(good, "max_flits", 2.5), "max_flits"},
      {with_scenario_member(good, "spec", 1.0), "spec"},
  };
  for (const auto& [doc, field] : cases) {
    const std::string err = repro_error(doc);
    EXPECT_NE(err.find(std::string("'") + field + "'"), std::string::npos)
        << field << ": " << (err.empty() ? "accepted" : err);
  }
}

TEST(Scenario, RepairCanonicalizesStormFields) {
  // Wormhole-only and pcs-only configurations cannot carry a dynamic
  // storm (no circuit planes to fail / no fallback): repair zeroes it.
  Scenario s = Scenario::generate(4);
  s.spec.config.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
  s.spec.config.faults.storm = {500, 0.3, 100};
  s.repair();
  EXPECT_EQ(s.spec.config.faults.storm, sim::FaultStorm{});

  Scenario p = Scenario::generate(4);
  p.spec.config.protocol.protocol = sim::ProtocolKind::kClrp;
  p.spec.config.protocol.pcs_only = true;
  p.spec.config.faults.storm.fraction = 0.3;
  p.repair();
  EXPECT_EQ(p.spec.config.faults.storm.fraction, 0.0);

  // An active storm lands inside the injection window.
  Scenario a = Scenario::generate(4);
  a.spec.config.protocol.protocol = sim::ProtocolKind::kClrp;
  a.spec.config.protocol.pcs_only = false;
  a.spec.config.faults.storm.fraction = 0.2;
  a.spec.config.faults.storm.at = 1'000'000;
  a.repair();
  const sim::FaultStorm& storm = a.spec.config.faults.storm;
  EXPECT_GT(storm.fraction, 0.0);
  EXPECT_LE(storm.at, a.spec.measure);
  EXPECT_GE(storm.at, 1u);
  EXPECT_NO_THROW(snap::validate(a.spec)) << a.label();
  EXPECT_TRUE(a.spec.config.faults.dynamic());
}

TEST(Scenario, GenerationDrawsStormsAndEnsureStormForcesOne) {
  std::size_t with_storm = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Scenario s = Scenario::generate(harness::derive_seed(13, seed, 0));
    if (s.spec.config.faults.storm.fraction > 0.0) ++with_storm;
    Scenario forced = s;
    forced.ensure_storm();
    EXPECT_GT(forced.spec.config.faults.storm.fraction, 0.0) << s.label();
    EXPECT_NO_THROW(snap::validate(forced.spec)) << forced.label();
    // ensure_storm is deterministic and stable under re-application.
    Scenario again = s;
    again.ensure_storm();
    EXPECT_EQ(again, forced);
    again.ensure_storm();
    EXPECT_EQ(again, forced);
  }
  // Roughly a third of generated scenarios carry a storm; the exact count
  // is pinned by the seeds, the band just guards the draw probability.
  EXPECT_GT(with_storm, 20u);
  EXPECT_LT(with_storm, 140u);
}

Scenario small_scenario() {
  Scenario s = Scenario::generate(5);
  s.spec.config.topology.radix = {4, 4};
  s.spec.measure = 256;
  s.repair();
  return s;
}

TEST(Oracle, RunIsBitIdenticallyReproducible) {
  const Scenario s = small_scenario();
  const RunOutcome a = run_scenario(s);
  const RunOutcome b = run_scenario(s);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.final_cycle, b.final_cycle);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_TRUE(a.ok()) << a.summary();
}

TEST(Oracle, FlagsInvalidConfigInsteadOfThrowing) {
  Scenario s;  // deliberately NOT repaired:
  sim::SimConfig& c = s.spec.config;
  c.topology.radix = {4, 4};
  c.topology.torus = true;
  c.router.routing = sim::RoutingKind::kDimensionOrder;
  c.router.wormhole_vcs = 1;  // torus DOR needs >= 2 VCs
  const RunOutcome out = run_scenario(s);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.violations.front().find("config invalid"), std::string::npos);
}

/// A scenario that always fails the oracle on a healthy build: the traffic
/// pattern name is unknown, so workload construction is rejected. Because
/// repair() leaves unknown names alone, the shrinker can minimize every
/// other knob while the violation persists. A repro file cannot carry it:
/// decoding runs snap::validate, which refuses the pattern.
Scenario always_failing_scenario() {
  Scenario s = Scenario::generate(9);
  s.spec.pattern = "bogus-pattern";
  return s;
}

TEST(Shrink, MinimizesWhilePreservingTheViolation) {
  const Scenario original = always_failing_scenario();
  const RunOutcome outcome = run_scenario(original);
  ASSERT_FALSE(outcome.ok());

  const ShrinkResult result = shrink(original, outcome);
  EXPECT_FALSE(result.outcome.ok());
  EXPECT_GT(result.runs, 0u);
  EXPECT_GT(result.accepted, 0u);
  // Floor values reached by the transformation chain.
  EXPECT_EQ(result.scenario.spec.measure, 128u);
  EXPECT_EQ(result.scenario.spec.config.topology.radix.size(), 1u);
  EXPECT_EQ(result.scenario.spec.pattern, "bogus-pattern");
  // Shrinking is deterministic.
  const ShrinkResult again = shrink(original, outcome);
  EXPECT_EQ(again.scenario, result.scenario);
  EXPECT_EQ(again.runs, result.runs);
}

// Termination: whenever a transform changes a repaired scenario, it
// strictly lowers the component it names and the measure as a whole, so
// the shrinker never discards a simplification and always reaches a
// fixpoint.
TEST(Shrink, EveryTransformStrictlyLowersTheMeasure) {
  std::size_t changed = 0;
  for (Scenario s : round_trip_scenarios()) {
    for (const ShrinkTransform& t : shrink_transforms()) {
      Scenario candidate = s;
      t.apply(candidate, candidate.spec.config);
      candidate.repair();
      if (candidate == s) continue;
      ++changed;
      const ShrinkMeasure before = shrink_measure(s);
      const ShrinkMeasure after = shrink_measure(candidate);
      EXPECT_LT(after[t.lowers], before[t.lowers])
          << "component " << t.lowers << " on " << s.label();
      EXPECT_TRUE(after < before)
          << "component " << t.lowers << " on " << s.label();
    }
  }
  EXPECT_GT(changed, 1000u);
}

// The storm shrinks in whole failed links, so a failure that needs any
// storm at all settles on a one-link storm instead of halving a fraction
// forever.
TEST(Shrink, StormHalvesWholeLinksDownToOne) {
  Scenario s = Scenario::generate(3);
  s.spec.config.topology = {{4, 4}, true};  // 32 links
  s.repair();
  s.ensure_storm();
  // The last kStormLinks transform halves; the first drops the storm.
  const std::vector<ShrinkTransform>& all = shrink_transforms();
  const ShrinkTransform& halve = *std::find_if(
      all.rbegin(), all.rend(),
      [](const ShrinkTransform& t) { return t.lowers == kStormLinks; });
  std::size_t steps = 0;
  for (Scenario next = s;; ++steps) {
    halve.apply(next, next.spec.config);
    next.repair();
    if (next == s) break;
    EXPECT_EQ(shrink_measure(next)[kStormLinks],
              std::floor(shrink_measure(s)[kStormLinks] / 2));
    s = next;
  }
  EXPECT_EQ(shrink_measure(s)[kStormLinks], 1.0);
  EXPECT_GT(steps, 0u);
  EXPECT_LT(steps, 8u);
}

TEST(Simcheck, CleanRunOnHealthyBuild) {
  SimcheckOptions options;
  options.base_seed = 1;
  options.count = 25;
  const Report report = run_simcheck(options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.scenarios_run, 25u);
}

TEST(Simcheck, ReportIsIndependentOfThreadCount) {
  for (const unsigned threads : {1u, 4u}) {
    SimcheckOptions options;
    options.base_seed = 77;
    options.count = 12;
    options.threads = threads;
    const Report report = run_simcheck(options);
    EXPECT_EQ(report.scenarios_run, 12u);
    EXPECT_TRUE(report.ok());
  }
}

/// A failure record over valid scenarios (a repro file must decode, so
/// it cannot carry always_failing_scenario), with a made-up outcome.
Failure sample_failure() {
  Failure failure;
  failure.index = 3;
  failure.original = Scenario::generate(21);
  failure.original.ensure_storm();
  failure.shrunk = small_scenario();
  failure.original_outcome.violations = {"deadlock: no progress", "fsck: x"};
  failure.original_outcome.offered = 40;
  failure.original_outcome.delivered = 39;
  failure.original_outcome.final_cycle = 12'345;
  failure.original_outcome.fingerprint = 0xfedcba9876543210ULL;
  failure.shrunk_outcome = failure.original_outcome;
  failure.shrunk_outcome.saturated = true;
  failure.shrink_runs = 17;
  failure.shrink_accepted = 4;
  return failure;
}

TEST(Repro, JsonRoundTripsThroughTextExactly) {
  const Failure failure = sample_failure();
  const std::string text = repro_to_json(failure).dump(2);
  const Failure back = repro_from_json(sim::JsonValue::parse(text));
  EXPECT_EQ(back.shrunk, failure.shrunk);
  EXPECT_EQ(back.original, failure.original);
  for (const auto& [got, want] :
       {std::pair{&back.shrunk_outcome, &failure.shrunk_outcome},
        std::pair{&back.original_outcome, &failure.original_outcome}}) {
    EXPECT_EQ(got->fingerprint, want->fingerprint);
    EXPECT_EQ(got->violations, want->violations);
    EXPECT_EQ(got->saturated, want->saturated);
    EXPECT_EQ(got->offered, want->offered);
    EXPECT_EQ(got->delivered, want->delivered);
    EXPECT_EQ(got->final_cycle, want->final_cycle);
  }
  EXPECT_EQ(back.shrink_runs, failure.shrink_runs);
  EXPECT_EQ(back.shrink_accepted, failure.shrink_accepted);
}

TEST(Repro, RejectsWrongSchemaAndMissingPieces) {
  EXPECT_THROW(repro_from_json(sim::JsonValue::parse("{}")),
               std::runtime_error);
  EXPECT_THROW(
      repro_from_json(sim::JsonValue::parse("{\"schema\": \"other.v9\"}")),
      std::runtime_error);
  sim::JsonValue no_scenario = sim::JsonValue::object();
  no_scenario.set("schema", "wavesim.repro.v3");
  EXPECT_THROW(repro_from_json(no_scenario), std::runtime_error);

  const sim::JsonValue good = repro_to_json(sample_failure());
  ASSERT_EQ(repro_error(good), "");
  // Older files are refused by name: version 1's run fields are not
  // job.v1 keys, and version 2 ran an injection loop simcheck no longer
  // has.
  for (const char* old : {"wavesim.repro.v1", "wavesim.repro.v2"}) {
    sim::JsonValue doc = good;
    doc.set("schema", old);
    EXPECT_NE(repro_error(doc).find(old), std::string::npos)
        << repro_error(doc);
  }
  sim::JsonValue unknown = good;
  unknown.set("shrunk_runs", 3);
  EXPECT_NE(repro_error(unknown).find("'shrunk_runs'"), std::string::npos)
      << repro_error(unknown);

  // Counters are read whole and in range: never truncated, wrapped or
  // cast from an out-of-range double.
  for (const double number : {-1.0, 2.5, 1e300}) {
    for (const char* key : {"shrink_runs", "shrink_accepted"}) {
      sim::JsonValue doc = good;
      doc.set(key, number);
      EXPECT_NE(repro_error(doc).find(key), std::string::npos)
          << key << " = " << number;
    }
    for (const char* key : {"offered", "delivered", "final_cycle"}) {
      for (const char* outcome : {"outcome", "original_outcome"}) {
        sim::JsonValue inner = good.at(outcome);
        inner.set(key, number);
        sim::JsonValue doc = good;
        doc.set(outcome, std::move(inner));
        EXPECT_NE(repro_error(doc).find(key), std::string::npos)
            << outcome << "." << key << " = " << number;
      }
    }
  }
}

TEST(Repro, WriteAndLoadFile) {
  Failure failure = sample_failure();
  failure.shrunk = failure.original;
  failure.shrunk_outcome = run_scenario(failure.shrunk);

  const char* dir = std::getenv("TMPDIR");
  const std::string path =
      write_repro(failure, dir != nullptr ? dir : "/tmp");
  ASSERT_FALSE(path.empty());
  const Failure back = load_repro(path);
  EXPECT_EQ(back.shrunk, failure.shrunk);
  std::remove(path.c_str());

  EXPECT_THROW(load_repro("/nonexistent/repro.json"), std::runtime_error);
  EXPECT_EQ(write_repro(failure, "/nonexistent-dir"), "");
}

}  // namespace
}  // namespace wavesim::check
