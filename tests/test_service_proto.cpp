// wavesim.job.v1 run-spec parsing: bad values must come back as an error
// naming the field (the daemon turns it into an error reply), never as a
// job that runs with a wrapped or defaulted value.
#include "service/proto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "snap/archive.hpp"

namespace wavesim::service {
namespace {

using snap::format_radices;
using snap::parse_radices;
using snap::run_fields;
using snap::RunField;
using snap::runspec_from_args;

snap::RunSpec parse(const std::string& text) {
  return runspec_from_json(sim::JsonValue::parse(text));
}

/// The error runspec_from_json raises for `text`, or "" if it parses.
std::string error_of(const std::string& text) {
  try {
    parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ServiceProto, NegativeCycleCountsAreRejectedByName) {
  for (const char* key : {"warmup", "measure", "drain_cap"}) {
    const std::string err =
        error_of(std::string("{\"") + key + "\": -1}");
    EXPECT_NE(err.find(std::string("spec field '") + key + "'"),
              std::string::npos)
        << key << ": " << err;
  }
  const std::string err =
      error_of(R"({"storm_at": 100, "storm_repair_after": -5})");
  EXPECT_NE(err.find("spec field 'storm_repair_after'"), std::string::npos)
      << err;
}

TEST(ServiceProto, FractionalAndOutOfRangeIntegersAreRejectedByName) {
  // Each of these used to be truncated toward zero or wrapped to 32 bits.
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"k", "2.5"},          {"length", "64.9"},
      {"warmup", "100.5"},   {"seed", "1.5"},
      {"m", "-0.5"},         {"vcs", "4294967298"},
      {"cache", "4294967304"}};
  for (const auto& [key, number] : cases) {
    const std::string err =
        error_of(std::string("{\"") + key + "\": " + number + "}");
    EXPECT_NE(err.find(std::string("spec field '") + key + "'"),
              std::string::npos)
        << key << " = " << number << ": " << err;
  }
  for (const char* key :
       {"vcs", "k", "m", "cache", "max_packet", "length", "warmup", "measure",
        "drain_cap", "seed", "storm_at", "storm_repair_after"}) {
    for (const char* number : {"2.5", "1e300", "-1e300"}) {
      const std::string prefix =
          std::string(key) == "storm_repair_after" ? "\"storm_at\": 9, " : "";
      const std::string err = error_of("{" + prefix + "\"" + key + "\": " +
                                       number + "}");
      EXPECT_NE(err.find(std::string("spec field '") + key + "'"),
                std::string::npos)
          << key << " = " << number << ": " << err;
    }
  }
  // Unsigned fields take no sign; 32-bit ones stop at their type's edge.
  EXPECT_NE(error_of(R"({"seed": -1})").find("'seed'"), std::string::npos);
  EXPECT_NE(error_of(R"({"storm_at": -1})").find("'storm_at'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"length": 2147483648})").find("'length'"),
            std::string::npos);
  EXPECT_EQ(parse(R"({"seed": 9007199254740992})").seed,
            9007199254740992u);
  EXPECT_EQ(parse(R"({"length": 2147483647})").message_flits, 2147483647);
  EXPECT_EQ(parse(R"({"k": 3.0})").config.router.wave_switches, 3);
}

TEST(ServiceProto, ZeroAndPositiveCycleCountsParse) {
  const snap::RunSpec spec =
      parse(R"({"warmup": 0, "measure": 500, "drain_cap": 7})");
  EXPECT_EQ(spec.warmup, 0u);
  EXPECT_EQ(spec.measure, 500u);
  EXPECT_EQ(spec.drain_cap, 7u);
}

TEST(ServiceProto, DefaultDrainCapFollowsTheCliFormula) {
  const snap::RunSpec spec = parse(R"({"warmup": 10, "measure": 20})");
  EXPECT_EQ(spec.drain_cap, 40u * 30u + 1'000'000u);
}

TEST(ServiceProto, CanonicalFormRoundTrips) {
  const snap::RunSpec spec =
      parse(R"({"warmup": 3, "measure": 4, "load": 0.2, "seed": 9})");
  const sim::JsonValue canon = runspec_to_json(spec);
  EXPECT_EQ(runspec_to_json(runspec_from_json(canon)).dump(), canon.dump());
}

// Specs the worker's CheckpointableRun would refuse fail at submit, with
// the field named, instead of being queued and failing later.
TEST(ServiceProto, SpecsTheWorkerCannotBuildAreRejectedAtSubmit) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {R"({"pattern": "bogus"})", "'pattern'"},
      {R"({"load": -0.5})", "'load'"},
      {R"({"length": 0})", "'length'"},
      {R"({"load": 100})", "'load'"},
      {R"({"pattern": "bit-reversal", "topo": "6x6"})", "'pattern'"},
      {R"({"pattern": "transpose", "topo": "8x4"})", "'pattern'"}};
  for (const auto& [text, field] : cases) {
    EXPECT_NE(error_of(text).find(std::string("spec field ") + field),
              std::string::npos)
        << text << ": " << error_of(text);
  }
}

// A negative fraction switches the storm off (FaultConfig::dynamic), so
// its range check must not depend on the storm being on.
TEST(ServiceProto, NegativeStormFractionIsRejected) {
  const std::string err = error_of(R"({"storm_at": 5, "storm_fraction": -1})");
  EXPECT_NE(err.find("storm fraction"), std::string::npos) << err;
}

/// The spec wavesim_cli builds from `args` (no driver flags).
snap::RunSpec from_args(std::vector<const char*> args) {
  args.insert(args.begin(), "wavesim_cli");
  return runspec_from_args(
      static_cast<int>(args.size()), args.data(),
      [](const std::string&, const std::function<const char*()>&,
         snap::RunSpec&) { return false; });
}

std::vector<std::uint8_t> bytes_of(snap::RunSpec spec) {
  snap::Archive ar = snap::Archive::writer();
  snap::snap_runspec(ar, spec);
  return ar.take_bytes();
}

// Every run flag and its job.v1 key set the same field: a non-default
// value through either front end yields the same spec, byte for byte, and
// the canonical JSON form reproduces it.
TEST(ServiceProto, EveryRunFlagMatchesItsKey) {
  struct Case {
    std::vector<const char*> args;
    const char* json;
  };
  const std::vector<Case> cases = {
      {{"--topo", "4x2"}, R"({"topo": "4x2"})"},
      {{"--mesh"}, R"({"mesh": true})"},
      {{"--protocol", "carp"}, R"({"protocol": "carp"})"},
      {{"--routing", "duato", "--vcs", "3"},
       R"({"routing": "duato", "vcs": 3})"},
      {{"--pattern", "tornado"}, R"({"pattern": "tornado"})"},
      {{"--vcs", "4"}, R"({"vcs": 4})"},
      {{"--k", "3"}, R"({"k": 3})"},
      {{"--m", "1"}, R"({"m": 1})"},
      {{"--cache", "16"}, R"({"cache": 16})"},
      {{"--replacement", "random"}, R"({"replacement": "random"})"},
      {{"--pcs-only"}, R"({"pcs_only": true})"},
      {{"--virtual"}, R"({"virtual": true})"},
      {{"--max-packet", "16"}, R"({"max_packet": 16})"},
      {{"--faults", "0.05"}, R"({"fault_rate": 0.05})"},
      {{"--load", "0.2"}, R"({"load": 0.2})"},
      {{"--length", "32"}, R"({"length": 32})"},
      {{"--warmup", "300"}, R"({"warmup": 300})"},
      {{"--cycles", "700"}, R"({"measure": 700})"},
      {{"--seed", "12345"}, R"({"seed": 12345})"}};
  snap::RunSpec scratch;
  for (const RunField& f : run_fields(scratch)) {
    if (f.flag == nullptr) continue;
    const bool covered = std::any_of(cases.begin(), cases.end(),
                                     [&](const Case& c) {
                                       return std::string(c.args[0]) == f.flag;
                                     });
    EXPECT_TRUE(covered) << f.flag << " has no case";
  }
  const std::vector<std::uint8_t> defaults = bytes_of(from_args({}));
  for (const Case& c : cases) {
    const snap::RunSpec flags = from_args(c.args);
    const snap::RunSpec keys = parse(c.json);
    EXPECT_NE(bytes_of(flags), defaults) << c.json;
    EXPECT_EQ(bytes_of(flags), bytes_of(keys)) << c.json;
    EXPECT_EQ(bytes_of(runspec_from_json(runspec_to_json(keys))),
              bytes_of(keys))
        << c.json;
  }
  // --seed takes job.v1's range, [0, 2^53]: run.v1 echoes it as a JSON
  // number, which holds no larger integer exactly.
  EXPECT_EQ(from_args({"--seed", "9007199254740992"}).seed,
            std::uint64_t{1} << 53);
  EXPECT_THROW(from_args({"--seed", "9007199254740993"}),
               std::invalid_argument);
  EXPECT_THROW(from_args({"--seed", "18446744073709551615"}),
               std::invalid_argument);
  EXPECT_THROW(from_args({"--frobnicate"}), std::invalid_argument);
  EXPECT_THROW(from_args({"--load"}), std::invalid_argument);
}

// The working-set shape and channel splitting are job.v1-only keys. The
// canonical form leaves them out at their defaults, so the specs and
// result files written before they existed keep their bytes.
TEST(ServiceProto, WorkingSetAndSplitKeysRoundTripAndHideTheirDefaults) {
  const snap::RunSpec spec = parse(
      R"({"pattern": "working-set", "ws_size": 6, "ws_locality": 0.9,
          "ws_skew": 0.6, "split": true})");
  EXPECT_EQ(spec.working_set.size, 6);
  EXPECT_EQ(spec.working_set.locality, 0.9);
  EXPECT_EQ(spec.working_set.skew, 0.6);
  EXPECT_TRUE(spec.config.router.split_channels);
  const sim::JsonValue canon = runspec_to_json(spec);
  const char* const keys[] = {"ws_size", "ws_locality", "ws_skew", "split"};
  for (const char* key : keys) EXPECT_NE(canon.find(key), nullptr) << key;
  EXPECT_EQ(bytes_of(runspec_from_json(canon)), bytes_of(spec));

  const snap::RunSpec spelled = parse(
      R"({"pattern": "working-set", "ws_size": 4, "ws_locality": 0.8,
          "ws_skew": 0, "split": false})");
  const sim::JsonValue plain = runspec_to_json(spelled);
  for (const char* key : keys) EXPECT_EQ(plain.find(key), nullptr) << key;
  EXPECT_EQ(plain.dump(),
            runspec_to_json(parse(R"({"pattern": "working-set"})")).dump());
}

// The CLRP variant is a job-only key too, omitted at "full" so specs,
// checkpoints and warm keys written before it keep their bytes.
TEST(ServiceProto, VariantKeyRoundTripsAndHidesItsDefault) {
  const snap::RunSpec spec = parse(R"({"variant": "single-switch"})");
  EXPECT_EQ(spec.config.protocol.clrp_variant,
            sim::ClrpVariant::kSingleSwitch);
  const sim::JsonValue canon = runspec_to_json(spec);
  ASSERT_NE(canon.find("variant"), nullptr);
  EXPECT_EQ(runspec_from_json(canon), spec);
  EXPECT_EQ(runspec_to_json(parse(R"({"variant": "full"})")).find("variant"),
            nullptr);
  EXPECT_EQ(runspec_to_json(parse("{}")).dump(),
            runspec_to_json(parse(R"({"variant": "full"})")).dump());
  EXPECT_NE(error_of(R"({"variant": "half"})").find("spec field 'variant'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"variant": 1})").find("spec field 'variant'"),
            std::string::npos);
}

TEST(ServiceProto, SizesAndCarpKeysRoundTripAndHideTheirDefaults) {
  const snap::RunSpec spec = parse(
      R"({"protocol": "carp", "carp": "random", "length": 8,)"
      R"( "sizes": "bimodal", "max_flits": 40})");
  EXPECT_EQ(spec.carp, "random");
  EXPECT_EQ(spec.sizes, "bimodal");
  EXPECT_EQ(spec.max_flits, 40);
  EXPECT_EQ(spec.max_length(), 40);
  const sim::JsonValue canon = runspec_to_json(spec);
  for (const char* key : {"carp", "sizes", "max_flits"}) {
    EXPECT_NE(canon.find(key), nullptr) << key;
  }
  EXPECT_EQ(runspec_from_json(canon), spec);
  const sim::JsonValue plain = runspec_to_json(parse("{}"));
  for (const char* key : {"carp", "sizes", "max_flits"}) {
    EXPECT_EQ(plain.find(key), nullptr) << key;
  }
  for (const char* text : {R"({"sizes": "fixed"})", R"({"max_flits": 0})",
                           R"({"carp": "none"})"}) {
    EXPECT_EQ(runspec_to_json(parse(text)).dump(), plain.dump()) << text;
  }
}

TEST(ServiceProto, BadSizesAndCarpValuesAreRefusedByName) {
  // snap::validate, which submit and restore both run, names the field.
  const auto refusal = [](const snap::RunSpec& spec) -> std::string {
    try {
      snap::validate(spec);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  snap::RunSpec base;
  base.message_flits = 16;
  const std::vector<std::pair<std::function<void(snap::RunSpec&)>,
                              const char*>>
      cases = {
          {[](snap::RunSpec& s) { s.sizes = "zipf"; }, "sizes"},
          {[](snap::RunSpec& s) {
             s.sizes = "uniform";
             s.max_flits = 8;  // below length
           },
           "max_flits"},
          {[](snap::RunSpec& s) { s.max_flits = -4; }, "max_flits"},
          {[](snap::RunSpec& s) { s.max_flits = 32; }, "max_flits"},  // fixed
          {[](snap::RunSpec& s) { s.carp = "random"; }, "carp"},  // clrp
          {[](snap::RunSpec& s) {
             s.config.protocol.protocol = sim::ProtocolKind::kCarp;
             s.carp = "sometimes";
           },
           "carp"},
      };
  for (const auto& [edit, field] : cases) {
    snap::RunSpec spec = base;
    edit(spec);
    EXPECT_NE(refusal(spec).find(std::string("spec field '") + field + "'"),
              std::string::npos)
        << field << ": " << refusal(spec);
  }
  // max_flits equal to length is the fixed distribution's only length.
  snap::RunSpec same = base;
  same.max_flits = 16;
  EXPECT_EQ(refusal(same), "");
  EXPECT_NE(error_of(R"({"sizes": "zipf"})").find("spec field 'sizes'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"max_flits": 2.5})").find("spec field 'max_flits'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"carp": "random"})").find("spec field 'carp'"),
            std::string::npos);
}

TEST(ServiceProto, BadWorkingSetValuesAreRefusedAtSubmitByName) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"ws_size", "0"},       {"ws_size", "-3"},     {"ws_size", "2.5"},
      {"ws_locality", "-0.1"}, {"ws_locality", "1.5"},
      {"ws_skew", "-0.1"},    {"ws_skew", "1"},      {"ws_skew", "1.5"}};
  for (const auto& [key, number] : cases) {
    const std::string err =
        error_of(std::string(R"({"pattern": "working-set", ")") + key +
                 "\": " + number + "}");
    EXPECT_NE(err.find(std::string("spec field '") + key + "'"),
              std::string::npos)
        << key << " = " << number << ": " << err;
  }
  // JSON has no NaN; snap::validate, which restore runs too, refuses it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool locality : {true, false}) {
    snap::RunSpec spec;
    spec.pattern = "working-set";
    (locality ? spec.working_set.locality : spec.working_set.skew) = nan;
    try {
      snap::validate(spec);
      ADD_FAILURE() << "NaN accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(locality ? "'ws_locality'"
                                                    : "'ws_skew'"),
                std::string::npos)
          << e.what();
    }
  }
}

// Like storm_fraction without storm_at: a working-set value under another
// pattern would be silently ignored, so it is refused, even at its
// default.
TEST(ServiceProto, WorkingSetKeysRequireTheWorkingSetPattern) {
  EXPECT_NE(error_of(R"({"pattern": "uniform", "ws_locality": 0.9})")
                .find("spec field 'ws_locality'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"ws_size": 4})").find("spec field 'ws_size'"),
            std::string::npos);
  snap::RunSpec spec;
  spec.pattern = "tornado";
  spec.working_set.skew = 0.5;
  EXPECT_THROW(snap::validate(spec), std::invalid_argument);
}

// snap::validate is the one check both front ends and both
// CheckpointableRun constructors run: it must refuse exactly the specs a
// run cannot be built from.
TEST(ServiceProto, ValidateThrowsExactlyWhenTheRunCannotBeBuilt) {
  std::vector<std::pair<const char*, snap::RunSpec>> specs;
  const auto add = [&specs](const char* what, auto edit) {
    snap::RunSpec spec;
    spec.config.topology.radix = {4, 4};
    edit(spec);
    specs.emplace_back(what, spec);
  };
  add("defaults", [](snap::RunSpec&) {});
  add("unknown pattern", [](snap::RunSpec& s) { s.pattern = "bogus"; });
  add("length 0", [](snap::RunSpec& s) { s.message_flits = 0; });
  add("load < 0", [](snap::RunSpec& s) { s.offered_load = -0.5; });
  add("load > length", [](snap::RunSpec& s) { s.offered_load = 100.0; });
  add("load = length", [](snap::RunSpec& s) { s.offered_load = 64.0; });
  add("NaN load", [](snap::RunSpec& s) {
    s.offered_load = std::numeric_limits<double>::quiet_NaN();
  });
  add("bit-reversal on 6x6", [](snap::RunSpec& s) {
    s.pattern = "bit-reversal";
    s.config.topology.radix = {6, 6};
  });
  add("bit-reversal on 8x4", [](snap::RunSpec& s) {
    s.pattern = "bit-reversal";
    s.config.topology.radix = {8, 4};
  });
  add("transpose on 8x4", [](snap::RunSpec& s) {
    s.pattern = "transpose";
    s.config.topology.radix = {8, 4};
  });
  add("transpose on 4x4", [](snap::RunSpec& s) { s.pattern = "transpose"; });
  add("negative storm fraction", [](snap::RunSpec& s) {
    s.config.faults.storm = {5, -1.0, 0};
  });
  add("storm", [](snap::RunSpec& s) { s.config.faults.storm = {5, 0.1, 0}; });
  int refused = 0;
  for (const auto& [what, spec] : specs) {
    bool validate_threw = false;
    bool run_threw = false;
    try {
      snap::validate(spec);
    } catch (const std::invalid_argument&) {
      validate_threw = true;
    }
    try {
      snap::CheckpointableRun run(spec);
    } catch (const std::exception&) {
      run_threw = true;
    }
    EXPECT_EQ(validate_threw, run_threw) << what;
    refused += validate_threw ? 1 : 0;
  }
  EXPECT_EQ(refused, 8);
}

TEST(ServiceProto, WrongTypesAndUnknownKeysAreRejected) {
  EXPECT_NE(error_of(R"({"measure": "long"})").find("'measure'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"frobnicate": 1})"), "");
}

TEST(ServiceProto, TopologyWithTrailingJunkIsRejectedByName) {
  for (const char* topo :
       {"8x4z", "8x", "x8", "", "8xx4", "+8x4", "99999999999x4"}) {
    const std::string err =
        error_of(std::string(R"({"topo": ")") + topo + "\"}");
    EXPECT_NE(err.find("spec field 'topo'"), std::string::npos)
        << topo << ": " << err;
  }
  EXPECT_EQ(parse(R"({"topo": "8x4"})").config.topology.radix,
            (std::vector<std::int32_t>{8, 4}));
  EXPECT_EQ(format_radices(parse_radices("4x4x4")), "4x4x4");
}

/// The error `parser` raises for `text`, or "" if it parses. The daemon
/// runs the same parsers at submit, so this is the submit error reply.
template <typename Parser>
std::string error_from(Parser parser, const std::string& text) {
  try {
    parser(sim::JsonValue::parse(text));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string sweep_error_of(const std::string& text) {
  return error_from(sweep_spec_from_json, text);
}

std::string simcheck_error_of(const std::string& text) {
  return error_from(simcheck_spec_from_json, text);
}

TEST(ServiceProto, SweepSpecParsesBaseAndMeasures) {
  const SweepSpec sweep = sweep_spec_from_json(
      sim::JsonValue::parse(R"({"base": {"warmup": 5}, "measures": [7, 9]})"));
  EXPECT_EQ(sweep.base.warmup, 5u);
  EXPECT_EQ(sweep.measures, (std::vector<Cycle>{7, 9}));
}

TEST(ServiceProto, SweepUnknownKeyIsRejected) {
  const std::string err =
      sweep_error_of(R"({"base": {}, "measures": [5], "measure": [5]})");
  EXPECT_NE(err.find("unknown sweep spec field 'measure'"), std::string::npos)
      << err;
}

TEST(ServiceProto, SweepMeasuresMustBeIntegersAtLeastOne) {
  for (const char* measures : {"[0]", "[5, 0]", "[-3]", "[2.5]", "[\"10\"]",
                               "[true]"}) {
    const std::string err = sweep_error_of(
        std::string(R"({"base": {}, "measures": )") + measures + "}");
    EXPECT_NE(err.find("spec field 'measures'"), std::string::npos)
        << measures << ": " << err;
  }
  EXPECT_NE(sweep_error_of(R"({"base": {}, "measures": []})"), "");
  EXPECT_NE(sweep_error_of(R"({"measures": [5]})"), "");
  // The base is a run spec and gets the run-spec checks.
  EXPECT_NE(sweep_error_of(R"({"base": {"topo": "8x4z"}, "measures": [5]})")
                .find("spec field 'topo'"),
            std::string::npos);
}

TEST(ServiceProto, SimcheckSpecIsCheckedWhole) {
  const check::SimcheckOptions defaults =
      simcheck_spec_from_json(sim::JsonValue::parse("{}"));
  EXPECT_EQ(defaults.count, 20u);
  const check::SimcheckOptions parsed = simcheck_spec_from_json(
      sim::JsonValue::parse(R"({"count": 6, "faulty": true,
                                 "base_seed": 9, "max_failures": 3})"));
  EXPECT_EQ(parsed.count, 6u);
  EXPECT_TRUE(parsed.faulty);
  EXPECT_EQ(parsed.base_seed, 9u);
  EXPECT_EQ(parsed.max_failures, 3u);
  EXPECT_NE(simcheck_error_of(R"({"cuont": 6})")
                .find("unknown simcheck spec field 'cuont'"),
            std::string::npos);
  EXPECT_NE(simcheck_error_of(R"({"count": 0})").find("'count'"),
            std::string::npos);
  EXPECT_NE(simcheck_error_of(R"({"max_failures": 0})").find("'max_failures'"),
            std::string::npos);
  EXPECT_NE(simcheck_error_of(R"({"max_failures": -1})").find("'max_failures'"),
            std::string::npos);
  EXPECT_NE(simcheck_error_of(R"({"faulty": 1})").find("'faulty'"),
            std::string::npos);
}

TEST(ServiceProto, ErrorResponseCarriesOkFalseAndTheMessage) {
  const sim::JsonValue reply = error_response("spec field 'warmup': bad");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").as_string(), "spec field 'warmup': bad");
  EXPECT_EQ(busy_response("full", 50).at("retry_after_ms").as_int(), 50);
}

}  // namespace
}  // namespace wavesim::service
