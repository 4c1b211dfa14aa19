// wavesim.job.v1 run-spec parsing: bad values must come back as an error
// naming the field (the daemon turns it into an error reply), never as a
// job that runs with a wrapped or defaulted value.
#include "service/proto.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace wavesim::service {
namespace {

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
