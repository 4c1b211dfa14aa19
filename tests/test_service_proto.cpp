// wavesim.job.v1 run-spec parsing: bad values must come back as an error
// naming the field (the daemon turns it into an error reply), never as a
// job that runs with a wrapped or defaulted value.
#include "service/proto.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

TEST(ServiceProto, ErrorResponseCarriesOkFalseAndTheMessage) {
  const sim::JsonValue reply = error_response("spec field 'warmup': bad");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").as_string(), "spec field 'warmup': bad");
  EXPECT_EQ(busy_response("full", 50).at("retry_after_ms").as_int(), 50);
}

}  // namespace
}  // namespace wavesim::service
