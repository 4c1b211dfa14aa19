// Deterministic mutational fuzzing of the decoders that read files a user
// hands over: wavesim.repro.v3 (simcheck --replay), job.v1 run specs
// (wavesimd submits, bench_sweep axes), wavesim.faults.v1 (wavesim_cli
// --faults) and experiment spec files (bench_sweep). Seeded byte flips,
// truncations and splices of the committed fixtures under tests/data and
// one bench spec file; every mutant must end in a value or a typed error
// (std::runtime_error, std::invalid_argument), never a crash, a hang or
// another exception. The sanitized build runs
// this too, where undefined behaviour on any input is fatal.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/simcheck.hpp"
#include "fault/schedule.hpp"
#include "harness/sweep.hpp"
#include "sim/json.hpp"
#include "sim/rng.hpp"
#include "snap/runspec_codec.hpp"

namespace wavesim {
namespace {

constexpr int kInputsPerDecoder = 12'000;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string fixture(const std::string& name) {
  return read_file(std::string(WAVESIM_TEST_DATA) + "/" + name);
}

/// Values a hostile or corrupted file puts where a field's value was:
/// wrong types, fractions, negatives, and numbers past every integer
/// type's range.
const char* const kTokens[] = {
    "-1",   "2.5",  "1e300", "-1e300", "4294967296", "9007199254740993",
    "0",    "-0",   "null",  "true",   "\"\"",       "\"x\"",
    "[]",   "{}",   "[1,",   "\"0x\"", "\"0xffffffffffffffffff\"", "1e-9"};

/// One to three mutations of `text`: flip a byte, truncate, splice in the
/// tail of another fixture, or replace the value after a ':' with a token.
std::string mutate(std::string text, const std::vector<std::string>& corpus,
                   sim::Rng& rng) {
  const int steps = static_cast<int>(rng.uniform_int(1, 3));
  for (int s = 0; s < steps && !text.empty(); ++s) {
    const std::size_t at = rng.next_below(text.size());
    switch (rng.next_below(4)) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1u << rng.next_below(8)));
        break;
      case 1:
        text.resize(at);
        break;
      case 2: {
        const std::string& other = corpus[rng.next_below(corpus.size())];
        text = text.substr(0, at) + other.substr(rng.next_below(other.size()));
        break;
      }
      default: {
        const std::size_t colon = text.find(':', at);
        if (colon == std::string::npos) break;
        const std::size_t end = text.find_first_of(",}]", colon + 1);
        text = text.substr(0, colon + 1) +
               kTokens[rng.next_below(std::size(kTokens))] +
               (end == std::string::npos ? "" : text.substr(end));
        break;
      }
    }
  }
  return text;
}

/// Feed kInputsPerDecoder mutants of `seed_text` through parse + `decode`.
/// Returns how many decoded to a value (the rest were typed errors).
int fuzz(const std::string& seed_text, const std::vector<std::string>& corpus,
         std::uint64_t seed,
         const std::function<void(const sim::JsonValue&)>& decode) {
  sim::Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kInputsPerDecoder; ++i) {
    const std::string input = mutate(seed_text, corpus, rng);
    try {
      decode(sim::JsonValue::parse(input));
      ++accepted;
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped error " << e.what() << " on input:\n"
                    << input;
    }
  }
  return accepted;
}

class DecoderFuzz : public ::testing::Test {
 protected:
  const std::string repro = fixture("repro_v3.json");
  const std::string spec = fixture("job_spec.json");
  const std::string faults = fixture("faults_storm.json");
  const std::string sweep =
      read_file(std::string(WAVESIM_SOURCE_DIR) +
                "/bench/specs/e3_reuse_locality.json");
  const std::vector<std::string> corpus{repro, spec, faults, sweep};
};

TEST_F(DecoderFuzz, FixturesDecodeUnmutated) {
  EXPECT_NO_THROW(check::repro_from_json(sim::JsonValue::parse(repro)));
  EXPECT_NO_THROW(snap::runspec_from_json(sim::JsonValue::parse(spec)));
  EXPECT_NO_THROW(fault::faults_from_json(sim::JsonValue::parse(faults)));
  for (const bool quick : {false, true}) {
    EXPECT_NO_THROW(harness::load_spec(sim::JsonValue::parse(sweep), quick));
  }
}

// Each run must also accept some mutants (a value-level change can stay
// valid), or the mutator never got past the JSON parser.
TEST_F(DecoderFuzz, ReproV3SurvivesMutants) {
  EXPECT_GT(fuzz(repro, corpus, 1,
                 [](const sim::JsonValue& v) { check::repro_from_json(v); }),
            0);
}

TEST_F(DecoderFuzz, JobSpecSurvivesMutants) {
  EXPECT_GT(fuzz(spec, corpus, 2,
                 [](const sim::JsonValue& v) { snap::runspec_from_json(v); }),
            0);
}

TEST_F(DecoderFuzz, FaultsV1SurvivesMutants) {
  EXPECT_GT(fuzz(faults, corpus, 3,
                 [](const sim::JsonValue& v) { fault::faults_from_json(v); }),
            0);
}

TEST_F(DecoderFuzz, SweepSpecSurvivesMutants) {
  EXPECT_GT(fuzz(sweep, corpus, 4,
                 [](const sim::JsonValue& v) {
                   harness::load_spec(v, /*quick=*/true);
                 }),
            0);
}

}  // namespace
}  // namespace wavesim
