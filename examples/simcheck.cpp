// simcheck -- deterministic property-based exploration of the simulator.
//
//   $ ./simcheck --count 200 --seed 1            # explore 200 scenarios
//   $ ./simcheck --one 0xdeadbeef                # run one scenario by seed
//   $ ./simcheck --replay repro-seed-2a.json     # re-execute an artifact
//
// Exit codes: 0 = no violations, 1 = violations found (or a replay that
// still fails, which is the expected result for a valid repro), 2 = usage
// or I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/simcheck.hpp"
#include "cli_number.hpp"
#include "harness/sweep.hpp"
#include "sim/json.hpp"

namespace {

using namespace wavesim;

struct Options {
  std::uint64_t seed = 1;
  std::size_t count = 100;
  unsigned threads = 0;
  std::size_t max_failures = 1;
  bool shrink = true;
  bool faulty = false;
  std::string artifact_dir;
  std::string json_path;
  std::string replay_path;
  bool one = false;
  std::uint64_t one_seed = 0;
};

void usage() {
  std::printf(
      "simcheck -- seeded scenario fuzzer with invariant oracles\n\n"
      "  --seed N            base seed; scenario i uses a seed derived\n"
      "                      from (N, i) (default 1)\n"
      "  --count N           scenarios to explore (default 100)\n"
      "  --threads N         worker threads (default 0 = all cores)\n"
      "  --max-failures N    stop after N failing scenarios (default 1)\n"
      "  --no-shrink         keep failures as found, skip delta debugging\n"
      "  --faulty            force a failure storm onto every scenario\n"
      "                      (dynamic-fault + reachability oracles)\n"
      "  --artifact-dir DIR  write each failure as a wavesim.repro.v3 file\n"
      "  --json PATH         write the run report as JSON\n"
      "  --one SEED          run the single scenario of SEED (hex ok) and\n"
      "                      print its outcome\n"
      "  --replay FILE       re-execute a wavesim.repro.v3 artifact and\n"
      "                      verify it reproduces bit-identically\n");
}

bool parse(int argc, char** argv, Options& opt) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return false;
    } else if (arg == "--seed") {
      opt.seed = cli::seed(arg, need(i));
    } else if (arg == "--count") {
      opt.count = cli::number<std::size_t>(arg, need(i));
    } else if (arg == "--threads") {
      opt.threads = cli::number<unsigned>(arg, need(i));
    } else if (arg == "--max-failures") {
      opt.max_failures = cli::number<std::size_t>(arg, need(i));
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg == "--faulty") {
      opt.faulty = true;
    } else if (arg == "--artifact-dir") {
      opt.artifact_dir = need(i);
    } else if (arg == "--json") {
      opt.json_path = need(i);
    } else if (arg == "--one") {
      opt.one = true;
      opt.one_seed = cli::seed(arg, need(i));
    } else if (arg == "--replay") {
      opt.replay_path = need(i);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return true;
}

void print_failure(const check::Failure& failure) {
  std::printf("FAIL scenario #%zu seed %s\n", failure.index,
              check::to_hex_u64(failure.original.spec.seed).c_str());
  std::printf("  original: %s\n", failure.original.label().c_str());
  std::printf("            %s\n", failure.original_outcome.summary().c_str());
  if (!(failure.shrunk == failure.original)) {
    std::printf("  shrunk (%zu runs, %zu accepted): %s\n", failure.shrink_runs,
                failure.shrink_accepted, failure.shrunk.label().c_str());
    std::printf("            %s\n", failure.shrunk_outcome.summary().c_str());
  }
}

int run_one(const Options& opt) {
  check::Scenario scenario = check::Scenario::generate(opt.one_seed);
  if (opt.faulty) scenario.ensure_storm();
  std::printf("scenario %s\n  %s\n",
              check::to_hex_u64(opt.one_seed).c_str(),
              scenario.label().c_str());
  const check::RunOutcome outcome = check::run_scenario(scenario);
  std::printf("  %s\n", outcome.summary().c_str());
  return outcome.ok() ? 0 : 1;
}

int run_replay(const Options& opt) {
  check::Failure stored;
  try {
    stored = check::load_repro(opt.replay_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("replaying %s\n  %s\n", opt.replay_path.c_str(),
              stored.shrunk.label().c_str());
  // Twice, to hold the determinism contract: the same scenario must yield
  // the same event stream bit-for-bit within one build.
  const check::RunOutcome outcome = check::run_scenario(stored.shrunk);
  const check::RunOutcome again = check::run_scenario(stored.shrunk);
  std::printf("  %s\n", outcome.summary().c_str());
  if (outcome.fingerprint != again.fingerprint ||
      outcome.violations != again.violations) {
    std::fprintf(stderr, "error: replay is non-deterministic (%s vs %s)\n",
                 check::to_hex_u64(outcome.fingerprint).c_str(),
                 check::to_hex_u64(again.fingerprint).c_str());
    return 2;
  }
  // Stored-vs-replayed is informational: a mismatch is expected when the
  // code changed since the artifact was captured (e.g. the bug was fixed).
  std::printf("  matches stored outcome: %s (stored fp %s, replayed %s)\n",
              outcome.fingerprint == stored.shrunk_outcome.fingerprint
                  ? "yes"
                  : "no (code changed since capture?)",
              check::to_hex_u64(stored.shrunk_outcome.fingerprint).c_str(),
              check::to_hex_u64(outcome.fingerprint).c_str());
  return outcome.ok() ? 0 : 1;
}

int run_explore(const Options& opt) {
  check::SimcheckOptions options;
  options.base_seed = opt.seed;
  options.count = opt.count;
  options.threads = opt.threads;
  options.max_failures = opt.max_failures;
  options.shrink_failures = opt.shrink;
  options.faulty = opt.faulty;
  const check::Report report = check::run_simcheck(options);

  for (const check::Failure& failure : report.failures) {
    print_failure(failure);
    if (!opt.artifact_dir.empty()) {
      const std::string path = check::write_repro(failure, opt.artifact_dir);
      if (path.empty()) return 2;
      std::printf("  repro written: %s\n", path.c_str());
    }
  }
  std::printf("simcheck: %zu scenario(s), %zu saturated, %zu failure(s)\n",
              report.scenarios_run, report.saturated, report.failures.size());

  if (!opt.json_path.empty()) {
    sim::JsonValue failures = sim::JsonValue::array();
    for (const check::Failure& failure : report.failures) {
      failures.push_back(check::repro_to_json(failure));
    }
    const sim::JsonValue doc =
        sim::JsonValue::object()
            .set("schema", "wavesim.simcheck.v1")
            .set("base_seed", check::to_hex_u64(report.base_seed))
            .set("count_requested", opt.count)
            .set("scenarios_run", report.scenarios_run)
            .set("saturated", report.saturated)
            .set("failures", std::move(failures));
    if (!sim::write_json_file(doc, opt.json_path)) return 2;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 0;
  }
  try {
    if (!opt.replay_path.empty()) return run_replay(opt);
    if (opt.one) return run_one(opt);
    return run_explore(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
