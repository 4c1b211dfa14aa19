#include "check/simcheck.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "harness/runner.hpp"
#include "harness/sweep.hpp"
#include "snap/runspec_codec.hpp"

namespace wavesim::check {

namespace {

constexpr const char* kSchema = "wavesim.repro.v3";

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error(std::string(kSchema) + ": " + what);
}

/// Member `key` of `obj`; every member of a repro document is required.
const sim::JsonValue& member(const sim::JsonValue& obj, const char* key) {
  const sim::JsonValue* v = obj.find(key);
  if (v == nullptr) bad(std::string("missing '") + key + "'");
  return *v;
}

/// Member `key` of `obj` as a whole number of type T (sim::whole_as: never
/// truncated or wrapped).
template <typename T>
T whole(const sim::JsonValue& obj, const char* key) {
  return sim::whole_as<T>(member(obj, key),
                          std::string(kSchema) + ": '" + key + "'");
}

/// The "scenario" object: {"seed": "0x..", "spec": <job.v1 run spec
/// without "seed">, "engine_shards"}. job.v1 caps seeds at 2^53, so the
/// full 64-bit seed travels beside the spec as a hex string.
sim::JsonValue scenario_to_json(const Scenario& s) {
  const sim::JsonValue canonical = snap::runspec_to_json(s.spec);
  sim::JsonValue run = sim::JsonValue::object();
  for (const auto& [key, value] : canonical.members()) {
    if (key != "seed") run.set(key, value);
  }
  return sim::JsonValue::object()
      .set("seed", to_hex_u64(s.spec.seed))
      .set("spec", std::move(run))
      .set("engine_shards", s.engine_shards);
}

Scenario scenario_from_json(const sim::JsonValue& value) {
  sim::check_known_keys(value, {"seed", "spec", "engine_shards"},
                        "wavesim.repro.v3 scenario");
  Scenario s;
  const sim::JsonValue& run = member(value, "spec");
  if (run.find("seed") != nullptr) {
    bad("'spec.seed': the seed is the scenario's hex 'seed'");
  }
  try {
    s.spec = snap::runspec_from_json(run);
  } catch (const std::runtime_error& e) {
    bad(std::string("'spec': ") + e.what());
  }
  const sim::JsonValue& seed = member(value, "seed");
  if (!seed.is_string() || !parse_hex_u64(seed.as_string(), s.spec.seed)) {
    bad("'seed' is not a 0x-prefixed hex string");
  }
  s.spec.config.seed = s.spec.seed;
  s.engine_shards = whole<std::int32_t>(value, "engine_shards");
  return s;
}

sim::JsonValue outcome_to_json(const RunOutcome& outcome) {
  sim::JsonValue violations = sim::JsonValue::array();
  for (const auto& v : outcome.violations) violations.push_back(v);
  return sim::JsonValue::object()
      .set("violations", std::move(violations))
      .set("saturated", outcome.saturated)
      .set("offered", outcome.offered)
      .set("delivered", outcome.delivered)
      .set("final_cycle", outcome.final_cycle)
      .set("fingerprint", to_hex_u64(outcome.fingerprint));
}

RunOutcome outcome_from_json(const sim::JsonValue& value) {
  sim::check_known_keys(value,
                        {"violations", "saturated", "offered", "delivered",
                         "final_cycle", "fingerprint"},
                        "wavesim.repro.v3 outcome");
  RunOutcome out;
  const sim::JsonValue& violations = member(value, "violations");
  if (!violations.is_array()) bad("bad 'violations'");
  for (const auto& v : violations.elements()) {
    out.violations.push_back(v.as_string());
  }
  const sim::JsonValue& fp = member(value, "fingerprint");
  if (!fp.is_string() || !parse_hex_u64(fp.as_string(), out.fingerprint)) {
    bad("bad 'fingerprint'");
  }
  out.saturated = member(value, "saturated").as_bool();
  out.offered = whole<std::uint64_t>(value, "offered");
  out.delivered = whole<std::uint64_t>(value, "delivered");
  out.final_cycle = whole<Cycle>(value, "final_cycle");
  return out;
}

}  // namespace

Report run_simcheck(const SimcheckOptions& options) {
  Report report;
  report.base_seed = options.base_seed;
  if (options.count == 0) return report;

  // Memory follows the failures, not `count`: only failing scenarios are
  // kept, and only the first max_failures of them by index are reported.
  std::atomic<std::size_t> scenarios_run{0};
  std::atomic<std::size_t> saturated{0};
  std::atomic<std::size_t> failures_seen{0};
  std::mutex failures_mutex;

  harness::ThreadPool pool(options.threads);
  pool.for_each_index_until(options.count, [&](std::size_t i) {
    Scenario scenario =
        Scenario::generate(harness::derive_seed(options.base_seed, i, 0));
    if (options.faulty) scenario.ensure_storm();
    RunOutcome outcome = run_scenario(scenario);
    ++scenarios_run;
    if (outcome.saturated) ++saturated;
    if (outcome.ok()) return failures_seen.load() < options.max_failures;
    {
      Failure failure;
      failure.index = i;
      failure.original = scenario;
      failure.original_outcome = outcome;
      failure.shrunk = std::move(scenario);
      failure.shrunk_outcome = std::move(outcome);
      const std::lock_guard<std::mutex> lock(failures_mutex);
      report.failures.push_back(std::move(failure));
    }
    return failures_seen.fetch_add(1) + 1 < options.max_failures;
  });

  // Early exit lets scheduling decide which tail indices ran; re-ranking by
  // index here makes the report deterministic anyway.
  report.scenarios_run = scenarios_run.load();
  report.saturated = saturated.load();
  std::sort(report.failures.begin(), report.failures.end(),
            [](const Failure& a, const Failure& b) {
              return a.index < b.index;
            });
  if (report.failures.size() > options.max_failures) {
    report.failures.resize(options.max_failures);
  }

  if (options.shrink_failures) {
    for (Failure& failure : report.failures) {
      ShrinkResult shrunk = shrink(failure.original, failure.original_outcome);
      failure.shrunk = std::move(shrunk.scenario);
      failure.shrunk_outcome = std::move(shrunk.outcome);
      failure.shrink_runs = shrunk.runs;
      failure.shrink_accepted = shrunk.accepted;
    }
  }
  return report;
}

sim::JsonValue repro_to_json(const Failure& failure) {
  return sim::JsonValue::object()
      .set("schema", kSchema)
      .set("scenario", scenario_to_json(failure.shrunk))
      .set("outcome", outcome_to_json(failure.shrunk_outcome))
      .set("original_scenario", scenario_to_json(failure.original))
      .set("original_outcome", outcome_to_json(failure.original_outcome))
      .set("shrink_runs", failure.shrink_runs)
      .set("shrink_accepted", failure.shrink_accepted);
}

Failure repro_from_json(const sim::JsonValue& value) {
  if (!value.is_object()) bad("not an object");
  const sim::JsonValue* schema = value.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    // Naming what was found tells an older repro file (v1 run fields are
    // not job.v1 keys; v2 runs an injection loop simcheck no longer has)
    // apart from a document of another kind.
    const std::string found =
        schema != nullptr && schema->is_string() ? schema->as_string() : "";
    bad(std::string("'schema' must be \"") + kSchema + "\"" +
        (found.empty() ? "" : ", not \"" + found + "\""));
  }
  sim::check_known_keys(value,
                        {"schema", "scenario", "outcome", "original_scenario",
                         "original_outcome", "shrink_runs", "shrink_accepted"},
                        kSchema);
  Failure failure;
  failure.shrunk = scenario_from_json(member(value, "scenario"));
  failure.shrunk_outcome = outcome_from_json(member(value, "outcome"));
  failure.original = scenario_from_json(member(value, "original_scenario"));
  failure.original_outcome =
      outcome_from_json(member(value, "original_outcome"));
  failure.shrink_runs = whole<std::size_t>(value, "shrink_runs");
  failure.shrink_accepted = whole<std::size_t>(value, "shrink_accepted");
  return failure;
}

Failure load_repro(const std::string& path) {
  return repro_from_json(sim::read_json_file(path));
}

std::string write_repro(const Failure& failure, const std::string& dir) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "repro-seed-" + to_hex_u64(failure.original.spec.seed) + ".json";
  if (!sim::write_json_file(repro_to_json(failure), path)) return {};
  return path;
}

}  // namespace wavesim::check
