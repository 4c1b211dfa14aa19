#include "service/jobs.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "check/scenario.hpp"
#include "check/simcheck.hpp"
#include "harness/sweep.hpp"
#include "service/proto.hpp"
#include "snap/runstate.hpp"
#include "snap/snapshot.hpp"
#include "verify/delivery.hpp"
#include "verify/watchdog.hpp"

namespace wavesim::service {

namespace {

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Result document for a finished run -- the service analogue of the
/// CLI's wavesim.run.v1. Deliberately excludes the job id, tenant and
/// any timestamp: the same spec must yield a byte-identical result file
/// whether the job ran uninterrupted, was preempted between slices, or
/// was resumed by a restarted daemon (test_service compares them).
sim::JsonValue run_result_json(snap::CheckpointableRun& run) {
  const load::ExperimentResult& r = run.result();
  const auto check = verify::check_delivery(run.sim().network());
  return sim::JsonValue::object()
      .set("schema", "wavesim.result.v1")
      .set("kind", "run")
      .set("spec", runspec_to_json(run.spec()))
      .set("drained", r.drained)
      .set("invariants_ok", check.ok())
      .set("watchdog_verdict", verify::to_string(r.watchdog_verdict))
      .set("stalled_for", r.max_stalled)
      .set("offered_messages", r.offered_messages)
      .set("cycles_total", r.cycles_total)
      .set("stats", harness::stats_to_json(r.stats));
}

}  // namespace

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

JobState job_state_from_string(const std::string& text) {
  if (text == "queued") return JobState::kQueued;
  if (text == "running") return JobState::kRunning;
  if (text == "done") return JobState::kDone;
  if (text == "failed") return JobState::kFailed;
  if (text == "cancelled") return JobState::kCancelled;
  throw std::runtime_error("bad job state '" + text + "'");
}

sim::JsonValue job_to_json(const Job& job) {
  return sim::JsonValue::object()
      .set("schema", "wavesim.jobfile.v1")
      .set("id", job.id)
      .set("tenant", job.tenant)
      .set("weight", job.weight)
      .set("kind", job.kind)
      .set("spec", job.spec)
      .set("state", to_string(job.state))
      .set("cycle", job.cycle)
      .set("slices", job.slices)
      .set("completion_seq", job.completion_seq)
      .set("error", job.error)
      .set("cancel_requested", job.cancel_requested);
}

Job job_from_json(const sim::JsonValue& value) {
  if (!value.is_object() ||
      value.at("schema").as_string() != "wavesim.jobfile.v1") {
    throw std::runtime_error("not a wavesim.jobfile.v1 document");
  }
  Job job;
  job.id = value.at("id").as_string();
  job.tenant = value.at("tenant").as_string();
  job.weight = value.at("weight").as_number();
  job.kind = value.at("kind").as_string();
  job.spec = value.at("spec");
  job.state = job_state_from_string(value.at("state").as_string());
  // Counters are read whole (sim::whole_as), never wrapped.
  const auto counter = [&](const char* key) {
    return sim::whole_as<std::uint64_t>(
        value.at(key), std::string("wavesim.jobfile.v1 field '") + key + "'");
  };
  job.cycle = counter("cycle");
  job.slices = counter("slices");
  job.completion_seq = counter("completion_seq");
  job.error = value.at("error").as_string();
  job.cancel_requested = value.at("cancel_requested").as_bool();
  return job;
}

std::string JobRunner::checkpoint_path(const std::string& id) const {
  return state_dir_ + "/" + id + ".ckpt";
}

std::string JobRunner::result_path(const std::string& id) const {
  return state_dir_ + "/result-" + id + ".json";
}

SliceOutcome JobRunner::step(Job& job,
                             const std::function<bool()>& cancelled) {
  SliceOutcome out;
  try {
    ++job.slices;
    if (job.kind == "run") return step_run(job);
    if (job.kind == "sweep") return step_sweep(job, cancelled);
    if (job.kind == "simcheck") return step_simcheck(job);
    out.failed = true;
    out.error = "unknown job kind '" + job.kind + "'";
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  return out;
}

SliceOutcome JobRunner::step_run(Job& job) {
  SliceOutcome out;
  try {
    const std::string ckpt = checkpoint_path(job.id);
    std::unique_ptr<snap::CheckpointableRun> run;
    if (file_exists(ckpt)) {
      run = std::make_unique<snap::CheckpointableRun>(
          snap::Snapshot::load(ckpt));
    } else {
      // First slice -- or the checkpoint vanished, in which case the
      // run restarts from cycle 0 and still produces the identical
      // result file (determinism makes recovery idempotent).
      run = std::make_unique<snap::CheckpointableRun>(
          runspec_from_json(job.spec));
    }
    const Cycle before = run->now();
    run->advance(slice_cycles_);
    job.cycle = run->now();
    out.cost = static_cast<double>(run->now() - before);
    if (run->done()) {
      if (!sim::write_json_file(run_result_json(*run),
                                result_path(job.id))) {
        throw std::runtime_error("cannot write " + result_path(job.id));
      }
      std::remove(ckpt.c_str());
      out.done = true;
    } else {
      run->checkpoint().save(ckpt);
    }
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  return out;
}

SliceOutcome JobRunner::step_sweep(Job& job,
                                   const std::function<bool()>& cancelled) {
  SliceOutcome out;
  try {
    const SweepSpec sweep = sweep_spec_from_json(job.spec);
    const snap::RunSpec& spec = sweep.base;

    // All points share the spec's warm prefix, so one warmup serves the
    // whole sweep: checkpoint at the warmup/measure boundary and start
    // every point from there (perfbench's traced clrp_setup run times the
    // sweep's time to result).
    snap::CheckpointableRun warm(spec);
    warm.advance(spec.warmup);
    if (!warm.at_measure_boundary()) {
      throw std::logic_error("sweep warmup did not reach the boundary");
    }
    out.cost += static_cast<double>(spec.warmup);
    const snap::Snapshot boundary = warm.checkpoint();

    sim::JsonValue points = sim::JsonValue::array();
    for (const Cycle measure : sweep.measures) {
      if (cancelled()) return out;  // worker maps this to kCancelled
      snap::CheckpointableRun point(boundary);
      point.rebind(measure, snap::default_drain_cap(spec.warmup, measure));
      while (!point.done()) {
        point.advance(std::numeric_limits<Cycle>::max());
      }
      out.cost += static_cast<double>(point.now() - spec.warmup);
      job.cycle += point.now() - spec.warmup;
      const load::ExperimentResult& r = point.result();
      points.push_back(
          sim::JsonValue::object()
              .set("measure", measure)
              .set("drained", r.drained)
              .set("offered_messages", r.offered_messages)
              .set("stats", harness::stats_to_json(r.stats)));
    }
    char warm_hex[32];
    std::snprintf(warm_hex, sizeof warm_hex, "%016llx",
                  static_cast<unsigned long long>(snap::warm_key(spec)));
    const sim::JsonValue doc =
        sim::JsonValue::object()
            .set("schema", "wavesim.result.v1")
            .set("kind", "sweep")
            .set("base", runspec_to_json(spec))
            .set("warm_key", warm_hex)
            .set("points", std::move(points));
    if (!sim::write_json_file(doc, result_path(job.id))) {
      throw std::runtime_error("cannot write " + result_path(job.id));
    }
    out.done = true;
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  return out;
}

SliceOutcome JobRunner::step_simcheck(Job& job) {
  SliceOutcome out;
  try {
    check::SimcheckOptions options = simcheck_spec_from_json(job.spec);
    // One worker thread: parallelism belongs to the daemon's worker
    // pool, not inside a single job. No shrinking: service jobs report,
    // the CLI (simcheck --replay) investigates.
    options.threads = 1;
    options.shrink_failures = false;
    const check::Report report = check::run_simcheck(options);

    sim::JsonValue failures = sim::JsonValue::array();
    for (const check::Failure& f : report.failures) {
      failures.push_back(
          sim::JsonValue::object()
              .set("index", f.index)
              .set("seed", check::to_hex_u64(f.original.spec.seed)));
    }
    const sim::JsonValue doc =
        sim::JsonValue::object()
            .set("schema", "wavesim.result.v1")
            .set("kind", "simcheck")
            .set("base_seed", options.base_seed)
            .set("count", options.count)
            .set("faulty", options.faulty)
            .set("scenarios_run", report.scenarios_run)
            .set("saturated", report.saturated)
            .set("ok", report.ok())
            .set("failures", std::move(failures));
    if (!sim::write_json_file(doc, result_path(job.id))) {
      throw std::runtime_error("cannot write " + result_path(job.id));
    }
    // Nominal WFQ charge: scenarios are short bounded runs; 20k cycles
    // apiece keeps simcheck jobs comparable to run slices.
    out.cost = static_cast<double>(report.scenarios_run) * 20'000.0;
    out.done = true;
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  return out;
}

}  // namespace wavesim::service
