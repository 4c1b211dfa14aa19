// Command-line driver: run any configuration against any synthetic
// workload and print the statistics the benchmarks use.
//
//   $ ./wavesim_cli --topo 8x8 --protocol clrp --pattern working-set
//                   --load 0.15 --length 64 --cycles 10000
//   $ ./wavesim_cli --help
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "fault/schedule.hpp"
#include "harness/sweep.hpp"
#include "obs/observer.hpp"
#include "sim/build_info.hpp"
#include "sim/json.hpp"
#include "sim/number.hpp"
#include "snap/runspec_codec.hpp"
#include "snap/runstate.hpp"
#include "verify/delivery.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

/// Driver flags: how to run, export and checkpoint. The run itself (config
/// and workload) is a snap::RunSpec built by snap::runspec_from_args.
struct Options {
  bool histogram = false;
  std::string json_path;
  std::string trace_path;    ///< wavesim.trace.v1 (Perfetto-loadable)
  std::string metrics_path;  ///< wavesim.metrics.v1
  Cycle sample_every = 0;    ///< gauge sampling period; 0 = off
  std::int32_t replicas = 1;
  unsigned threads = 0;
  std::string engine = "seq";
  std::optional<std::int32_t> shards;  ///< unset: auto under --engine par
  Cycle checkpoint_every = 0;  ///< wavesim.snap.v1 checkpoint period
  bool checkpoint_every_given = false;
  std::string checkpoint_out;  ///< checkpoint file (+ .json metadata)
  std::string restore_path;    ///< resume from a wavesim.snap.v1 file
};

void usage() {
  std::printf("wavesim_cli -- wave-switching network simulator\n\n%s",
              snap::run_flags_help().c_str());
  std::printf(
      "  --hist              print an ASCII latency histogram\n"
      "  --json PATH         write the statistics as JSON\n"
      "  --trace PATH        write a Chrome/Perfetto trace (wavesim.trace.v1)\n"
      "  --metrics PATH      write counters + histograms (wavesim.metrics.v1)\n"
      "  --sample-every N    sample gauge time series every N cycles\n"
      "                      (default 0 = off; adds samples to --metrics)\n"
      "  --replicas N        run N seeds and merge (wavesim.sweep.v1 export)\n"
      "  --threads N         worker threads for --replicas (0 = all cores)\n"
      "  --engine E          step engine: seq | par (default seq; par is\n"
      "                      bit-identical to seq, only wall time changes)\n"
      "  --shards N          shard count for --engine par (default: auto)\n"
      "  --checkpoint-every C  write a wavesim.snap.v1 checkpoint every C\n"
      "                      cycles (requires --checkpoint-out)\n"
      "  --checkpoint-out PATH checkpoint file; PATH.json gets metadata.\n"
      "                      Written atomically, overwritten each period\n"
      "  --restore PATH      resume a checkpointed run; config/workload\n"
      "                      flags come from the snapshot. The finished\n"
      "                      run is bit-identical to an uninterrupted one\n"
      "                      under any --engine/--shards\n");
}

/// The arguments runspec_from_args leaves to the driver; false for an
/// unknown flag. Bad values throw std::invalid_argument; --help exits.
bool driver_flag(Options& opt, const std::string& arg,
                 const std::function<const char*()>& value,
                 snap::RunSpec& spec) {
  using sim::parse_number;
  if (arg == "--help" || arg == "-h") {
    usage();
    std::exit(0);
  }
  if (arg == "--faults") {
    // Not a number, so a wavesim.faults.v1 schedule file. Throws
    // std::runtime_error on I/O, parse or schema errors.
    const sim::FaultConfig sched = fault::load_faults_file(value());
    sim::FaultConfig& faults = spec.config.faults;
    faults.events = sched.events;
    faults.storm = sched.storm;
    faults.churn = sched.churn;
    faults.dv = sched.dv;
  }
  else if (arg == "--hist") opt.histogram = true;
  else if (arg == "--json") opt.json_path = value();
  else if (arg == "--trace") opt.trace_path = value();
  else if (arg == "--metrics") opt.metrics_path = value();
  else if (arg == "--sample-every") opt.sample_every = parse_number<Cycle>(arg, value());
  else if (arg == "--replicas") opt.replicas = parse_number<std::int32_t>(arg, value());
  else if (arg == "--threads") opt.threads = parse_number<unsigned>(arg, value());
  else if (arg == "--engine") opt.engine = value();
  else if (arg.rfind("--engine=", 0) == 0) opt.engine = arg.substr(9);
  else if (arg == "--shards") opt.shards = parse_number<std::int32_t>(arg, value());
  else if (arg == "--checkpoint-every") {
    opt.checkpoint_every = parse_number<Cycle>(arg, value());
    opt.checkpoint_every_given = true;
  }
  else if (arg == "--checkpoint-out") opt.checkpoint_out = value();
  else if (arg == "--restore") opt.restore_path = value();
  else return false;
  return true;
}

/// Validate the checkpoint/restore flag combinations; throws
/// std::invalid_argument on misuse. Observability and multi-seed modes
/// are rejected with checkpointing: observer state is not part of the
/// snapshot, so a restored run could not reproduce their output
/// byte-for-byte.
void check_checkpoint_flags(const Options& opt) {
  const auto misuse = [](const char* why) {
    throw std::invalid_argument(why);
  };
  if (opt.checkpoint_every_given && opt.checkpoint_every == 0) {
    misuse("--checkpoint-every must be >= 1");
  }
  if (opt.checkpoint_every > 0 && opt.checkpoint_out.empty()) {
    misuse("--checkpoint-every requires --checkpoint-out");
  }
  if (!opt.checkpoint_out.empty() && opt.checkpoint_every == 0) {
    misuse("--checkpoint-out requires --checkpoint-every");
  }
  if (opt.checkpoint_every == 0 && opt.restore_path.empty()) return;
  if (!opt.trace_path.empty() || !opt.metrics_path.empty() ||
      opt.sample_every > 0) {
    misuse("--trace/--metrics/--sample-every are incompatible with "
           "checkpointing (observer state is outside the snapshot)");
  }
  if (opt.replicas > 1) {
    misuse("--replicas is incompatible with checkpointing (checkpoint one "
           "run at a time)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt;
    const snap::RunSpec flags_spec = snap::runspec_from_args(
        argc, argv,
        [&opt](const std::string& arg,
               const std::function<const char*()>& value,
               snap::RunSpec& spec) {
          return driver_flag(opt, arg, value, spec);
        });
    check_checkpoint_flags(opt);
    const engine::EngineConfig engine_cfg =
        engine::engine_config(opt.engine, opt.shards);

    if (opt.replicas > 1) {
      // Multi-seed mode: run the same point `replicas` times through the
      // sweep harness (deterministic seeding, parallel workers) and print
      // the merged statistics instead of one run's.
      if (!opt.trace_path.empty() || !opt.metrics_path.empty()) {
        std::fprintf(stderr,
                     "warning: --trace/--metrics apply to single runs only; "
                     "ignored with --replicas\n");
      }
      const snap::RunSpec& spec = flags_spec;
      const harness::SweepPoint point{
          snap::format_radices(spec.config.topology.radix) + "/" +
              sim::to_string(spec.config.protocol.protocol) + "@" +
              spec.pattern,
          spec};
      harness::SweepOptions options;
      options.base_seed = spec.seed;
      options.replicas = opt.replicas;
      options.threads = opt.threads;
      options.engine = engine_cfg;
      const harness::SweepResult result = harness::run_sweep({point}, options);
      const harness::PointSummary& p = result.points.front();
      std::printf("merged %d replicas of %s (base seed %llu, %u thread(s), "
                  "%.2fs)\n",
                  p.replicas, point.label.c_str(),
                  static_cast<unsigned long long>(spec.seed),
                  result.threads_used, result.wall_seconds);
      std::printf("messages   offered %llu, delivered %llu, saturated "
                  "replicas %d\n",
                  static_cast<unsigned long long>(
                      p.counters.messages_offered),
                  static_cast<unsigned long long>(
                      p.counters.messages_delivered),
                  p.saturated_replicas);
      std::printf("latency    mean %.2f +/- %.2f  p95 %.1f  p99 %.1f  "
                  "max %.0f\n",
                  p.metric("latency_mean").mean(),
                  p.metric("latency_mean").stddev(),
                  p.metric("latency_p95").mean(),
                  p.metric("latency_p99").mean(),
                  p.metric("latency_max").max());
      std::printf("throughput %.4f +/- %.4f flits/node/cycle\n",
                  p.metric("throughput_flits_per_node_cycle").mean(),
                  p.metric("throughput_flits_per_node_cycle").stddev());
      if (!opt.json_path.empty() &&
          !sim::write_json_file(harness::to_json(result), opt.json_path)) {
        return 2;
      }
      return p.saturated_replicas == 0 ? 0 : 1;
    }

    // Single runs always go through a CheckpointableRun; driven to
    // completion it is bit-identical to the old run_open_loop path, and
    // it is the seam --checkpoint-every/--restore need. A restored run
    // takes its config and workload from the snapshot, and everything
    // below reports from run->spec().
    //
    // Snapshot::load throws std::runtime_error (missing file) or
    // snap::ArchiveError (corrupt snapshot); the catch maps both to exit 2.
    const auto run =
        opt.restore_path.empty()
            ? std::make_unique<snap::CheckpointableRun>(flags_spec)
            : std::make_unique<snap::CheckpointableRun>(
                  snap::Snapshot::load(opt.restore_path));
    const snap::RunSpec& spec = run->spec();
    const sim::SimConfig& cfg = spec.config;
    core::Simulation& sim = run->sim();
    if (engine_cfg.parallel()) {
      run->set_engine(
          engine::make_engine(engine_cfg, sim.topology().num_nodes()));
    }

    // Observability attaches before the first cycle so traces cover the
    // whole run; it is read-only, so stats stay bit-identical either way.
    // (Incompatible with checkpointing; check_checkpoint_flags rejected
    // that combination already.)
    std::unique_ptr<obs::Observer> observer;
    if (!opt.trace_path.empty() || !opt.metrics_path.empty() ||
        opt.sample_every > 0) {
      obs::ObserverOptions obs_opt;
      obs_opt.trace = !opt.trace_path.empty();
      obs_opt.metrics = !opt.metrics_path.empty();
      obs_opt.sample_every = opt.sample_every;
      observer = std::make_unique<obs::Observer>(sim, obs_opt);
    }

    const Cycle slice = opt.checkpoint_every > 0
                            ? opt.checkpoint_every
                            : std::numeric_limits<Cycle>::max();
    while (!run->done()) {
      run->advance(slice);
      if (opt.checkpoint_every > 0) {
        const snap::Snapshot snapshot = run->checkpoint();
        snapshot.save(opt.checkpoint_out);
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(snapshot.digest()));
        char warm[32];
        std::snprintf(warm, sizeof warm, "%016llx",
                      static_cast<unsigned long long>(
                          snap::warm_key(run->spec())));
        const sim::JsonValue meta =
            sim::JsonValue::object()
                .set("schema", "wavesim.ckpt.v1")
                .set("cycle", run->now())
                .set("digest", digest)
                .set("warm_key", warm)
                .set("done", run->done());
        if (!sim::write_json_file(meta, opt.checkpoint_out + ".json")) {
          return 2;
        }
      }
    }
    const load::ExperimentResult result = run->result();

    const auto& s = result.stats;
    std::printf("config: %s %s, %s routing, %s, w=%d k=%d m=%d cache=%d %s\n",
                snap::format_radices(cfg.topology.radix).c_str(),
                cfg.topology.torus ? "torus" : "mesh",
                sim::to_string(cfg.router.routing),
                sim::to_string(cfg.protocol.protocol),
                cfg.router.wormhole_vcs, cfg.router.wave_switches,
                cfg.protocol.max_misroutes,
                cfg.protocol.circuit_cache_entries,
                sim::to_string(cfg.protocol.replacement));
    std::printf("workload: %s, %d-flit messages, load %.3f, %llu cycles "
                "measured (+%llu warmup)\n",
                spec.pattern.c_str(), spec.message_flits, spec.offered_load,
                static_cast<unsigned long long>(spec.measure),
                static_cast<unsigned long long>(spec.warmup));
    std::printf("\nmessages   offered %llu, delivered %llu%s\n",
                static_cast<unsigned long long>(s.messages_offered),
                static_cast<unsigned long long>(s.messages_delivered),
                result.drained ? "" : "  [drain cap hit: saturated]");
    std::printf("latency    mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  max %.0f\n",
                s.latency_mean, s.latency_p50, s.latency_p95, s.latency_p99,
                s.latency_max);
    std::printf("throughput %.4f flits/node/cycle\n",
                s.throughput_flits_per_node_cycle);
    std::printf("modes      hit %llu  after-setup %llu  fallback %llu  "
                "wormhole %llu\n",
                static_cast<unsigned long long>(s.circuit_hit_count),
                static_cast<unsigned long long>(s.circuit_setup_count),
                static_cast<unsigned long long>(s.fallback_count),
                static_cast<unsigned long long>(s.wormhole_count));
    if (s.probes_launched > 0) {
      std::printf("circuits   cache hit-rate %.1f%%, evictions %llu, "
                  "teardowns %llu, reallocs %llu\n",
                  100.0 * s.cache_hit_rate(),
                  static_cast<unsigned long long>(s.cache_evictions),
                  static_cast<unsigned long long>(s.teardowns),
                  static_cast<unsigned long long>(s.buffer_reallocs));
      std::printf("probes     launched %llu, success %.1f%%, backtracks %llu, "
                  "misroutes %llu, release-requests %llu\n",
                  static_cast<unsigned long long>(s.probes_launched),
                  100.0 * s.setup_success_rate(),
                  static_cast<unsigned long long>(s.probe_backtracks),
                  static_cast<unsigned long long>(s.probe_misroutes),
                  static_cast<unsigned long long>(s.release_requests));
    }
    if (s.links_failed > 0 || s.links_restored > 0) {
      std::printf("faults     links failed %llu / restored %llu, circuits "
                  "killed %llu (cache-invalidated %llu), transfers aborted "
                  "%llu\n",
                  static_cast<unsigned long long>(s.links_failed),
                  static_cast<unsigned long long>(s.links_restored),
                  static_cast<unsigned long long>(s.circuits_killed),
                  static_cast<unsigned long long>(s.circuits_invalidated),
                  static_cast<unsigned long long>(s.transfers_aborted));
      std::printf("reachability withdrawn %llu, timeouts %llu, updates %llu "
                  "(triggered %llu), unreachable fallbacks %llu\n",
                  static_cast<unsigned long long>(s.routes_withdrawn),
                  static_cast<unsigned long long>(s.route_timeouts),
                  static_cast<unsigned long long>(s.dv_updates_sent),
                  static_cast<unsigned long long>(s.dv_triggered_updates),
                  static_cast<unsigned long long>(s.unreachable_fallbacks));
    }
    if (opt.histogram && s.messages_delivered > 0) {
      const double hi = s.latency_max * 1.01 + 1.0;
      std::printf("\nlatency histogram (cycles):\n%s",
                  sim.latency_histogram(0.0, hi, 16).render().c_str());
    }
    const auto check = verify::check_delivery(sim.network());
    std::printf("invariants %s\n", check.ok() ? "ok" : check.summary().c_str());
    if (!opt.json_path.empty()) {
      sim::JsonValue doc =
          sim::JsonValue::object()
              .set("schema", "wavesim.run.v1")
              .set("generated_by", sim::git_describe())
              .set("pattern", spec.pattern)
              .set("message_flits", spec.message_flits)
              .set("offered_load", spec.offered_load)
              .set("seed", spec.seed)
              .set("engine", engine_cfg.to_json(sim.topology().num_nodes()))
              .set("drained", result.drained)
              .set("invariants_ok", check.ok())
              .set("watchdog_verdict", verify::to_string(result.watchdog_verdict))
              .set("stalled_for", result.max_stalled)
              .set("stats", harness::stats_to_json(s));
      if (!sim::write_json_file(doc, opt.json_path)) return 2;
    }
    if (observer != nullptr) {
      observer->detach();
      if (!opt.trace_path.empty() &&
          !sim::write_json_file(observer->trace_json(), opt.trace_path)) {
        return 2;
      }
      if (!opt.metrics_path.empty() &&
          !sim::write_json_file(observer->metrics_json(), opt.metrics_path)) {
        return 2;
      }
    }
    return check.ok() && result.drained ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
