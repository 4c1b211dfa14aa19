// Command-line driver: run any configuration against any synthetic
// workload and print the statistics the benchmarks use.
//
//   $ ./wavesim_cli --topo 8x8 --protocol clrp --pattern working-set
//                   --load 0.15 --length 64 --cycles 10000
//   $ ./wavesim_cli --help
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "cli_number.hpp"
#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "fault/schedule.hpp"
#include "harness/sweep.hpp"
#include "obs/observer.hpp"
#include "service/proto.hpp"
#include "sim/build_info.hpp"
#include "sim/json.hpp"
#include "snap/runstate.hpp"
#include "verify/delivery.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;
using cli::number;

struct Options {
  std::string topo = "8x8";
  bool mesh = false;
  std::string protocol = "clrp";
  std::string routing = "dor";
  std::string pattern = "uniform";
  std::int32_t vcs = 2;
  std::int32_t k = 2;
  std::int32_t m = 2;
  std::int32_t cache = 8;
  std::string replacement = "lru";
  double load = 0.10;
  std::int32_t length = 64;
  Cycle warmup = 2000;
  Cycle cycles = 10000;
  std::uint64_t seed = 1;
  double faults = 0.0;
  std::string faults_file;  ///< wavesim.faults.v1 dynamic schedule
  bool pcs_only = false;
  bool virtual_circuits = false;
  std::int32_t max_packet = 0;
  bool histogram = false;
  std::string json_path;
  std::string trace_path;    ///< wavesim.trace.v1 (Perfetto-loadable)
  std::string metrics_path;  ///< wavesim.metrics.v1
  Cycle sample_every = 0;    ///< gauge sampling period; 0 = off
  std::int32_t replicas = 1;
  unsigned threads = 0;
  std::string engine = "seq";
  std::int32_t shards = 0;  ///< auto under --engine par unless shards_given
  bool shards_given = false;
  Cycle checkpoint_every = 0;  ///< wavesim.snap.v1 checkpoint period
  bool checkpoint_every_given = false;
  std::string checkpoint_out;  ///< checkpoint file (+ .json metadata)
  std::string restore_path;    ///< resume from a wavesim.snap.v1 file
};

void usage() {
  std::printf(
      "wavesim_cli -- wave-switching network simulator\n\n"
      "  --topo RxC[xD..]    topology radices (default 8x8)\n"
      "  --mesh              mesh instead of torus\n"
      "  --protocol P        wormhole | clrp | carp (default clrp)\n"
      "  --routing R         dor | duato | west-first | negative-first\n"
      "                      (default dor)\n"
      "  --pattern P         uniform | hotspot | transpose | bit-reversal |\n"
      "                      bit-complement | tornado | neighbor | working-set\n"
      "  --vcs N             wormhole VCs (default 2)\n"
      "  --k N               wave switches (default 2; 0 with --protocol wormhole)\n"
      "  --m N               MB-m misroute budget (default 2)\n"
      "  --cache N           circuit-cache entries per node (default 8)\n"
      "  --replacement R     lru | lfu | fifo | random (default lru)\n"
      "  --load F            offered flits/node/cycle (default 0.10)\n"
      "  --length N          message length in flits (default 64)\n"
      "  --warmup N          warmup cycles (default 2000)\n"
      "  --cycles N          measured cycles (default 10000)\n"
      "  --seed N            RNG seed (default 1)\n"
      "  --faults F|PATH     static circuit-channel fault rate (number), or\n"
      "                      a wavesim.faults.v1 dynamic fault schedule file\n"
      "                      (mid-run link failures/recoveries; docs/FAULTS.md)\n"
      "  --pcs-only          no wormhole fallback (paper's k=1/w=0 router)\n"
      "  --virtual           virtual circuits (base clock; ablation)\n"
      "  --max-packet N      wormhole segmentation limit (default off)\n"
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
    if (arg == "--help" || arg == "-h") return false;
    else if (arg == "--topo") opt.topo = need(i);
    else if (arg == "--mesh") opt.mesh = true;
    else if (arg == "--protocol") opt.protocol = need(i);
    else if (arg == "--routing") opt.routing = need(i);
    else if (arg == "--pattern") opt.pattern = need(i);
    else if (arg == "--vcs") opt.vcs = number<std::int32_t>(arg, need(i));
    else if (arg == "--k") opt.k = number<std::int32_t>(arg, need(i));
    else if (arg == "--m") opt.m = number<std::int32_t>(arg, need(i));
    else if (arg == "--cache") opt.cache = number<std::int32_t>(arg, need(i));
    else if (arg == "--replacement") opt.replacement = need(i);
    else if (arg == "--load") opt.load = number<double>(arg, need(i));
    else if (arg == "--length") opt.length = number<std::int32_t>(arg, need(i));
    else if (arg == "--warmup") opt.warmup = number<Cycle>(arg, need(i));
    else if (arg == "--cycles") opt.cycles = number<Cycle>(arg, need(i));
    else if (arg == "--seed") opt.seed = number<std::uint64_t>(arg, need(i));
    else if (arg == "--faults") {
      // A plain number is the static fault rate; anything else is a
      // wavesim.faults.v1 schedule file.
      const char* value = need(i);
      char* end = nullptr;
      const double rate = std::strtod(value, &end);
      if (end != value && *end == '\0') opt.faults = rate;
      else opt.faults_file = value;
    }
    else if (arg == "--pcs-only") opt.pcs_only = true;
    else if (arg == "--virtual") opt.virtual_circuits = true;
    else if (arg == "--max-packet") opt.max_packet = number<std::int32_t>(arg, need(i));
    else if (arg == "--hist") opt.histogram = true;
    else if (arg == "--json") opt.json_path = need(i);
    else if (arg == "--trace") opt.trace_path = need(i);
    else if (arg == "--metrics") opt.metrics_path = need(i);
    else if (arg == "--sample-every") opt.sample_every = number<Cycle>(arg, need(i));
    else if (arg == "--replicas") opt.replicas = number<std::int32_t>(arg, need(i));
    else if (arg == "--threads") opt.threads = number<unsigned>(arg, need(i));
    else if (arg == "--engine") opt.engine = need(i);
    else if (arg.rfind("--engine=", 0) == 0) opt.engine = arg.substr(9);
    else if (arg == "--shards") {
      opt.shards = number<std::int32_t>(arg, need(i));
      opt.shards_given = true;
    }
    else if (arg == "--checkpoint-every") {
      opt.checkpoint_every = number<Cycle>(arg, need(i));
      opt.checkpoint_every_given = true;
    }
    else if (arg == "--checkpoint-out") opt.checkpoint_out = need(i);
    else if (arg == "--restore") opt.restore_path = need(i);
    else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return true;
}

/// Validate --engine/--shards and build the engine spec; exits 2 with a
/// clear message on a bad combination.
engine::EngineConfig build_engine_config(const Options& opt) {
  engine::EngineConfig cfg;
  const auto kind = engine::parse_engine_kind(opt.engine);
  if (!kind.has_value()) {
    std::fprintf(stderr, "error: --engine must be seq or par (got '%s')\n",
                 opt.engine.c_str());
    std::exit(2);
  }
  cfg.kind = *kind;
  if (opt.shards_given) {
    if (opt.shards < 1) {
      std::fprintf(stderr, "error: --shards must be >= 1 (got %d)\n",
                   opt.shards);
      std::exit(2);
    }
    if (!cfg.parallel()) {
      std::fprintf(stderr,
                   "error: --shards only applies to --engine par "
                   "(the sequential engine is unsharded)\n");
      std::exit(2);
    }
    cfg.shards = opt.shards;
  }
  return cfg;
}

/// Validate the checkpoint/restore flag combinations; exits 2 on misuse.
/// Observability and multi-seed modes are rejected with checkpointing:
/// observer state is not part of the snapshot, so a restored run could
/// not reproduce their output byte-for-byte.
void check_checkpoint_flags(const Options& opt) {
  if (opt.checkpoint_every_given && opt.checkpoint_every == 0) {
    std::fprintf(stderr, "error: --checkpoint-every must be >= 1\n");
    std::exit(2);
  }
  if (opt.checkpoint_every > 0 && opt.checkpoint_out.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-every requires --checkpoint-out\n");
    std::exit(2);
  }
  if (!opt.checkpoint_out.empty() && opt.checkpoint_every == 0) {
    std::fprintf(stderr,
                 "error: --checkpoint-out requires --checkpoint-every\n");
    std::exit(2);
  }
  const bool checkpointing =
      opt.checkpoint_every > 0 || !opt.restore_path.empty();
  if (!checkpointing) return;
  if (!opt.trace_path.empty() || !opt.metrics_path.empty() ||
      opt.sample_every > 0) {
    std::fprintf(stderr,
                 "error: --trace/--metrics/--sample-every are incompatible "
                 "with checkpointing (observer state is outside the "
                 "snapshot)\n");
    std::exit(2);
  }
  if (opt.replicas > 1) {
    std::fprintf(stderr,
                 "error: --replicas is incompatible with checkpointing "
                 "(checkpoint one run at a time)\n");
    std::exit(2);
  }
}

sim::SimConfig build_config(const Options& opt) {
  sim::SimConfig cfg;
  cfg.topology.radix = service::parse_radices(opt.topo);
  cfg.topology.torus = !opt.mesh;
  cfg.router.wormhole_vcs = opt.vcs;
  cfg.router.wave_switches = opt.protocol == "wormhole" ? 0 : opt.k;
  cfg.protocol.max_misroutes = opt.m;
  cfg.protocol.circuit_cache_entries = opt.cache;
  cfg.protocol.pcs_only = opt.pcs_only;
  cfg.router.virtual_circuits = opt.virtual_circuits;
  cfg.protocol.max_packet_flits = opt.max_packet;
  cfg.faults.link_fault_rate = opt.faults;
  if (!opt.faults_file.empty()) {
    // Throws std::runtime_error on I/O, parse or schema errors; main's
    // catch maps that to exit code 2 like any flag misuse.
    const sim::FaultConfig sched = fault::load_faults_file(opt.faults_file);
    cfg.faults.events = sched.events;
    cfg.faults.storm = sched.storm;
    cfg.faults.churn = sched.churn;
    cfg.faults.dv = sched.dv;
  }
  cfg.seed = opt.seed;

  if (opt.protocol == "wormhole") cfg.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
  else if (opt.protocol == "clrp") cfg.protocol.protocol = sim::ProtocolKind::kClrp;
  else if (opt.protocol == "carp") cfg.protocol.protocol = sim::ProtocolKind::kCarp;
  else throw std::invalid_argument("unknown --protocol " + opt.protocol);

  if (opt.routing == "dor") cfg.router.routing = sim::RoutingKind::kDimensionOrder;
  else if (opt.routing == "duato") cfg.router.routing = sim::RoutingKind::kDuatoAdaptive;
  else if (opt.routing == "west-first") cfg.router.routing = sim::RoutingKind::kWestFirst;
  else if (opt.routing == "negative-first") cfg.router.routing = sim::RoutingKind::kNegativeFirst;
  else throw std::invalid_argument("unknown --routing " + opt.routing);

  if (opt.replacement == "lru") cfg.protocol.replacement = sim::ReplacementPolicy::kLru;
  else if (opt.replacement == "lfu") cfg.protocol.replacement = sim::ReplacementPolicy::kLfu;
  else if (opt.replacement == "fifo") cfg.protocol.replacement = sim::ReplacementPolicy::kFifo;
  else if (opt.replacement == "random") cfg.protocol.replacement = sim::ReplacementPolicy::kRandom;
  else throw std::invalid_argument("unknown --replacement " + opt.replacement);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 0;
  }
  check_checkpoint_flags(opt);
  try {
    const engine::EngineConfig engine_cfg = build_engine_config(opt);
    sim::SimConfig cfg = build_config(opt);
    cfg.validate();

    if (opt.replicas > 1) {
      // Multi-seed mode: run the same point `replicas` times through the
      // sweep harness (deterministic seeding, parallel workers) and print
      // the merged statistics instead of one run's.
      if (!opt.trace_path.empty() || !opt.metrics_path.empty()) {
        std::fprintf(stderr,
                     "warning: --trace/--metrics apply to single runs only; "
                     "ignored with --replicas\n");
      }
      harness::SweepPoint point;
      point.label = opt.topo + "/" + opt.protocol + "@" + opt.pattern;
      point.config = cfg;
      point.pattern = opt.pattern;
      point.message_flits = opt.length;
      point.offered_load = opt.load;
      point.warmup = opt.warmup;
      point.measure = opt.cycles;
      point.drain_cap = 40 * (opt.warmup + opt.cycles) + 1'000'000;
      harness::SweepOptions options;
      options.base_seed = opt.seed;
      options.replicas = opt.replicas;
      options.threads = opt.threads;
      options.engine = engine_cfg;
      const harness::SweepResult result = harness::run_sweep({point}, options);
      const harness::PointSummary& p = result.points.front();
      std::printf("merged %d replicas of %s (base seed %llu, %u thread(s), "
                  "%.2fs)\n",
                  p.replicas, point.label.c_str(),
                  static_cast<unsigned long long>(opt.seed),
                  result.threads_used, result.wall_seconds);
      std::printf("messages   offered %llu, delivered %llu, saturated "
                  "replicas %d\n",
                  static_cast<unsigned long long>(p.messages_offered),
                  static_cast<unsigned long long>(p.messages_delivered),
                  p.saturated_replicas);
      std::printf("latency    mean %.2f +/- %.2f  p95 %.1f  p99 %.1f  "
                  "max %.0f\n",
                  p.metrics.latency_mean.mean(),
                  p.metrics.latency_mean.stddev(),
                  p.metrics.latency_p95.mean(), p.metrics.latency_p99.mean(),
                  p.metrics.latency_max.max());
      std::printf("throughput %.4f +/- %.4f flits/node/cycle\n",
                  p.metrics.throughput.mean(), p.metrics.throughput.stddev());
      if (!opt.json_path.empty() &&
          !sim::write_json_file(harness::to_json(result), opt.json_path)) {
        return 2;
      }
      return p.saturated_replicas == 0 ? 0 : 1;
    }

    // Single runs always go through a CheckpointableRun; driven to
    // completion it is bit-identical to the old run_open_loop path, and
    // it is the seam --checkpoint-every/--restore need.
    std::unique_ptr<snap::CheckpointableRun> run;
    if (!opt.restore_path.empty()) {
      // Throws std::runtime_error (missing file) or snap::ArchiveError
      // (corrupt snapshot); main's catch maps both to exit 2.
      const snap::Snapshot snapshot = snap::Snapshot::load(opt.restore_path);
      run = std::make_unique<snap::CheckpointableRun>(snapshot);
      // Reporting below reads the options; in restore mode the snapshot
      // is the source of truth for config and workload.
      const snap::RunSpec& spec = run->spec();
      cfg = spec.config;
      opt.topo = service::format_radices(cfg.topology.radix);
      opt.routing = sim::to_string(cfg.router.routing);
      opt.pattern = spec.pattern;
      opt.length = spec.message_flits;
      opt.load = spec.offered_load;
      opt.warmup = spec.warmup;
      opt.cycles = spec.measure;
      opt.seed = spec.seed;
    } else {
      snap::RunSpec spec;
      spec.config = cfg;
      spec.pattern = opt.pattern;
      spec.message_flits = opt.length;
      spec.offered_load = opt.load;
      spec.warmup = opt.warmup;
      spec.measure = opt.cycles;
      spec.drain_cap = 40 * (opt.warmup + opt.cycles) + 1'000'000;
      spec.seed = opt.seed;
      run = std::make_unique<snap::CheckpointableRun>(spec);
    }
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
                opt.topo.c_str(), cfg.topology.torus ? "torus" : "mesh",
                opt.routing.c_str(), sim::to_string(cfg.protocol.protocol),
                cfg.router.wormhole_vcs, cfg.router.wave_switches,
                cfg.protocol.max_misroutes,
                cfg.protocol.circuit_cache_entries,
                sim::to_string(cfg.protocol.replacement));
    std::printf("workload: %s, %d-flit messages, load %.3f, %llu cycles "
                "measured (+%llu warmup)\n",
                opt.pattern.c_str(), opt.length, opt.load,
                static_cast<unsigned long long>(opt.cycles),
                static_cast<unsigned long long>(opt.warmup));
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
              .set("pattern", opt.pattern)
              .set("message_flits", opt.length)
              .set("offered_load", opt.load)
              .set("seed", opt.seed)
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
