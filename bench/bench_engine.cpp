// ENGINE -- sharded parallel step engine: seq vs par wall time on one
// large torus, with the bit-identity contract enforced on every leg.
//
// Unlike the bench_e* experiments this measures the simulator, not the
// paper's protocols: the same CLRP run is timed under the sequential
// stepper and under the parallel engine at several shard counts, every
// parallel leg's full event-stream digest is required to equal the
// sequential one, and the speedups are exported (with the host thread
// count — the ratio is meaningless without it; on a single-core host the
// parallel engine cannot win). This driver sweeps engines itself, so the
// common --engine/--shards flags are not applied here.
#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "engine/pool.hpp"
#include "harness/sweep.hpp"
#include "sim/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

struct Leg {
  std::int32_t shards = 0;   ///< 0 = sequential stepper
  double wall_seconds = 0.0;
  std::string digest;        ///< stats + cycle (+ event fingerprint)
  Cycle cycles = 0;
};

sim::SimConfig make_config(bool quick) {
  sim::SimConfig config;
  const std::int32_t radix = quick ? 8 : 16;
  config.topology.radix = {radix, radix};
  config.topology.torus = true;
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  config.seed = 9;
  return config;
}

sim::SimConfig make_wormhole_config(bool quick) {
  sim::SimConfig config = make_config(quick);
  config.protocol.protocol = sim::ProtocolKind::kWormholeOnly;
  config.router.wave_switches = 0;
  return config;
}

// The CLRP legs hash the full event stream into the digest; legs without
// the sink time the bare stepper and compare stats + final cycle instead.
Leg run_leg(const sim::SimConfig& config, bool quick, std::int32_t shards,
            double offered_load, bool with_sink, std::int32_t flits = 64,
            Cycle measure_override = 0) {
  core::Simulation sim(config);
  if (shards > 0) {
    engine::EngineConfig engine_config;
    engine_config.kind = engine::EngineKind::kPar;
    engine_config.shards = shards;
    sim.set_engine(
        engine::make_engine(engine_config, sim.topology().num_nodes()));
  }
  std::uint64_t fingerprint = 0x77617665u;
  if (with_sink) {
    sim.set_event_sink([&](const core::Event& ev) {
      fingerprint = sim::hash_mix(fingerprint ^ ev.at);
      fingerprint =
          sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.kind));
      fingerprint =
          sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.node));
      fingerprint =
          sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.msg));
      fingerprint =
          sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.circuit));
      fingerprint =
          sim::hash_mix(fingerprint ^ static_cast<std::uint64_t>(ev.port));
    });
  }
  load::UniformTraffic pattern(sim.topology());
  load::FixedSize sizes(flits);
  const auto start = std::chrono::steady_clock::now();
  const Cycle measure =
      measure_override > 0 ? measure_override : (quick ? 1500 : 4000);
  const auto r = load::run_open_loop(
      sim, pattern, sizes, offered_load,
      /*warmup=*/quick ? 300 : 500, measure,
      /*drain_cap=*/300'000, /*seed=*/33);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  Leg leg;
  leg.shards = shards;
  leg.wall_seconds = elapsed.count();
  leg.cycles = sim.now();
  leg.digest = harness::stats_to_json(r.stats).dump() + "@" +
               std::to_string(sim.now()) + "@" + std::to_string(fingerprint);
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli("ENGINE",
                 "sharded parallel engine: wall time vs the sequential "
                 "stepper, results bit-identical");
  if (!cli.parse(argc, argv)) return cli.exit_code();
  return cli.run([&] {
    const bool quick = cli.quick();
    const unsigned hw = engine::resolve_engine_threads(0);
    bench::banner(
        "ENGINE",
        "sharded parallel engine: wall time vs the sequential stepper",
        (quick ? std::string("8x8") : std::string("16x16")) +
            " torus, CLRP, uniform load 0.12, 64-flit messages; every "
            "parallel leg must reproduce the sequential event stream "
            "exactly (host threads: " +
            bench::fmt_int(hw) + ")");
    const sim::SimConfig config = make_config(quick);

    auto krate = [](const Leg& leg) {
      return leg.wall_seconds > 0.0
                 ? static_cast<double>(leg.cycles) / leg.wall_seconds / 1000.0
                 : 0.0;
    };

    const Leg seq = run_leg(config, quick, /*shards=*/0,
                            /*offered_load=*/0.12, /*with_sink=*/true);
    std::vector<std::int32_t> shard_counts{2, 4, 8};
    bench::Table table(
        {"engine", "shards", "wall-s", "kcycles/s", "speedup", "identical"});
    table.add_row({"seq", "-", bench::fmt(seq.wall_seconds, 3),
                   bench::fmt(krate(seq), 1), "1.00", "-"});

    sim::JsonValue points = sim::JsonValue::array();
    double best_speedup = 0.0;
    for (const std::int32_t shards : shard_counts) {
      const Leg par = run_leg(config, quick, shards, /*offered_load=*/0.12,
                              /*with_sink=*/true);
      bench::require(par.digest == seq.digest,
                     "parallel engine (shards=" + std::to_string(shards) +
                         ") diverged from the sequential stepper");
      const double speedup =
          par.wall_seconds > 0.0 ? seq.wall_seconds / par.wall_seconds : 0.0;
      best_speedup = std::max(best_speedup, speedup);
      table.add_row({"par", bench::fmt_int(shards),
                     bench::fmt(par.wall_seconds, 3), bench::fmt(krate(par), 1),
                     bench::fmt(speedup, 2), "yes"});
      points.push_back(sim::JsonValue::object()
                      .set("shards", shards)
                      .set("wall_seconds", par.wall_seconds)
                      .set("kcycles_per_s", krate(par))
                      .set("speedup", speedup)
                      .set("identical", true));
    }
    cli.report(table, "engine_speedup");

    // Wormhole leg: wormhole-only, sparse load, short messages, with no
    // event sink (see run_leg); identity is stats + final cycle vs seq.
    const sim::SimConfig wh = make_wormhole_config(quick);
    // Per-node load scaled so the whole-network message rate matches
    // across configs.
    const double wh_load = quick ? 0.01 : 0.0025;
    const std::int32_t wh_flits = 16;
    const std::int32_t wh_shards = 4;
    const Leg wh_seq = run_leg(wh, quick, /*shards=*/0, wh_load,
                               /*with_sink=*/false, wh_flits);
    const Leg wh_par =
        run_leg(wh, quick, wh_shards, wh_load, /*with_sink=*/false, wh_flits);
    bench::require(wh_par.digest == wh_seq.digest,
                   "parallel engine (wormhole, shards=" +
                       std::to_string(wh_shards) +
                       ") diverged from the sequential stepper");
    bench::Table whtable(
        {"engine", "shards", "wall-s", "kcycles/s", "identical"});
    whtable.add_row({"seq", "-", bench::fmt(wh_seq.wall_seconds, 3),
                     bench::fmt(krate(wh_seq), 1), "-"});
    whtable.add_row({"par", bench::fmt_int(wh_shards),
                     bench::fmt(wh_par.wall_seconds, 3),
                     bench::fmt(krate(wh_par), 1), "yes"});
    sim::JsonValue whpoint = sim::JsonValue::object()
                                 .set("shards", wh_shards)
                                 .set("wall_seconds", wh_par.wall_seconds)
                                 .set("kcycles_per_s", krate(wh_par))
                                 .set("identical", true);
    cli.report(whtable, "engine_wormhole");

    // Fault legs: the same CLRP torus through a mid-run failure storm
    // (15% of links fail, then recover). Fault application lives in the
    // sequential prologue of every step, so the bit-identity contract
    // extends to faulty runs: each shard count must reproduce the
    // sequential event stream, fault events included.
    sim::SimConfig stormy = config;
    stormy.faults.storm.at = quick ? 400 : 600;
    stormy.faults.storm.fraction = 0.15;
    stormy.faults.storm.repair_after = quick ? 600 : 1000;
    const Leg fault_seq = run_leg(stormy, quick, /*shards=*/0,
                                  /*offered_load=*/0.12, /*with_sink=*/true);
    bench::Table ftable(
        {"engine", "shards", "wall-s", "kcycles/s", "vs healthy", "identical"});
    auto vs_healthy = [&](const Leg& leg) {
      const double healthy = krate(seq);
      return healthy > 0.0 ? krate(leg) / healthy : 0.0;
    };
    ftable.add_row({"seq", "-", bench::fmt(fault_seq.wall_seconds, 3),
                    bench::fmt(krate(fault_seq), 1),
                    bench::fmt(vs_healthy(fault_seq), 2), "-"});
    sim::JsonValue fpoints = sim::JsonValue::array();
    fpoints.push_back(sim::JsonValue::object()
                          .set("shards", 0)
                          .set("wall_seconds", fault_seq.wall_seconds)
                          .set("kcycles_per_s", krate(fault_seq))
                          .set("identical", true));
    for (const std::int32_t shards : {2, 8}) {
      const Leg par = run_leg(stormy, quick, shards, /*offered_load=*/0.12,
                              /*with_sink=*/true);
      bench::require(par.digest == fault_seq.digest,
                     "parallel engine (shards=" + std::to_string(shards) +
                         ") diverged from the sequential stepper under a "
                         "failure storm");
      ftable.add_row({"par", bench::fmt_int(shards),
                      bench::fmt(par.wall_seconds, 3),
                      bench::fmt(krate(par), 1), bench::fmt(vs_healthy(par), 2),
                      "yes"});
      fpoints.push_back(sim::JsonValue::object()
                            .set("shards", shards)
                            .set("wall_seconds", par.wall_seconds)
                            .set("kcycles_per_s", krate(par))
                            .set("identical", true));
    }
    cli.report(ftable, "engine_faults");

    // Healthy-path overhead: with no dynamic faults configured the fault
    // plane is never constructed and the per-step hook is a null check.
    // An "armed" run must build the plane and pay the per-cycle hook
    // (timeline scan, dormancy check, DV idle step) yet cost <= 5%. The
    // schedule is a link-up for an already-alive link: dynamic() is true
    // so the plane exists, but the transition is idempotence-filtered --
    // the plane never wakes and the timeline exhausts at cycle 0, so the
    // drain loop terminates exactly like the healthy run's (a genuinely
    // pending future event intentionally holds off drained()). Arming
    // also forks the workload rng, so the armed run is a different --
    // statistically identical -- sample of the same traffic
    // distribution, not digest-comparable to the healthy one; each
    // config must still reproduce itself bit for bit across repetitions.
    // The ratio compares accumulated-best kcycles/s (not wall time):
    // rates normalize the two runs' different drain lengths, and each
    // side's best repetition converges to that workload's true capacity
    // as repetitions accumulate, squeezing out scheduler noise that on a
    // loaded runner dwarfs the hook cost itself. Repetitions interleave
    // and keep coming (up to a cap) until the estimate clears the gate:
    // a noisy run needs a few extra samples, while a genuine >5% hook
    // regression can never clear it and fails at the cap. The legs also
    // run a 5x longer measure window than the speedup legs so a noise
    // burst is amortized instead of deciding the ratio.
    sim::SimConfig armed = config;
    armed.faults.events.push_back(
        sim::FaultEvent{/*at=*/0, sim::FaultEventKind::kLinkUp, 0, 0});
    const Cycle overhead_measure = quick ? 7500 : 20'000;
    constexpr int kMinOverheadReps = 3;
    constexpr int kMaxOverheadReps = 12;
    double healthy_rate = 0.0;
    double armed_rate = 0.0;
    double fault_overhead = 0.0;
    std::string healthy_digest;
    std::string armed_digest;
    for (int rep = 0; rep < kMaxOverheadReps; ++rep) {
      const Leg h = run_leg(config, quick, /*shards=*/0,
                            /*offered_load=*/0.12, /*with_sink=*/false,
                            /*flits=*/64, overhead_measure);
      const Leg a = run_leg(armed, quick, /*shards=*/0,
                            /*offered_load=*/0.12, /*with_sink=*/false,
                            /*flits=*/64, overhead_measure);
      healthy_rate = std::max(healthy_rate, krate(h));
      armed_rate = std::max(armed_rate, krate(a));
      bench::require(rep == 0 || h.digest == healthy_digest,
                     "healthy overhead leg is not reproducible");
      bench::require(rep == 0 || a.digest == armed_digest,
                     "armed-but-quiet overhead leg is not reproducible");
      healthy_digest = h.digest;
      armed_digest = a.digest;
      fault_overhead = armed_rate > 0.0 ? healthy_rate / armed_rate : 0.0;
      if (rep + 1 >= kMinOverheadReps && fault_overhead <= 1.05) break;
    }
    bench::require(fault_overhead <= 1.05,
                   "fault hook costs more than 5% on the healthy path "
                   "(healthy/armed kcycles-per-s ratio " +
                       bench::fmt(fault_overhead, 3) + ")");

    cli.note("fault_points", std::move(fpoints));
    cli.note("fault_overhead_ratio", sim::JsonValue(fault_overhead));
    cli.note("seq_wall_seconds", sim::JsonValue(seq.wall_seconds));
    cli.note("seq_kcycles_per_s", sim::JsonValue(krate(seq)));
    cli.note("engine_points", std::move(points));
    cli.note("wormhole_point", std::move(whpoint));
    cli.note("best_speedup", sim::JsonValue(best_speedup));
    std::printf("\nbest speedup %.2fx on %u host thread(s); all legs "
                "bit-identical to seq; fault hook healthy-path overhead "
                "%.3fx\n",
                best_speedup, hw, fault_overhead);
    return true;
  });
}
