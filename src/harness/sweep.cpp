#include "harness/sweep.hpp"

#include <chrono>
#include <thread>

#include "engine/pool.hpp"
#include "harness/runner.hpp"
#include "sim/build_info.hpp"
#include "sim/rng.hpp"
#include "workload/generator.hpp"
#include "workload/size_dist.hpp"
#include "workload/traffic.hpp"

namespace wavesim::harness {

std::uint64_t derive_seed(std::uint64_t base_seed, std::size_t point_index,
                          std::int32_t replica) noexcept {
  // Three chained SplitMix64 rounds, folding one input per round. The
  // mixing constants are SplitMix64's own; any fixed odd constants work.
  std::uint64_t state = base_seed ^ 0x6a09e667f3bcc909ULL;
  std::uint64_t h = sim::splitmix64(state);
  state = h ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(point_index) + 1));
  h = sim::splitmix64(state);
  state = h ^ (0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(replica) + 1));
  return sim::splitmix64(state);
}

namespace {

/// Raw outcome of one (point, replica) task, written into its own slot.
struct ReplicaOutcome {
  core::SimulationStats stats;
  bool drained = true;
  bool stuck = false;  ///< final watchdog verdict was kStuck
};

ReplicaOutcome run_one(const SweepPoint& point, std::uint64_t seed,
                       const engine::EngineConfig& engine_config) {
  sim::SimConfig config = point.config;
  config.seed = seed;
  core::Simulation sim(config);
  if (engine_config.parallel()) {
    sim.set_engine(
        engine::make_engine(engine_config, sim.topology().num_nodes()));
  }
  std::uint64_t stream = seed;
  const std::uint64_t pattern_seed = sim::splitmix64(stream);
  const std::uint64_t workload_seed = sim::splitmix64(stream);
  auto pattern =
      load::make_traffic(point.pattern, sim.topology(), sim::Rng{pattern_seed});
  load::FixedSize sizes(point.message_flits);
  const auto r =
      load::run_open_loop(sim, *pattern, sizes, point.offered_load,
                          point.warmup, point.measure, point.drain_cap,
                          workload_seed);
  return ReplicaOutcome{r.stats, r.drained,
                        r.watchdog_verdict == verify::Verdict::kStuck};
}

}  // namespace

SweepResult run_sweep(const std::vector<SweepPoint>& points,
                      const SweepOptions& options) {
  for (const auto& point : points) point.config.validate();
  const std::int32_t replicas = options.replicas > 0 ? options.replicas : 1;
  const std::size_t n = points.size() * static_cast<std::size_t>(replicas);

  // [det: local] wall-time measurement only; wall_seconds is reported
  // but excluded from the determinism contract and all digests.
  const auto start = std::chrono::steady_clock::now();
  std::vector<ReplicaOutcome> outcomes(n);
  const unsigned threads =
      n > 0 ? std::min<unsigned>(
                  engine::resolve_engine_threads(options.threads),
                  static_cast<unsigned>(n))
            : 1;
  run_indexed(
      n,
      [&](std::size_t i) {
        const std::size_t pi = i / static_cast<std::size_t>(replicas);
        const auto ri = static_cast<std::int32_t>(
            i % static_cast<std::size_t>(replicas));
        outcomes[i] = run_one(points[pi],
                              derive_seed(options.base_seed, pi, ri),
                              options.engine);
      },
      threads);

  // Merge serially in index order: the result is a pure function of the
  // outcome slots, so it does not depend on worker scheduling.
  SweepResult result;
  result.base_seed = options.base_seed;
  result.replicas = replicas;
  result.engine = options.engine;
  result.threads_used = threads;
  result.runs = n;
  result.points.reserve(points.size());
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const SweepPoint& point = points[pi];
    PointSummary summary;
    summary.label = point.label;
    summary.pattern = point.pattern;
    summary.message_flits = point.message_flits;
    summary.offered_load = point.offered_load;
    summary.replicas = replicas;
    for (std::int32_t ri = 0; ri < replicas; ++ri) {
      const ReplicaOutcome& o =
          outcomes[pi * static_cast<std::size_t>(replicas) +
                   static_cast<std::size_t>(ri)];
      if (!o.drained) ++summary.saturated_replicas;
      if (o.stuck) ++summary.stuck_replicas;
      summary.messages_offered += o.stats.messages_offered;
      summary.messages_delivered += o.stats.messages_delivered;
      summary.flits_delivered += o.stats.flits_delivered;
      CounterSummary& c = summary.counters;
      c.probes_launched += o.stats.probes_launched;
      c.probe_backtracks += o.stats.probe_backtracks;
      c.probe_misroutes += o.stats.probe_misroutes;
      c.teardowns += o.stats.teardowns;
      c.fallback_count += o.stats.fallback_count;
      c.wormhole_count += o.stats.wormhole_count;
      c.cache_hits += o.stats.cache_hits;
      c.cache_misses += o.stats.cache_misses;
      c.cache_evictions += o.stats.cache_evictions;
      c.links_failed += o.stats.links_failed;
      c.links_restored += o.stats.links_restored;
      c.circuits_killed += o.stats.circuits_killed;
      c.circuits_invalidated += o.stats.circuits_invalidated;
      c.unreachable_fallbacks += o.stats.unreachable_fallbacks;
      c.routes_withdrawn += o.stats.routes_withdrawn;
      c.route_timeouts += o.stats.route_timeouts;
      MetricSummary& m = summary.metrics;
      m.latency_mean.add(o.stats.latency_mean);
      m.latency_p50.add(o.stats.latency_p50);
      m.latency_p95.add(o.stats.latency_p95);
      m.latency_p99.add(o.stats.latency_p99);
      m.latency_max.add(o.stats.latency_max);
      m.throughput.add(o.stats.throughput_flits_per_node_cycle);
      m.cache_hit_rate.add(o.stats.cache_hit_rate());
      m.setup_success_rate.add(o.stats.setup_success_rate());
    }
    result.points.push_back(std::move(summary));
  }
  result.wall_seconds =
      // [det: local] reported measurement, excluded from all digests.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

namespace {

sim::JsonValue metric_json(const sim::OnlineStats& s) {
  return sim::JsonValue::object()
      .set("count", s.count())
      .set("mean", s.mean())
      .set("stddev", s.stddev())
      .set("min", s.min())
      .set("max", s.max());
}

}  // namespace

sim::JsonValue points_to_json(const SweepResult& result) {
  sim::JsonValue points = sim::JsonValue::array();
  for (const PointSummary& p : result.points) {
    sim::JsonValue metrics = sim::JsonValue::object();
    metrics.set("latency_mean", metric_json(p.metrics.latency_mean))
        .set("latency_p50", metric_json(p.metrics.latency_p50))
        .set("latency_p95", metric_json(p.metrics.latency_p95))
        .set("latency_p99", metric_json(p.metrics.latency_p99))
        .set("latency_max", metric_json(p.metrics.latency_max))
        .set("throughput_flits_per_node_cycle", metric_json(p.metrics.throughput))
        .set("cache_hit_rate", metric_json(p.metrics.cache_hit_rate))
        .set("setup_success_rate", metric_json(p.metrics.setup_success_rate));
    points.push_back(
        sim::JsonValue::object()
            .set("label", p.label)
            .set("pattern", p.pattern)
            .set("message_flits", p.message_flits)
            .set("offered_load", p.offered_load)
            .set("replicas", p.replicas)
            .set("saturated_replicas", p.saturated_replicas)
            .set("stuck_replicas", p.stuck_replicas)
            .set("messages_offered", p.messages_offered)
            .set("messages_delivered", p.messages_delivered)
            .set("flits_delivered", p.flits_delivered)
            .set("counters",
                 sim::JsonValue::object()
                     .set("probes_launched", p.counters.probes_launched)
                     .set("probe_backtracks", p.counters.probe_backtracks)
                     .set("probe_misroutes", p.counters.probe_misroutes)
                     .set("teardowns", p.counters.teardowns)
                     .set("fallback_count", p.counters.fallback_count)
                     .set("wormhole_count", p.counters.wormhole_count)
                     .set("cache_hits", p.counters.cache_hits)
                     .set("cache_misses", p.counters.cache_misses)
                     .set("cache_evictions", p.counters.cache_evictions)
                     .set("links_failed", p.counters.links_failed)
                     .set("links_restored", p.counters.links_restored)
                     .set("circuits_killed", p.counters.circuits_killed)
                     .set("circuits_invalidated",
                          p.counters.circuits_invalidated)
                     .set("unreachable_fallbacks",
                          p.counters.unreachable_fallbacks)
                     .set("routes_withdrawn", p.counters.routes_withdrawn)
                     .set("route_timeouts", p.counters.route_timeouts))
            .set("metrics", std::move(metrics)));
  }
  return points;
}

sim::JsonValue to_json(const SweepResult& result) {
  return sim::JsonValue::object()
      .set("schema", "wavesim.sweep.v1")
      .set("generated_by", sim::git_describe())
      .set("base_seed", result.base_seed)
      .set("replicas", result.replicas)
      .set("engine", result.engine.to_json())
      .set("threads", result.threads_used)
      .set("host_threads", std::thread::hardware_concurrency())
      .set("runs", result.runs)
      .set("wall_seconds", result.wall_seconds)
      .set("points", points_to_json(result));
}

sim::JsonValue stats_to_json(const core::SimulationStats& stats) {
  return sim::JsonValue::object()
      .set("messages_offered", stats.messages_offered)
      .set("messages_delivered", stats.messages_delivered)
      .set("flits_delivered", stats.flits_delivered)
      .set("latency_mean", stats.latency_mean)
      .set("latency_p50", stats.latency_p50)
      .set("latency_p95", stats.latency_p95)
      .set("latency_p99", stats.latency_p99)
      .set("latency_max", stats.latency_max)
      .set("throughput_flits_per_node_cycle",
           stats.throughput_flits_per_node_cycle)
      .set("circuit_hit_count", stats.circuit_hit_count)
      .set("circuit_setup_count", stats.circuit_setup_count)
      .set("fallback_count", stats.fallback_count)
      .set("wormhole_count", stats.wormhole_count)
      .set("circuit_hit_latency", stats.circuit_hit_latency)
      .set("circuit_setup_latency", stats.circuit_setup_latency)
      .set("fallback_latency", stats.fallback_latency)
      .set("wormhole_latency", stats.wormhole_latency)
      .set("cache_hits", stats.cache_hits)
      .set("cache_misses", stats.cache_misses)
      .set("cache_evictions", stats.cache_evictions)
      .set("probes_launched", stats.probes_launched)
      .set("probes_succeeded", stats.probes_succeeded)
      .set("probes_failed", stats.probes_failed)
      .set("probe_advances", stats.probe_advances)
      .set("probe_backtracks", stats.probe_backtracks)
      .set("probe_misroutes", stats.probe_misroutes)
      .set("release_requests", stats.release_requests)
      .set("teardowns", stats.teardowns)
      .set("buffer_reallocs", stats.buffer_reallocs)
      .set("faults", sim::JsonValue::object()
                         .set("links_failed", stats.links_failed)
                         .set("links_restored", stats.links_restored)
                         .set("circuits_killed", stats.circuits_killed)
                         .set("circuits_invalidated", stats.circuits_invalidated)
                         .set("probes_killed", stats.probes_killed)
                         .set("transfers_aborted", stats.transfers_aborted)
                         .set("unreachable_fallbacks",
                              stats.unreachable_fallbacks)
                         .set("routes_withdrawn", stats.routes_withdrawn)
                         .set("route_timeouts", stats.route_timeouts)
                         .set("dv_updates_sent", stats.dv_updates_sent)
                         .set("dv_triggered_updates", stats.dv_triggered_updates)
                         .set("dv_adverts_dropped", stats.dv_adverts_dropped));
}

}  // namespace wavesim::harness
