// Micro-benchmarks (google-benchmark) for the hot components: MB-m
// decision, circuit-cache operations, CDG construction, router pipeline
// and whole-network cycle cost.
#include <benchmark/benchmark.h>

#include "core/circuit_cache.hpp"
#include "core/simulation.hpp"
#include "pcs/mbm.hpp"
#include "routing/cdg.hpp"
#include "routing/dor.hpp"
#include "routing/duato.hpp"
#include "workload/generator.hpp"

namespace {

using namespace wavesim;

void BM_MbmDecide(benchmark::State& state) {
  topo::KAryNCube topo({8, 8}, true);
  // Port 0 held by a circuit still being established, the rest free.
  pcs::MbmView view{/*available=*/0b1110, /*established=*/0,
                    /*pending=*/0b0001};
  benchmark::DoNotOptimize(view);
  NodeId node = 0;
  for (auto _ : state) {
    auto d = pcs::decide(topo, node, 27, view, kInvalidPort, 0, 2, false);
    benchmark::DoNotOptimize(d);
    node = (node + 1) % 27;
  }
}
BENCHMARK(BM_MbmDecide);

void BM_CacheFindHit(benchmark::State& state) {
  core::CircuitCache cache(static_cast<std::int32_t>(state.range(0)),
                           sim::ReplacementPolicy::kLru, sim::Rng{1});
  for (std::int32_t d = 0; d < state.range(0); ++d) {
    cache.allocate(d + 1, d, nullptr)->ack_returned = true;
  }
  NodeId probe_dest = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(probe_dest));
    probe_dest = probe_dest % state.range(0) + 1;
  }
}
BENCHMARK(BM_CacheFindHit)->Arg(4)->Arg(8)->Arg(32);

void BM_CacheAllocateEvict(benchmark::State& state) {
  core::CircuitCache cache(8, sim::ReplacementPolicy::kLru, sim::Rng{1});
  Cycle now = 0;
  NodeId dest = 1;
  for (auto _ : state) {
    std::optional<core::CacheEntry> evicted;
    auto* e = cache.allocate(dest, now++, &evicted);
    e->ack_returned = true;
    benchmark::DoNotOptimize(e);
    dest = dest % 1000 + 1;
  }
}
BENCHMARK(BM_CacheAllocateEvict);

void BM_CdgBuildDorTorus(benchmark::State& state) {
  const auto r = static_cast<std::int32_t>(state.range(0));
  topo::KAryNCube topo({r, r}, true);
  route::DimensionOrderRouting dor(topo, 2);
  for (auto _ : state) {
    auto g = route::build_cdg(topo, dor, 2, false);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_CdgBuildDorTorus)->Arg(4)->Arg(8);

void BM_CdgEscapeCheckDuato(benchmark::State& state) {
  topo::KAryNCube topo({8, 8}, true);
  route::DuatoAdaptiveRouting duato(topo, 3);
  for (auto _ : state) {
    auto g = route::build_cdg(topo, duato, 3, true);
    benchmark::DoNotOptimize(g.acyclic());
  }
}
BENCHMARK(BM_CdgEscapeCheckDuato);

void BM_NetworkCycleIdle(benchmark::State& state) {
  core::Simulation sim(sim::SimConfig::default_torus());
  for (auto _ : state) sim.step();
}
BENCHMARK(BM_NetworkCycleIdle);

void BM_NetworkCycleLoaded(benchmark::State& state) {
  sim::SimConfig config = sim::SimConfig::default_torus();
  config.protocol.protocol = sim::ProtocolKind::kClrp;
  core::Simulation sim(config);
  load::UniformTraffic pattern(sim.topology());
  load::FixedSize sizes(32);
  load::OpenLoopGenerator gen(sim, pattern, sizes, 0.2, sim::Rng{3});
  for (auto _ : state) gen.tick();
}
BENCHMARK(BM_NetworkCycleLoaded);

void BM_WormholeCycleLoaded(benchmark::State& state) {
  core::Simulation sim(sim::SimConfig::wormhole_baseline());
  load::UniformTraffic pattern(sim.topology());
  load::FixedSize sizes(32);
  load::OpenLoopGenerator gen(sim, pattern, sizes, 0.2, sim::Rng{3});
  for (auto _ : state) gen.tick();
}
BENCHMARK(BM_WormholeCycleLoaded);

}  // namespace

BENCHMARK_MAIN();
