// Deterministic checkpoint/restore (src/snap): restore(snapshot(S)) then
// stepping N cycles must be bit-identical to stepping S directly — same
// section bytes, same digests, same experiment results — across engines
// and shard counts, through probe setup, teardown and fault storms.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/simulation.hpp"
#include "engine/engine.hpp"
#include "harness/sweep.hpp"
#include "snap/runstate.hpp"
#include "snap/snapshot.hpp"

namespace {

using namespace wavesim;

snap::RunSpec small_clrp_spec() {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::small_mesh();
  spec.pattern = "working-set";
  spec.message_flits = 16;
  spec.offered_load = 0.20;
  spec.warmup = 600;
  spec.measure = 1200;
  spec.drain_cap = 60'000;
  spec.seed = 7;
  return spec;
}

snap::RunSpec torus_carp_spec() {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::default_torus();
  spec.config.protocol.protocol = sim::ProtocolKind::kCarp;
  spec.pattern = "transpose";
  spec.message_flits = 32;
  spec.offered_load = 0.15;
  spec.warmup = 500;
  spec.measure = 1000;
  spec.drain_cap = 80'000;
  spec.seed = 21;
  return spec;
}

snap::RunSpec storm_spec() {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::default_torus();
  spec.config.faults.storm.at = 900;
  spec.config.faults.storm.fraction = 0.25;
  spec.config.faults.storm.repair_after = 700;
  spec.pattern = "uniform";
  spec.message_flits = 24;
  spec.offered_load = 0.12;
  spec.warmup = 600;
  spec.measure = 1500;
  spec.drain_cap = 100'000;
  spec.seed = 5;
  return spec;
}

/// 16x16 CLRP torus, uniform load 0.12, 64-flit messages: the largest
/// network the suite snapshots. Warmup is a third of the run, so a warm
/// start skips real work.
snap::RunSpec torus16_clrp_spec() {
  snap::RunSpec spec;
  spec.config.topology.radix = {16, 16};
  spec.config.topology.torus = true;
  spec.config.protocol.protocol = sim::ProtocolKind::kClrp;
  spec.config.seed = 9;
  spec.pattern = "uniform";
  spec.message_flits = 64;
  spec.offered_load = 0.12;
  spec.warmup = 4000;
  spec.measure = 8000;
  spec.drain_cap = 300'000;
  spec.seed = 33;
  return spec;
}

/// Pure wormhole (k=0) 8x8 torus past saturation with Duato routing: at
/// the cut, routers hold VCs waiting for VC allocation, VCs streaming
/// through the switch (some stalled on credits) and idle VCs, so every
/// router slot set must be rebuilt on restore.
snap::RunSpec saturated_wormhole_spec(std::int32_t vcs) {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::wormhole_baseline();
  spec.config.router.routing = sim::RoutingKind::kDuatoAdaptive;
  spec.config.router.wormhole_vcs = vcs;
  spec.pattern = "uniform";
  spec.message_flits = 16;
  spec.offered_load = vcs > 8 ? 0.8 : 0.6;
  spec.warmup = 300;
  spec.measure = 900;
  spec.drain_cap = 100'000;
  spec.seed = 11;
  return spec;
}

std::unique_ptr<core::StepEngine> par_engine(std::int32_t nodes,
                                             std::int32_t shards) {
  engine::EngineConfig cfg;
  cfg.kind = engine::EngineKind::kPar;
  cfg.shards = shards;
  return engine::make_engine(cfg, nodes);
}

/// Drive to completion and return the final full-state digest.
std::uint64_t finish(snap::CheckpointableRun& run) {
  while (!run.done()) run.advance(1'000'000);
  return run.checkpoint().digest();
}

void expect_same_result(const load::ExperimentResult& a,
                        const load::ExperimentResult& b) {
  EXPECT_EQ(a.offered_messages, b.offered_messages);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.cycles_total, b.cycles_total);
  EXPECT_EQ(a.max_stalled, b.max_stalled);
  EXPECT_EQ(a.watchdog_verdict, b.watchdog_verdict);
  EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered);
  EXPECT_EQ(a.stats.flits_delivered, b.stats.flits_delivered);
  // Latencies are deterministic sums of integers: bitwise equality.
  EXPECT_EQ(a.stats.latency_mean, b.stats.latency_mean);
  EXPECT_EQ(a.stats.latency_max, b.stats.latency_max);
  EXPECT_EQ(a.stats.probes_launched, b.stats.probes_launched);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.links_failed, b.stats.links_failed);
  EXPECT_EQ(a.stats.transfers_aborted, b.stats.transfers_aborted);
}

/// The core property: checkpoint at `cut`, restore into a fresh run, and
/// both the uninterrupted original and the restored copy must agree on
/// every subsequent checkpoint digest and on the final result.
void check_round_trip(const snap::RunSpec& spec, Cycle cut) {
  snap::CheckpointableRun original(spec);
  original.advance(cut);
  snap::Snapshot at_cut = original.checkpoint();

  // Serialization itself must round-trip byte-exactly.
  snap::Snapshot decoded = snap::Snapshot::decode(at_cut.encode());
  EXPECT_EQ(decoded.digest(), at_cut.digest());

  snap::CheckpointableRun restored(decoded);
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_EQ(restored.checkpoint().digest(), at_cut.digest());

  // March both in mismatched slice sizes: slicing must not matter.
  Cycle slice = 1;
  while (!original.done() || !restored.done()) {
    original.advance(slice);
    restored.advance(2 * slice + 1);
    restored.advance(0);
    while (restored.now() < original.now() && !restored.done()) {
      restored.advance(original.now() - restored.now());
    }
    while (original.now() < restored.now() && !original.done()) {
      original.advance(restored.now() - original.now());
    }
    ASSERT_EQ(original.now(), restored.now());
    ASSERT_EQ(original.checkpoint().digest(), restored.checkpoint().digest());
    slice = slice * 3 + 7;
  }
  expect_same_result(original.result(), restored.result());
}

TEST(SnapArchive, PodAndContainersRoundTrip) {
  snap::Archive w = snap::Archive::writer();
  std::uint64_t a = 0x1122334455667788ULL;
  bool flag = true;
  std::string s = "wavesim";
  std::vector<std::int32_t> v{3, 1, 4, 1, 5};
  w.pod(a);
  w.pod(flag);
  w.str(s);
  w.vec_pod(v);

  snap::Archive r = snap::Archive::reader(w.bytes());
  std::uint64_t a2 = 0;
  bool flag2 = false;
  std::string s2;
  std::vector<std::int32_t> v2;
  r.pod(a2);
  r.pod(flag2);
  r.str(s2);
  r.vec_pod(v2);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(flag2, flag);
  EXPECT_EQ(s2, s);
  EXPECT_EQ(v2, v);
  EXPECT_TRUE(r.exhausted());

  // Truncation throws instead of reading garbage.
  snap::Archive t = snap::Archive::reader({1, 2, 3});
  std::uint64_t big = 0;
  EXPECT_THROW(t.pod(big), snap::ArchiveError);
}

TEST(SnapSnapshot, EncodeDecodeAndErrors) {
  snap::Snapshot snap;
  snap.set("alpha", {1, 2, 3});
  snap.set("beta", {});
  const auto bytes = snap.encode();
  const snap::Snapshot back = snap::Snapshot::decode(bytes);
  EXPECT_EQ(back.digest(), snap.digest());
  EXPECT_EQ(back.section("alpha"), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(back.has("beta"));
  EXPECT_FALSE(back.has("gamma"));
  EXPECT_THROW(back.section("gamma"), snap::ArchiveError);

  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[2] ^= 0xff;  // clobber the magic
  EXPECT_THROW(snap::Snapshot::decode(corrupt), snap::ArchiveError);
  corrupt = bytes;
  corrupt.resize(corrupt.size() - 1);
  EXPECT_THROW(snap::Snapshot::decode(corrupt), snap::ArchiveError);
}

TEST(SnapSnapshot, SaveLoadAtomic) {
  snap::Snapshot snap;
  snap.set("data", {9, 8, 7, 6});
  const std::string path = "test_snap_saveload.snap";
  snap.save(path);
  const snap::Snapshot back = snap::Snapshot::load(path);
  EXPECT_EQ(back.digest(), snap.digest());
  // The tmp file must be gone after a successful save.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
  EXPECT_THROW(snap::Snapshot::load(path), std::runtime_error);
}

TEST(SnapSnapshot, MidMeasure16x16SurvivesSaveLoadAndRestore) {
  // Mid-measure, where the network is busiest and the snapshot largest.
  const snap::RunSpec spec = torus16_clrp_spec();
  snap::CheckpointableRun run(spec);
  run.advance(spec.warmup + spec.measure / 2);
  const snap::Snapshot snapshot = run.checkpoint();
  const std::string path = "test_snap_16x16.snap";
  snapshot.save(path);
  const snap::Snapshot loaded = snap::Snapshot::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.digest(), snapshot.digest());
  snap::CheckpointableRun restored(loaded);
  EXPECT_EQ(restored.now(), run.now());
  EXPECT_EQ(restored.checkpoint().digest(), snapshot.digest());
}

TEST(SnapConfig, RoundTripsEveryField) {
  sim::SimConfig cfg = sim::SimConfig::default_torus();
  cfg.topology.radix = {4, 4, 2};
  cfg.router.routing = sim::RoutingKind::kDuatoAdaptive;
  cfg.router.wormhole_vcs = 3;
  cfg.protocol.protocol = sim::ProtocolKind::kCarp;
  cfg.protocol.replacement = sim::ReplacementPolicy::kLfu;
  cfg.software.wormhole_send_overhead = 12;
  cfg.faults.link_fault_rate = 0.05;
  cfg.faults.events.push_back(
      {100, sim::FaultEventKind::kLinkDown, 3, 2});
  cfg.faults.storm = {500, 0.1, 250};
  cfg.faults.churn = {0.001, 10, 2000, 300};
  cfg.seed = 99;

  snap::Archive w = snap::Archive::writer();
  snap::snap_config(w, cfg);
  snap::Archive r = snap::Archive::reader(w.bytes());
  sim::SimConfig back;
  snap::snap_config(r, back);
  EXPECT_TRUE(r.exhausted());

  snap::Archive w2 = snap::Archive::writer();
  snap::snap_config(w2, back);
  EXPECT_EQ(w2.bytes(), w.bytes());
  EXPECT_EQ(back.topology.radix, cfg.topology.radix);
  EXPECT_EQ(back.faults.events, cfg.faults.events);
  EXPECT_EQ(back.faults.storm, cfg.faults.storm);
}

TEST(SnapRestore, RejectsConfigMismatch) {
  snap::RunSpec spec = small_clrp_spec();
  snap::CheckpointableRun run(spec);
  run.advance(64);
  snap::Snapshot snap = run.checkpoint();

  sim::SimConfig other = spec.config;
  other.protocol.circuit_cache_entries += 1;
  core::Simulation sim(other);
  EXPECT_THROW(snap::restore_simulation(snap, sim), snap::ArchiveError);
}

// The runspec section is external input: a load whose bytes decode to NaN
// must fail the restore with a typed error, not resume a run that offers
// nothing.
TEST(SnapRestore, RejectsNonFiniteLoad) {
  snap::CheckpointableRun run(small_clrp_spec());
  run.advance(64);
  snap::Snapshot snap = run.checkpoint();
  snap::RunSpec spec;
  {
    snap::Archive ar = snap::Archive::reader(snap.section("runspec"));
    snap::snap_runspec(ar, spec);
  }
  spec.offered_load = std::numeric_limits<double>::quiet_NaN();
  snap::Archive w = snap::Archive::writer();
  snap::snap_runspec(w, spec);
  snap.set("runspec", w.take_bytes());
  const snap::Snapshot decoded = snap::Snapshot::decode(snap.encode());
  EXPECT_THROW(snap::CheckpointableRun{decoded}, std::invalid_argument);
}

// Each spec has one encoding: a runspec section that spells out the
// default working set after the seed is refused, not read as the same
// spec.
TEST(SnapRestore, RejectsDefaultWorkingSetBlock) {
  snap::CheckpointableRun run(small_clrp_spec());
  run.advance(64);
  snap::Snapshot snap = run.checkpoint();
  snap::Archive w = snap::Archive::writer();
  load::WorkingSetParams defaults;
  w.pod(defaults.size);
  w.pod(defaults.locality);
  w.pod(defaults.skew);
  std::vector<std::uint8_t> bytes = snap.section("runspec");
  const std::vector<std::uint8_t> block = w.take_bytes();
  bytes.insert(bytes.end(), block.begin(), block.end());
  snap.set("runspec", bytes);
  const snap::Snapshot decoded = snap::Snapshot::decode(snap.encode());
  EXPECT_THROW(snap::CheckpointableRun{decoded}, snap::ArchiveError);
}

// Likewise for the message shape: a runspec section that spells out the
// default sizes, max_flits and CARP calls after the working set is
// refused.
TEST(SnapRestore, RejectsDefaultSizesBlock) {
  snap::CheckpointableRun run(small_clrp_spec());
  run.advance(64);
  snap::Snapshot snap = run.checkpoint();
  snap::Archive w = snap::Archive::writer();
  load::WorkingSetParams ws;
  std::string sizes = "fixed";
  std::int32_t max_flits = 0;
  std::string carp = "none";
  w.pod(ws.size);
  w.pod(ws.locality);
  w.pod(ws.skew);
  w.str(sizes);
  w.pod(max_flits);
  w.str(carp);
  std::vector<std::uint8_t> bytes = snap.section("runspec");
  const std::vector<std::uint8_t> block = w.take_bytes();
  bytes.insert(bytes.end(), block.begin(), block.end());
  snap.set("runspec", bytes);
  const snap::Snapshot decoded = snap::Snapshot::decode(snap.encode());
  EXPECT_THROW(snap::CheckpointableRun{decoded}, snap::ArchiveError);
}

/// Fold of a spec's runspec section bytes.
std::uint64_t runspec_digest(snap::RunSpec spec) {
  snap::Archive ar = snap::Archive::writer();
  snap::snap_runspec(ar, spec);
  snap::Snapshot snap;
  snap.set("runspec", ar.take_bytes());
  return snap.digest();
}

// The sizes, max_flits and carp fields trail the runspec section only
// away from their defaults: specs that keep them keep the bytes and warm
// keys they had before the fields existed (values recorded on that tree).
TEST(SnapRestore, DefaultSpecsKeepTheirRunspecBytesAndWarmKeys) {
  EXPECT_EQ(runspec_digest(snap::RunSpec{}), 3223709234375626869ULL);
  EXPECT_EQ(snap::warm_key(snap::RunSpec{}), 3831805650334654271ULL);
  EXPECT_EQ(runspec_digest(small_clrp_spec()), 10067532657793267916ULL);
  EXPECT_EQ(snap::warm_key(small_clrp_spec()), 17533243477264001346ULL);
}

// -- Round-trip determinism across scenarios and phases ----------------------

TEST(SnapRoundTrip, ClrpWorkingSetMidWarmup) {
  check_round_trip(small_clrp_spec(), 300);
}

TEST(SnapRoundTrip, ClrpWorkingSetMidMeasure) {
  // Cut mid-measurement: probes, teardowns and circuit transfers are all
  // in flight at a busy CLRP cut point.
  check_round_trip(small_clrp_spec(), 1100);
}

// A shaped working set and split channels: the working-set values trail
// the runspec section (only away from their defaults) and must come back
// on restore, or the resumed run draws from a different pattern.
TEST(SnapRoundTrip, ShapedWorkingSetWithSplitChannelsMidMeasure) {
  snap::RunSpec spec = small_clrp_spec();
  spec.working_set = {6, 0.9, 0.6};
  spec.config.router.split_channels = true;
  check_round_trip(spec, 1100);
}

TEST(SnapRoundTrip, CarpTransposeMidMeasure) {
  check_round_trip(torus_carp_spec(), 900);
}

// Random CARP calls and bimodal lengths draw from the generator's stream;
// the shape fields trail the runspec section and must come back on
// restore, or the resumed run draws different traffic.
TEST(SnapRoundTrip, CarpRandomCallsWithBimodalSizesMidMeasure) {
  snap::RunSpec spec = torus_carp_spec();
  spec.carp = "random";
  spec.sizes = "bimodal";
  spec.max_flits = 48;
  check_round_trip(spec, 900);
}

TEST(SnapRoundTrip, FaultStormMidStorm) {
  // Cut while a quarter of the links are down and the distance-vector
  // layer is converging: DV adverts, withdrawals and aborted transfers
  // must all survive the round trip.
  check_round_trip(storm_spec(), 1100);
}

TEST(SnapRoundTrip, FaultStormDuringRepair) {
  check_round_trip(storm_spec(), 1700);
}

/// The cut must leave router VCs routing and active, or a restore that
/// forgot a slot set would not diverge.
void expect_routing_and_active_vcs_at(const snap::RunSpec& spec, Cycle cut) {
  snap::CheckpointableRun run(spec);
  run.advance(cut);
  const wh::Fabric& fabric = run.sim().network().fabric();
  std::int32_t routing = 0;
  std::int32_t active = 0;
  std::int32_t idle = 0;
  for (NodeId n = 0; n < run.sim().topology().num_nodes(); ++n) {
    const wh::Router& r = fabric.router(n);
    for (PortId p = 0; p <= r.num_network_ports(); ++p) {
      for (VcId v = 0; v < r.num_vcs(); ++v) {
        switch (r.input_vc(p, v).state()) {
          case wh::VcState::kIdle: ++idle; break;
          case wh::VcState::kRouting: ++routing; break;
          case wh::VcState::kActive: ++active; break;
        }
      }
    }
  }
  EXPECT_GT(idle, 0);
  EXPECT_GT(routing, 0);
  EXPECT_GT(active, 0);
}

TEST(SnapRoundTrip, SaturatedWormholeDuatoW3MidMeasure) {
  expect_routing_and_active_vcs_at(saturated_wormhole_spec(3), 700);
  check_round_trip(saturated_wormhole_spec(3), 700);
}

TEST(SnapRoundTrip, SaturatedWormholeDuatoW16MidMeasure) {
  // 80 input slots per router: two-word slot sets.
  expect_routing_and_active_vcs_at(saturated_wormhole_spec(16), 700);
  check_round_trip(saturated_wormhole_spec(16), 700);
}

TEST(SnapRoundTrip, DensePerCycleCutsCoverProbeAndTeardownWindows) {
  // Checkpoint at every cycle over a busy span: any mid-probe or
  // mid-teardown divergence shows up as a digest mismatch one cycle
  // after its cut.
  snap::RunSpec spec = small_clrp_spec();
  snap::CheckpointableRun original(spec);
  original.advance(640);
  for (int i = 0; i < 48; ++i) {
    snap::Snapshot snap = original.checkpoint();
    snap::CheckpointableRun restored(snap);
    restored.advance(1);
    original.advance(1);
    ASSERT_EQ(original.checkpoint().digest(), restored.checkpoint().digest())
        << "diverged after the cut at cycle " << (original.now() - 1);
  }
}

TEST(SnapRoundTrip, RestoreMidForceWaitMatchesUninterruptedRun) {
  // Cut while a Force probe has been parked for more than one cycle, so
  // the original run is reusing its wait decision and the restored run
  // (which caches nothing) must re-decide its way to the same state.
  snap::RunSpec spec = small_clrp_spec();
  snap::CheckpointableRun probe_run(spec);
  Cycle cut = 0;
  std::size_t parked_cycles = 0;
  while (cut == 0 && !probe_run.done() && probe_run.now() < 20'000) {
    probe_run.advance(1);
    const core::ControlPlane* plane =
        probe_run.sim().network().control_plane();
    parked_cycles = plane->waiting_probes().empty() ? 0 : parked_cycles + 1;
    if (parked_cycles == 3) cut = probe_run.now();
  }
  ASSERT_NE(cut, 0u) << "no Force probe parked within the search window";
  check_round_trip(spec, cut);
}

// -- Engine / shard matrix ---------------------------------------------------

TEST(SnapEngines, RestoredRunContinuesUnderAnyEngine) {
  const snap::RunSpec spec = small_clrp_spec();
  const std::int32_t nodes = spec.config.num_nodes();

  snap::CheckpointableRun seq_run(spec);
  seq_run.advance(800);
  const snap::Snapshot cut = seq_run.checkpoint();
  const std::uint64_t want = finish(seq_run);
  const load::ExperimentResult& want_result = seq_run.result();

  for (const std::int32_t shards : {1, 2, 8}) {
    snap::CheckpointableRun run(cut);
    run.set_engine(par_engine(nodes, shards));
    EXPECT_EQ(finish(run), want) << "shards=" << shards;
    expect_same_result(run.result(), want_result);
  }
}

TEST(SnapEngines, ParCheckpointRestoresUnderSeq) {
  const snap::RunSpec spec = storm_spec();
  const std::int32_t nodes = spec.config.num_nodes();

  snap::CheckpointableRun par_run(spec);
  par_run.set_engine(par_engine(nodes, 4));
  par_run.advance(1000);
  const snap::Snapshot cut = par_run.checkpoint();
  const std::uint64_t want = finish(par_run);

  snap::CheckpointableRun seq_run(cut);  // default sequential stepper
  EXPECT_EQ(finish(seq_run), want);
  expect_same_result(seq_run.result(), par_run.result());
}

// -- Link latencies ------------------------------------------------------------

/// 8x8 wormhole torus (DOR, w = 2) under heavy uniform load at link
/// latency `latency`. perfbench runs latency 2 only: at 1, credits and
/// flits staged in one cycle both arrive the next; at 3, flits of three
/// staging cycles are on the links at once.
snap::RunSpec latency_spec(std::int32_t latency) {
  snap::RunSpec spec;
  spec.config = sim::SimConfig::wormhole_baseline();
  spec.config.router.wormhole_pipeline_latency = latency;
  spec.pattern = "uniform";
  spec.message_flits = 16;
  spec.offered_load = 0.4;
  spec.warmup = 300;
  spec.measure = 900;
  spec.drain_cap = 100'000;
  spec.seed = 17;
  return spec;
}

std::string result_bytes(const snap::CheckpointableRun& run) {
  const load::ExperimentResult& r = run.result();
  return harness::stats_to_json(r.stats).dump() + " cycles " +
         std::to_string(r.cycles_total) + " drained " +
         std::to_string(r.drained);
}

class SnapLatency : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(SnapLatency, MidRunCutIsEngineIndependentAndRestoresUnderOtherShards) {
  const snap::RunSpec spec = latency_spec(GetParam());
  const std::int32_t nodes = spec.config.num_nodes();
  constexpr Cycle kCut = 700;

  snap::CheckpointableRun one_shot(spec);
  const std::uint64_t want = finish(one_shot);
  const std::string want_result = result_bytes(one_shot);

  // The cut under seq, par with 2 shards and par with 3 shards, each with
  // credits and flits still on their way: the bytes must be equal.
  std::vector<std::vector<std::uint8_t>> cuts;
  for (const std::int32_t shards : {0, 2, 3}) {  // 0: the seq engine
    snap::CheckpointableRun run(spec);
    if (shards > 0) run.set_engine(par_engine(nodes, shards));
    run.advance(kCut);
    const wh::Fabric& fabric = run.sim().network().fabric();
    EXPECT_GT(fabric.flits_on_links(), 0) << "shards=" << shards;
    EXPECT_GT(fabric.credits_in_transit(run.now()), 0u) << "shards=" << shards;
    cuts.push_back(run.checkpoint().encode());
  }
  EXPECT_EQ(cuts[1], cuts[0]) << "par with 2 shards";
  EXPECT_EQ(cuts[2], cuts[0]) << "par with 3 shards";

  // Restored under a shard count other than the one that cut it.
  const struct {
    std::size_t cut;
    std::int32_t shards;
  } restores[] = {{0, 3}, {1, 3}, {2, 2}};
  for (const auto& r : restores) {
    snap::CheckpointableRun restored(snap::Snapshot::decode(cuts[r.cut]));
    restored.set_engine(par_engine(nodes, r.shards));
    EXPECT_EQ(finish(restored), want) << "restored under " << r.shards;
    EXPECT_EQ(result_bytes(restored), want_result)
        << "restored under " << r.shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Latencies, SnapLatency, ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<std::int32_t>& p) {
                           return "latency" + std::to_string(p.param);
                         });

// -- Warm start --------------------------------------------------------------

TEST(SnapWarmStart, SharedWarmupCheckpointSeedsLongerMeasurement) {
  snap::RunSpec spec = small_clrp_spec();

  // Park a run exactly at the warmup/measure boundary.
  snap::CheckpointableRun warm(spec);
  warm.advance(spec.warmup);
  ASSERT_TRUE(warm.at_measure_boundary());
  const snap::Snapshot boundary = warm.checkpoint();

  // Cold run of a sibling spec that differs only in the measured span.
  snap::RunSpec longer = spec;
  longer.measure = 2 * spec.measure;
  EXPECT_EQ(snap::warm_key(longer), snap::warm_key(spec));
  snap::CheckpointableRun cold(longer);
  const std::uint64_t want = finish(cold);

  // Warm start: restore the shared boundary, rebind the window.
  snap::CheckpointableRun warmed(boundary);
  ASSERT_TRUE(warmed.at_measure_boundary());
  warmed.rebind(longer.measure, longer.drain_cap);
  EXPECT_EQ(finish(warmed), want);
  expect_same_result(warmed.result(), cold.result());
}

TEST(SnapWarmStart, BoundaryRestoreOf16x16EqualsColdReplay) {
  const snap::RunSpec spec = torus16_clrp_spec();
  snap::CheckpointableRun warmup(spec);
  warmup.advance(spec.warmup);
  ASSERT_TRUE(warmup.at_measure_boundary());

  snap::CheckpointableRun cold(spec);
  const std::uint64_t want = finish(cold);

  snap::CheckpointableRun warm(warmup.checkpoint());
  warm.rebind(spec.measure, spec.drain_cap);
  EXPECT_EQ(finish(warm), want);
  expect_same_result(warm.result(), cold.result());
}

TEST(SnapWarmStart, WarmKeySeparatesDifferentPrefixes) {
  const snap::RunSpec spec = small_clrp_spec();
  snap::RunSpec other = spec;
  other.offered_load += 0.01;
  EXPECT_NE(snap::warm_key(other), snap::warm_key(spec));
  other = spec;
  other.seed += 1;
  EXPECT_NE(snap::warm_key(other), snap::warm_key(spec));
  other = spec;
  other.working_set.locality = 0.9;
  EXPECT_NE(snap::warm_key(other), snap::warm_key(spec));
  other = spec;
  other.sizes = "uniform";
  EXPECT_NE(snap::warm_key(other), snap::warm_key(spec));
  other.max_flits = 32;
  EXPECT_NE(snap::warm_key(other), snap::warm_key(spec));
  other = spec;
  other.drain_cap *= 2;  // not part of the warm prefix
  EXPECT_EQ(snap::warm_key(other), snap::warm_key(spec));
}

TEST(SnapWarmStart, RebindAwayFromBoundaryThrows) {
  snap::RunSpec spec = small_clrp_spec();
  snap::CheckpointableRun run(spec);
  run.advance(spec.warmup + 100);
  EXPECT_FALSE(run.at_measure_boundary());
  EXPECT_THROW(run.rebind(500, 50'000), std::logic_error);
}

}  // namespace
