#include "snap/runstate.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/rng.hpp"
#include "workload/traffic.hpp"

namespace wavesim::snap {

namespace {

/// A skew of -0.0 is not the default 0, so each spec has one encoding.
bool default_working_set(const load::WorkingSetParams& ws) {
  const load::WorkingSetParams d;
  return ws.size == d.size && ws.locality == d.locality &&
         ws.skew == d.skew && !std::signbit(ws.skew);
}

/// The spec in snapshot order; without `spans`, minus measure and
/// drain_cap, which only affect post-boundary behavior (the warm key).
/// The working-set values trail the seed only when they differ from the
/// defaults, so specs that keep the defaults keep their bytes and warm
/// keys; a reader takes them only if bytes remain.
void snap_fields(Archive& ar, RunSpec& spec, bool spans) {
  snap_config(ar, spec.config);
  ar.str(spec.pattern);
  ar.pod(spec.message_flits);
  ar.pod(spec.offered_load);
  ar.pod(spec.warmup);
  if (spans) {
    ar.pod(spec.measure);
    ar.pod(spec.drain_cap);
  }
  ar.pod(spec.seed);
  load::WorkingSetParams& ws = spec.working_set;
  if (ar.writing() ? !default_working_set(ws) : !ar.exhausted()) {
    ar.pod(ws.size);
    ar.pod(ws.locality);
    ar.pod(ws.skew);
    if (default_working_set(ws)) {
      throw ArchiveError("snapshot: runspec repeats the default working set");
    }
  }
}

}  // namespace

void snap_runspec(Archive& ar, RunSpec& spec) { snap_fields(ar, spec, true); }

std::uint64_t warm_key(const RunSpec& spec) {
  // Fold the warm-sharable prefix's bytes; Snapshot::digest gives an
  // order-sensitive 64-bit fold.
  Archive ar = Archive::writer();
  RunSpec copy = spec;
  snap_fields(ar, copy, false);
  Snapshot snap;
  snap.set("warm", ar.take_bytes());
  return snap.digest();
}

void validate(const RunSpec& spec) {
  const auto bad = [](const std::string& key, const std::string& what) {
    throw std::invalid_argument("spec field '" + key + "': " + what);
  };
  spec.config.validate();
  try {
    load::check_traffic(spec.pattern, spec.config.topology.radix);
  } catch (const std::invalid_argument& e) {
    bad("pattern", e.what());
  }
  if (spec.message_flits < 1) bad("length", "must be >= 1");
  // The generator's own bound, written so NaN and infinities fail it.
  if (!(spec.offered_load >= 0.0 &&
        spec.offered_load / static_cast<double>(spec.message_flits) <= 1.0)) {
    bad("load", "must be a number in [0, length]");
  }
  const load::WorkingSetParams& ws = spec.working_set;
  if (ws.size < 1) bad("ws_size", "must be >= 1");
  if (!(ws.locality >= 0.0 && ws.locality <= 1.0)) {
    bad("ws_locality", "must be a number in [0, 1]");
  }
  if (!(ws.skew >= 0.0 && ws.skew < 1.0)) {
    bad("ws_skew", "must be a number in [0, 1)");
  }
  if (spec.pattern != "working-set" && !default_working_set(ws)) {
    const load::WorkingSetParams d;
    bad(ws.size != d.size           ? "ws_size"
        : ws.locality != d.locality ? "ws_locality"
                                    : "ws_skew",
        "requires pattern 'working-set'");
  }
}

CheckpointableRun::CheckpointableRun(const RunSpec& spec) {
  validate(spec);
  build(spec);
}

CheckpointableRun::CheckpointableRun(const Snapshot& snapshot) {
  Archive ar = Archive::reader(snapshot.section("runspec"));
  RunSpec spec;
  snap_runspec(ar, spec);
  if (!ar.exhausted()) {
    throw ArchiveError("snapshot: trailing bytes in runspec section");
  }
  validate(spec);
  build(spec);
  restore_simulation(snapshot, *sim_);
  {
    Archive pa = Archive::reader(snapshot.section("pattern"));
    pattern_->snap(pa);
    if (!pa.exhausted()) {
      throw ArchiveError("snapshot: trailing bytes in pattern section");
    }
  }
  {
    Archive da = Archive::reader(snapshot.section("driver"));
    driver_->snap(da);
    if (!da.exhausted()) {
      throw ArchiveError("snapshot: trailing bytes in driver section");
    }
  }
}

void CheckpointableRun::build(const RunSpec& spec) {
  spec_ = spec;
  sim_ = std::make_unique<core::Simulation>(spec_.config);
  pattern_ = load::make_traffic(spec_.pattern, sim_->topology(),
                                sim::Rng{spec_.seed * 31 + 7},
                                spec_.working_set);
  sizes_ = std::make_unique<load::FixedSize>(spec_.message_flits);
  driver_ = std::make_unique<load::OpenLoopDriver>(
      *sim_, *pattern_, *sizes_, spec_.offered_load, spec_.warmup,
      spec_.measure, spec_.drain_cap, spec_.seed);
}

void CheckpointableRun::rebind(Cycle measure, Cycle drain_cap) {
  driver_->rebind(measure, drain_cap);
  spec_.measure = measure;
  spec_.drain_cap = drain_cap;
}

Snapshot CheckpointableRun::checkpoint() {
  Snapshot snap = snapshot_simulation(*sim_);
  {
    Archive ar = Archive::writer();
    snap_runspec(ar, spec_);
    snap.set("runspec", ar.take_bytes());
  }
  {
    Archive ar = Archive::writer();
    pattern_->snap(ar);
    snap.set("pattern", ar.take_bytes());
  }
  {
    Archive ar = Archive::writer();
    driver_->snap(ar);
    snap.set("driver", ar.take_bytes());
  }
  return snap;
}

}  // namespace wavesim::snap
