#include "snap/runstate.hpp"

#include <cmath>
#include <memory>
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

bool default_shape(const RunSpec& spec) {
  return spec.sizes == "fixed" && spec.max_flits == 0 && spec.carp == "none";
}

/// The spec's `sizes` (validated) over [length, max_length()]: "fixed"
/// is always length, "bimodal" the longest w.p. 0.3.
std::unique_ptr<load::SizeDist> make_sizes(const RunSpec& spec) {
  const std::int32_t lo = spec.message_flits;
  const std::int32_t hi = spec.max_length();
  if (spec.sizes == "fixed") return std::make_unique<load::FixedSize>(lo);
  if (spec.sizes == "uniform") {
    return std::make_unique<load::UniformSize>(lo, hi);
  }
  return std::make_unique<load::BimodalSize>(lo, hi, 0.3);
}

/// The spec in snapshot order; without `spans`, minus measure and
/// drain_cap, which only affect post-boundary behavior (the warm key).
/// The working-set values trail the seed only when they or the message
/// shape (sizes, max_flits, carp) differ from the defaults, and the shape
/// trails them only when it does, so specs that keep the defaults keep
/// their bytes and warm keys; a reader takes each group only if bytes
/// remain.
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
  const bool shape = !default_shape(spec);
  if (ar.writing() ? shape || !default_working_set(ws) : !ar.exhausted()) {
    ar.pod(ws.size);
    ar.pod(ws.locality);
    ar.pod(ws.skew);
    if (ar.writing() ? shape : !ar.exhausted()) {
      ar.str(spec.sizes);
      ar.pod(spec.max_flits);
      ar.str(spec.carp);
      if (default_shape(spec)) {
        throw ArchiveError("snapshot: runspec repeats the default sizes");
      }
    } else if (default_working_set(ws)) {
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
  if (spec.sizes != "fixed" && spec.sizes != "uniform" &&
      spec.sizes != "bimodal") {
    bad("sizes", "unknown size distribution '" + spec.sizes + "'");
  }
  if (spec.max_length() < spec.message_flits) {
    bad("max_flits", "must be 0 or >= length");
  }
  if (spec.sizes == "fixed" && spec.max_length() != spec.message_flits) {
    bad("max_flits", "requires sizes 'uniform' or 'bimodal'");
  }
  if (spec.carp != "none" && spec.carp != "random") {
    bad("carp", "unknown program '" + spec.carp + "'");
  }
  if (spec.carp != "none" &&
      spec.config.protocol.protocol != sim::ProtocolKind::kCarp) {
    bad("carp", "requires protocol 'carp'");
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
  sizes_ = make_sizes(spec_);
  driver_ = std::make_unique<load::OpenLoopDriver>(
      *sim_, *pattern_, *sizes_, spec_.offered_load, spec_.warmup,
      spec_.measure, spec_.drain_cap, spec_.seed,
      load::CarpCalls{spec_.carp == "random", spec_.max_length()});
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
