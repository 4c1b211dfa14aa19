// One simcheck scenario: everything Theorems 1-4 quantify over, held as a
// snap::RunSpec plus the engine shard count, so it can be (a) drawn from
// a single 64-bit seed, (b) mutated by the shrinker one field at a time,
// and (c) round-tripped through a wavesim.repro.v3 JSON file for
// bit-identical replay (check/simcheck.hpp), whose "spec" is a job.v1 run
// spec read and written by the same codec as wavesimd jobs.
#pragma once

#include <cstdint>
#include <string>

#include "snap/runstate.hpp"

namespace wavesim::check {

/// "0x"-prefixed lowercase hex. JsonValue numbers are doubles, which cannot
/// hold an arbitrary 64-bit seed or fingerprint exactly, so those fields
/// travel through repro files as hex strings.
std::string to_hex_u64(std::uint64_t value);

/// Inverse of to_hex_u64 (accepts upper/lower case); false on bad input.
bool parse_hex_u64(const std::string& text, std::uint64_t& out);

struct Scenario {
  /// The run, as snap::CheckpointableRun runs it. `config` covers
  /// topology, protocol (CLRP variant included), router, static faults
  /// and the failure storm; `message_flits`..`max_flits` span the message
  /// lengths `sizes` draws, and under CARP `carp` is "random"; `measure`
  /// is the injection span (`warmup` is always 0); `drain_cap` bounds the
  /// drain. `seed` (== config.seed) is the scenario's identity: it drives
  /// both generation (which values were drawn) and execution (traffic,
  /// CARP calls, the restore cycle). A storm is active iff its fraction is
  /// > 0; the inactive storm is all zero.
  snap::RunSpec spec;
  /// 0 = sequential stepper, >= 1 = sharded parallel engine with that many
  /// shards. By the engine's bit-identity contract this must never change
  /// the outcome; the oracle's sequential twin checks it.
  std::int32_t engine_shards = 0;

  friend bool operator==(const Scenario&, const Scenario&) = default;

  /// Short one-line description for reports, e.g.
  /// "4x4 torus clrp/full dor k=1 m=1 cache=2/lru uniform load=0.02".
  std::string label() const;

  /// Make the scenario self-consistent: clamps every field into its legal
  /// range and resolves cross-field constraints (west-first needs a 2-D
  /// mesh, bit patterns need power-of-two node counts, ...) so that
  /// snap::validate(spec) always passes. Deterministic, idempotent.
  void repair();

  /// Draw a random scenario from `seed` alone (generate(s) == generate(s)
  /// forever — the seed is the scenario's identity). Already repaired.
  static Scenario generate(std::uint64_t seed);

  /// Force a dynamic failure storm onto the scenario, drawn
  /// deterministically from the seed. Wormhole-only and pcs-only
  /// configurations cannot carry one (repair() would zero it), so they
  /// are first switched to plain CLRP. No-op when a storm is already
  /// present. Backs simcheck --faulty: every scenario fault-bearing.
  void ensure_storm();
};

}  // namespace wavesim::check
