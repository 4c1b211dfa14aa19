// wavesim.snap.v1: versioned container for deterministic full-state
// snapshots of a Simulation.
//
// Layout: magic string, then a table of named sections, each a
// length-prefixed byte blob produced by snap::Archive. The two sections
// every snapshot carries are "config" (the complete SimConfig, so a
// restore can rebuild the object graph) and "network" (every mutable
// bit of Network state). Higher layers append more sections to the same
// container — src/snap/runstate.hpp adds "runspec"/"pattern"/"driver"
// for checkpointable open-loop runs — without this file knowing about
// them.
//
// Guarantee (tests/test_snap.cpp): restore(snapshot(S)) followed by N
// cycles is bit-identical to stepping S directly for N cycles — same
// digests, same run.v1 JSON — across engines and shard counts, because
// Network::snap captures the full quiesced state (see the seam contract
// in core/step_engine.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "snap/archive.hpp"

namespace wavesim::sim {
struct SimConfig;
}  // namespace wavesim::sim

namespace wavesim::core {
class Simulation;
}  // namespace wavesim::core

namespace wavesim::snap {

class Snapshot {
 public:
  static constexpr const char* kMagic = "wavesim.snap.v1";

  /// Add or replace a named section.
  void set(std::string name, std::vector<std::uint8_t> bytes);

  bool has(const std::string& name) const noexcept;

  /// Section payload; throws ArchiveError when the section is missing.
  const std::vector<std::uint8_t>& section(const std::string& name) const;

  /// Section names in insertion (= encoding) order.
  std::vector<std::string> names() const;

  /// Serialize to / parse from the on-disk byte format. decode() throws
  /// ArchiveError on a bad magic, truncation, or trailing bytes.
  std::vector<std::uint8_t> encode() const;
  static Snapshot decode(const std::vector<std::uint8_t>& bytes);

  /// Order-sensitive 64-bit digest over section names and payloads.
  /// Equal states produce equal digests (the byte stream is a pure
  /// function of simulation state); used by tests and the checkpoint
  /// metadata stamp.
  std::uint64_t digest() const noexcept;

  /// Write encode() to `path` atomically (tmp file + rename), so a
  /// crash mid-write never leaves a torn snapshot behind. Throws
  /// std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  /// Read and decode `path`; throws std::runtime_error when the file
  /// cannot be read and ArchiveError when it is corrupt.
  static Snapshot load(const std::string& path);

 private:
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

/// SimConfig round trip, field by field (the struct holds vectors and
/// padding, so it must never be memcpy'd).
void snap_config(Archive& ar, sim::SimConfig& config);

/// Capture the complete state of `sim` into sections "config" and
/// "network". Must be called between whole steps (the quiesce seam in
/// core/step_engine.hpp) — never from inside a step hook.
Snapshot snapshot_simulation(core::Simulation& sim);

/// Decode and validate() the embedded configuration.
sim::SimConfig restore_config(const Snapshot& snapshot);

/// Overwrite `sim` with the snapshot's network state. `sim` must have
/// been constructed from restore_config(snapshot)'s result; a config
/// mismatch throws ArchiveError instead of corrupting state.
void restore_simulation(const Snapshot& snapshot, core::Simulation& sim);

}  // namespace wavesim::snap
