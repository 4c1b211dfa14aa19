// The sharded parallel step engine (and its sequential twin).
//
// ParallelEngine partitions the node array into contiguous shards and
// runs Network::step_shard for all shards concurrently on a CyclePool,
// with one barrier per cycle. Conservative synchronization: every
// cross-node interaction in the shard phase goes through a link of
// latency >= 1, so cycle-t work never reads another node's cycle-t
// writes and no rollback is ever needed. Shard
// outboxes are committed in ascending node order, which makes the result
// bit-identical to the sequential stepper for any shard and thread count
// (see docs/ENGINE.md for the full argument).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/step_engine.hpp"
#include "sim/json.hpp"
#include "sim/types.hpp"

namespace wavesim::engine {

enum class EngineKind : std::uint8_t {
  kSeq,  ///< default single-threaded stepper
  kPar,  ///< sharded conservative parallel engine
};

const char* to_string(EngineKind kind) noexcept;

struct EngineConfig {
  EngineKind kind = EngineKind::kSeq;
  /// Parallel engine only: number of shards. 0 = auto (one per hardware
  /// thread, capped at the node count). Output is independent of this.
  std::int32_t shards = 0;
  /// Parallel engine only: worker threads (including the caller). 0 =
  /// auto (min(shards, hardware threads)). Output is independent of this.
  unsigned threads = 0;

  bool parallel() const noexcept { return kind == EngineKind::kPar; }

  /// Shard count actually used for a network of `num_nodes` nodes.
  std::int32_t resolve_shards(std::int32_t num_nodes) const;

  /// The `engine` object stamped into wavesim.run.v1 / wavesim.bench.v1 /
  /// wavesim.sweep.v1: {"kind": "seq"} or {"kind": "par", "shards": N}.
  /// Pass the network's node count to record
  /// the resolved shard count; without it the requested count is recorded
  /// (0 = auto). Thread count is deliberately omitted — it never affects
  /// output. Byte-identity comparisons across engines must strip this one
  /// object.
  sim::JsonValue to_json(std::int32_t num_nodes = -1) const;
};

/// Parse "seq" / "par" (as from --engine). Returns nullopt on anything
/// else.
std::optional<EngineKind> parse_engine_kind(const std::string& text);

/// The engine a driver's --engine/--shards flags select. The rules are
/// the same for every driver: `kind` is seq or par, and `shards`, when
/// given, is >= 1 and needs par. Throws std::invalid_argument naming the
/// flag.
EngineConfig engine_config(const std::string& kind,
                           std::optional<std::int32_t> shards);

/// Build the engine described by `config` for a network of `num_nodes`
/// nodes. Never returns nullptr; the kSeq config yields a SequentialEngine
/// so callers can treat both kinds uniformly.
std::unique_ptr<core::StepEngine> make_engine(const EngineConfig& config,
                                              std::int32_t num_nodes);

}  // namespace wavesim::engine
