// Seam between the Simulation facade and the machinery that advances one
// cycle. The default (no engine installed) is Network::step(); an engine
// may instead drive the step_begin / step_shard / step_commit phases —
// e.g. src/engine's sharded parallel engine. Every engine must advance
// exactly one cycle per step() call and leave the network in a state
// bit-identical to the sequential stepper.
#pragma once

namespace wavesim::core {

class Network;

class StepEngine {
 public:
  virtual ~StepEngine() = default;

  /// Advance `net` by exactly one cycle.
  ///
  /// Quiesce-for-snapshot seam (src/snap): whenever step() returns, the
  /// engine must hold NO carryover state about the network -- every
  /// shard context committed and drained -- so that Network::snap()
  /// between calls captures the complete simulation state and a restored
  /// network may continue under ANY engine (or shard count) with
  /// bit-identical results.
  virtual void step(Network& net) = 0;

  /// Stable identifier ("seq", "par") for logs and JSON stamps.
  virtual const char* name() const noexcept = 0;
};

}  // namespace wavesim::core
