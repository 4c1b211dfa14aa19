// Order-sensitive digest of a simulation's full instrumentation event
// stream, shared by the engine and fault suites' seq-vs-par identity tests.
#pragma once

#include <cstdint>

#include "core/instrumentation.hpp"
#include "sim/rng.hpp"

namespace wavesim {

/// Same value => same events in the same order with the same payloads
/// (cycle, kind, node, message, circuit and port).
struct EventFingerprint {
  std::uint64_t value = 0x77617665u;
  void feed(const core::Event& ev) {
    value = sim::hash_mix(value ^ ev.at);
    value = sim::hash_mix(value ^ static_cast<std::uint64_t>(ev.kind));
    value = sim::hash_mix(value ^ static_cast<std::uint64_t>(ev.node));
    value = sim::hash_mix(value ^ static_cast<std::uint64_t>(ev.msg));
    value = sim::hash_mix(value ^ static_cast<std::uint64_t>(ev.circuit));
    value = sim::hash_mix(value ^ static_cast<std::uint64_t>(ev.port));
  }
};

}  // namespace wavesim
