// Deterministic pseudo-random number generation.
//
// xoshiro256** seeded through SplitMix64. Every stochastic component of the
// simulator draws from an Rng it owns (or a child forked from the run seed),
// so a run is reproducible from a single 64-bit seed regardless of module
// evaluation order.
#pragma once

#include <cstdint>
#include <array>

#include "snap/archive.hpp"

namespace wavesim::sim {

/// SplitMix64 step; used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stateless 64-bit mixer (one SplitMix64 step of a copy of `value`).
/// Used to derive independent child seeds and to fold values into
/// order-sensitive fingerprints: mix(h ^ x) chains have full avalanche, so
/// a single swapped event flips the final digest.
std::uint64_t hash_mix(std::uint64_t value) noexcept;

/// chance(p) with the comparison against p precomputed, for a probability
/// that is drawn against many times (one draw per node per cycle in the
/// open-loop generator; see Rng::failures).
///
/// uniform01() is k * 2^-53 with k = next() >> 11, and scaling by 2^53 is
/// exact for every double in (0, 1), subnormals included. So
/// uniform01() < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53)  (k is an
/// integer), and the test k < ceil(p * 2^53) decides what chance(p)
/// decides from the same stream state. A trial also consumes exactly the
/// draws chance(p) consumes: none for p <= 0 or p >= 1, one otherwise (a
/// NaN p draws and fails, as uniform01() < NaN does).
class Bernoulli {
 public:
  explicit Bernoulli(double p) noexcept;

 private:
  friend class Rng;
  std::uint64_t threshold_ = 0;  ///< succeed iff (next() >> 11) < threshold_
  bool draws_ = false;  ///< false: no draw; the result is threshold_ != 0
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Next raw 64-bit value (xoshiro256**).
  std::uint64_t next() noexcept { return advance(state_); }

  /// Uniform integer in [0, bound); bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1): the 53 high bits of next(), times 2^-53.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Runs chance(p) for the trial's p up to `n` times, stopping after the
  /// first success, and returns the failures before it (`n` if all `n`
  /// failed). It consumes exactly the draws of those chance(p) calls, in
  /// the same order, but decides each by one integer compare (see
  /// Bernoulli) and keeps the stream in registers between trials.
  std::int32_t failures(const Bernoulli& trial, std::int32_t n) noexcept {
    if (!trial.draws_) return trial.threshold_ != 0 ? 0 : n;
    std::array<std::uint64_t, 4> state = state_;
    std::int32_t i = 0;
    while (i < n && (advance(state) >> 11) >= trial.threshold_) ++i;
    state_ = state;
    return i;
  }

  /// Geometric-ish: number of failures before first success, capped.
  std::uint64_t geometric(double p, std::uint64_t cap) noexcept;

  /// Fork an independent child stream (stable given call order).
  Rng fork() noexcept;

  /// Serialize the raw stream state (snapshot/restore).
  void snap(snap::Archive& ar) {
    for (auto& word : state_) ar.pod(word);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// One xoshiro256** step of `s`.
  static std::uint64_t advance(std::array<std::uint64_t, 4>& s) noexcept {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace wavesim::sim
