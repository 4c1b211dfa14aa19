#include "sim/rng.hpp"

#include <cmath>

namespace wavesim::sim {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_mix(std::uint64_t value) noexcept {
  return splitmix64(value);
}

Bernoulli::Bernoulli(double p) noexcept {
  if (p <= 0.0) return;  // never; no draw
  if (p >= 1.0) {        // always; no draw
    threshold_ = 1;
    return;
  }
  // 0 < p < 1 puts the threshold in [1, 2^53 - 1]. A NaN p draws against
  // threshold 0 and so always fails, like uniform01() < NaN.
  draws_ = true;
  if (!std::isnan(p)) {
    threshold_ = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }
}

Rng::Rng(std::uint64_t seed) noexcept {
  // Never allow the all-zero state xoshiro cannot leave.
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Lemire multiply-shift with rejection to remove modulo bias.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t Rng::geometric(double p, std::uint64_t cap) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return cap;
  const double u = uniform01();
  const double v = std::log1p(-u) / std::log1p(-p);
  const auto n = static_cast<std::uint64_t>(v);
  return n < cap ? n : cap;
}

Rng Rng::fork() noexcept {
  return Rng{next() ^ 0xa0761d6478bd642fULL};
}

}  // namespace wavesim::sim
