#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

namespace wavesim::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r{0};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.next());
  EXPECT_GT(seen.size(), 90u);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r{7};
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(r.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng r{13};
  std::array<int, 8> counts{};
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++counts[r.next_below(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 8, trials / 8 / 5);  // within 20%
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r{17};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r{19};
  EXPECT_EQ(r.uniform_int(5, 5), 5);
  EXPECT_EQ(r.uniform_int(5, 4), 5);  // hi < lo clamps to lo
}

TEST(Rng, Uniform01InRangeAndCentered) {
  Rng r{23};
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng r{29};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-0.5));
    EXPECT_TRUE(r.chance(1.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r{31};
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

/// Probabilities around every edge of the threshold form: no-draw values
/// on both sides, the smallest subnormal, 2^-53 and its neighbours (the
/// threshold's low end), the generator's own 0.05/64, and 1 - 2^-53 (its
/// high end).
std::vector<double> edge_probabilities() {
  const double two_m53 = std::ldexp(1.0, -53);
  return {0.0,
          std::numeric_limits<double>::denorm_min(),  // 2^-1074
          std::nextafter(two_m53, 0.0),
          two_m53,
          std::nextafter(two_m53, 1.0),
          0.05 / 64,
          0.5,
          std::nextafter(1.0, 0.0),
          1.0,
          1.5,
          -0.25,
          std::numeric_limits<double>::quiet_NaN()};
}

// The threshold form is an exact replacement for chance(double): on two
// clones of one stream a single trial, failures(trial, 1) == 0, returns
// the same result on every draw and consumes the same draws, including
// none at all for p <= 0 and p >= 1.
TEST(Rng, BernoulliThresholdMatchesChanceExactly) {
  std::uint64_t seed = 0x5eed;
  for (const double p : edge_probabilities()) {
    SCOPED_TRACE(p);
    const Bernoulli trial{p};
    Rng a{seed++};
    Rng b = a;
    const Rng untouched = a;
    int mismatches = 0;
    for (int i = 0; i < 200'000; ++i) {
      if (a.chance(p) != (b.failures(trial, 1) == 0)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
    // Lockstep: both forms consumed the same number of draws.
    const std::uint64_t next_a = a.next();
    EXPECT_EQ(next_a, b.next());
    if (!(p > 0.0 && p < 1.0) && !std::isnan(p)) {
      Rng fresh = untouched;
      EXPECT_EQ(next_a, fresh.next()) << "p <= 0 or p >= 1 consumed a draw";
    }
  }
}

// failures(trial, n) is a loop of up to n chance(p) calls that stops
// after the first success: same count, same draws, for every n including
// 0, and across the node-sweep pattern the generator uses.
TEST(Rng, FailuresMatchesAChanceLoop) {
  std::vector<double> ps = edge_probabilities();
  ps.push_back(0.02);  // a success every ~50 trials: many short scans
  std::uint64_t seed = 0xfa11;
  for (const double p : ps) {
    SCOPED_TRACE(p);
    const Bernoulli trial{p};
    Rng a{seed++};
    Rng b = a;
    Rng lengths{seed * 7};
    for (int round = 0; round < 2'000; ++round) {
      const auto n = static_cast<std::int32_t>(lengths.next_below(300));
      std::int32_t expected = 0;
      while (expected < n && !a.chance(p)) ++expected;
      ASSERT_EQ(b.failures(trial, n), expected) << "n=" << n;
      ASSERT_EQ(a.next(), b.next());
    }
  }
}

/// An Rng whose next draw is exactly `value`: xoshiro256**'s output
/// rotl(s1 * 5, 7) * 9 is a bijection of the state word s1.
Rng rng_whose_next_is(std::uint64_t value) {
  const auto inverse = [](std::uint64_t a) {  // of an odd a, mod 2^64
    std::uint64_t x = a;
    for (int i = 0; i < 6; ++i) x *= 2 - a * x;
    return x;
  };
  const std::uint64_t r = value * inverse(9);
  std::uint64_t words[4] = {1, ((r >> 7) | (r << 57)) * inverse(5), 2, 3};
  snap::Archive w = snap::Archive::writer();
  for (std::uint64_t& word : words) w.pod(word);
  snap::Archive ar = snap::Archive::reader(w.take_bytes());
  Rng rng;
  rng.snap(ar);
  return rng;
}

// Random streams almost never draw the one k next to a tiny or huge
// threshold, so the boundary is driven directly: for the draws k just
// below and at ceil(p * 2^53), the threshold form must decide like
// chance(double).
TEST(Rng, BernoulliThresholdBoundaryIsExact) {
  const double ps[] = {std::numeric_limits<double>::denorm_min(),
                       std::ldexp(1.0, -53), std::nextafter(0.5, 0.0), 0.5,
                       std::nextafter(0.5, 1.0), 0.05 / 64, 1.0 / 3.0,
                       std::nextafter(1.0, 0.0)};
  for (const double p : ps) {
    SCOPED_TRACE(p);
    const auto t = static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
    for (const std::uint64_t k : {t - 1, t}) {
      if (k >= (std::uint64_t{1} << 53)) continue;
      Rng a = rng_whose_next_is(k << 11);
      Rng b = a;
      EXPECT_DOUBLE_EQ(Rng{a}.uniform01(), static_cast<double>(k) * 0x1.0p-53);
      const bool expected = k < t;
      EXPECT_EQ(a.chance(p), expected) << k;
      EXPECT_EQ(b.failures(Bernoulli{p}, 1) == 0, expected) << k;
    }
  }
}

TEST(Rng, GeometricMeanRoughlyMatches) {
  Rng r{37};
  const double p = 0.25;
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(r.geometric(p, 1000000));
  }
  // Mean of failures-before-success geometric = (1-p)/p = 3.
  EXPECT_NEAR(sum / trials, 3.0, 0.15);
}

TEST(Rng, GeometricHonorsCap) {
  Rng r{41};
  for (int i = 0; i < 1000; ++i) EXPECT_LE(r.geometric(0.001, 50), 50u);
  EXPECT_EQ(r.geometric(0.0, 7), 7u);
  EXPECT_EQ(r.geometric(1.0, 7), 0u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{43};
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a{47};
  Rng b{47};
  Rng ca = a.fork();
  Rng cb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next(), cb.next());
}

TEST(SplitMix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const auto v1 = splitmix64(s);
  const auto v2 = splitmix64(s);
  EXPECT_NE(v1, v2);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), v1);
}

}  // namespace
}  // namespace wavesim::sim
