// Message-length distributions (flits).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/rng.hpp"

namespace wavesim::load {

class SizeDist {
 public:
  virtual ~SizeDist() = default;
  virtual std::int32_t sample(sim::Rng& rng) = 0;
  /// Expected value (used to convert flit-rate to message-rate).
  virtual double mean() const noexcept = 0;
};

class FixedSize final : public SizeDist {
 public:
  explicit FixedSize(std::int32_t flits);
  std::int32_t sample(sim::Rng& rng) override;
  double mean() const noexcept override { return flits_; }

 private:
  std::int32_t flits_;
};

/// Uniform integer in [lo, hi].
class UniformSize final : public SizeDist {
 public:
  UniformSize(std::int32_t lo, std::int32_t hi);
  std::int32_t sample(sim::Rng& rng) override;
  double mean() const noexcept override { return 0.5 * (lo_ + hi_); }

 private:
  std::int32_t lo_;
  std::int32_t hi_;
};

/// Short control messages with probability 1-p_long, long data messages
/// otherwise -- the DSM mix the paper's introduction motivates.
class BimodalSize final : public SizeDist {
 public:
  BimodalSize(std::int32_t short_flits, std::int32_t long_flits,
              double p_long);
  std::int32_t sample(sim::Rng& rng) override;
  double mean() const noexcept override;

 private:
  std::int32_t short_flits_;
  std::int32_t long_flits_;
  double p_long_;
};

}  // namespace wavesim::load
