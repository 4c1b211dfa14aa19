#include "wormhole/allocator.hpp"

#include <stdexcept>

namespace wavesim::wh {

RoundRobinArbiter::RoundRobinArbiter(std::int32_t size) : size_(size) {
  if (size <= 0) throw std::invalid_argument("RoundRobinArbiter: size <= 0");
}

std::int32_t RoundRobinArbiter::grant(
    std::span<const std::uint64_t> requests) {
  if (static_cast<std::int32_t>(requests.size()) != mask_words(size_)) {
    throw std::invalid_argument("RoundRobinArbiter: request width mismatch");
  }
  return grant(requests.data(), [](std::int32_t) { return true; });
}

void RoundRobinArbiter::snap(snap::Archive& ar) {
  ar.pod(pointer_);
  if (pointer_ < 0 || pointer_ >= size_) {
    throw snap::ArchiveError("RoundRobinArbiter: pointer out of range");
  }
}

}  // namespace wavesim::wh
