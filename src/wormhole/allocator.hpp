// Round-robin arbitration over request bit sets, used by the router's VC
// and switch allocation stages.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "snap/archive.hpp"

namespace wavesim::wh {

/// 64-bit words in a bit set over `slots` requesters (bit i of word i / 64
/// is requester i).
constexpr std::int32_t mask_words(std::int32_t slots) noexcept {
  return (slots + 63) / 64;
}

/// Calls `fn(i)` for every set bit i of the `words`-word bit set, in
/// increasing order. `fn` may clear bits it has been offered.
template <typename Fn>
void for_each_set_bit(const std::uint64_t* set, std::int32_t words, Fn&& fn) {
  for (std::int32_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + std::countr_zero(bits));
    }
  }
}

/// Rotating-priority grant over the set bits of `requests`, a bit set of
/// `size` requesters with `pointer` in [0, size). Set bits at or above the
/// pointer are offered to `try_slot(i)` lowest first, then the bits below
/// it; the first offer that returns true wins and the pointer moves to the
/// slot after the winner. Unset bits are never offered, so this is the
/// rotated scan `for n in [0, size): try(i = (pointer + n) % size)` with
/// every non-requesting slot skipped. Returns the winner or -1. The
/// caller's `try_slot` may change `requests` only when it returns true.
template <typename Fn>
std::int32_t grant_round_robin(const std::uint64_t* requests,
                               std::int32_t size, std::int32_t& pointer,
                               Fn&& try_slot) {
  const std::int32_t words = mask_words(size);
  const std::int32_t first = pointer >> 6;
  const std::uint64_t at_or_above = ~std::uint64_t{0} << (pointer & 63);
  // Words first, first + 1, ..., words - 1, 0, ..., first: the pointer's
  // word is visited twice, for its bits at or above the pointer and then
  // for those below it.
  for (std::int32_t n = 0; n <= words; ++n) {
    const std::int32_t w = first + n < words ? first + n : first + n - words;
    std::uint64_t bits = requests[w];
    if (n == 0) bits &= at_or_above;
    if (n == words) bits &= ~at_or_above;
    while (bits != 0) {
      const std::int32_t i = w * 64 + std::countr_zero(bits);
      bits &= bits - 1;
      if (try_slot(i)) {
        pointer = i + 1 == size ? 0 : i + 1;
        return i;
      }
    }
  }
  return -1;
}

/// A rotating-priority arbiter that owns its pointer (strong fairness
/// under persistent requests).
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::int32_t size);

  std::int32_t size() const noexcept { return size_; }
  std::int32_t pointer() const noexcept { return pointer_; }

  /// `requests` holds mask_words(size()) words; bit i set means slot i
  /// wants the grant. Returns the winner or -1 when nobody requests.
  std::int32_t grant(std::span<const std::uint64_t> requests);

  /// grant_round_robin over `requests` (mask_words(size()) words) with
  /// this arbiter's pointer.
  template <typename Fn>
  std::int32_t grant(const std::uint64_t* requests, Fn&& try_slot) {
    return grant_round_robin(requests, size_, pointer_, try_slot);
  }

  /// Serialize the rotating pointer (snapshot/restore); size_ is
  /// structural and comes from construction. A restored pointer outside
  /// [0, size) is rejected.
  void snap(snap::Archive& ar);

 private:
  /// Capacity, fixed at construction; snap() only checks a restored
  /// pointer against it.
  std::int32_t size_;
  std::int32_t pointer_ = 0;
};

}  // namespace wavesim::wh
