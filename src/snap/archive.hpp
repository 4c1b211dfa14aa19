// Byte-archive primitive for the wavesim.snap.v1 snapshot format.
//
// A single Archive runs in either write or read mode; every stateful
// class exposes one symmetric `void snap(snap::Archive&)` member that
// calls the same sequence of primitives in both directions, so the save
// and load paths cannot drift apart. The archive is header-only on
// purpose: core/wormhole/pcs classes implement snap() in their own
// translation units without wavesim_core ever linking a snap library.
//
// Determinism contract: the byte stream must be a pure function of the
// simulation state. Structs are serialized FIELD BY FIELD -- never
// memcpy'd wholesale -- because padding bytes are indeterminate and
// would make two snapshots of identical states compare unequal.
// pod<T>() is reserved for scalars (and scalar enums); vec_pod for
// vectors of scalars.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace wavesim::snap {

/// Thrown when a read runs past the end of a section or a sanity bound
/// is violated; callers surface it as a corrupt-snapshot error.
class ArchiveError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Archive {
 public:
  static Archive writer() { return Archive(Mode::kWrite); }
  static Archive reader(std::vector<std::uint8_t> bytes) {
    Archive a(Mode::kRead);
    a.bytes_ = std::move(bytes);
    return a;
  }

  bool writing() const noexcept { return mode_ == Mode::kWrite; }
  bool reading() const noexcept { return mode_ == Mode::kRead; }

  /// Writer: bytes produced so far. Only meaningful in write mode.
  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take_bytes() { return std::move(bytes_); }

  /// Reader: true when every byte has been consumed.
  bool exhausted() const noexcept { return pos_ == bytes_.size(); }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  /// Scalar (or scalar-enum) round trip. Fixed-width little-endian on
  /// every supported host; floating point goes through its bit pattern.
  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snap::Archive::pod needs a trivially copyable type");
    static_assert(!std::is_pointer_v<T>,
                  "pointers are never serialized; re-resolve on load");
    if (writing()) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
      bytes_.insert(bytes_.end(), p, p + sizeof(T));
    } else {
      need(sizeof(T));
      std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
    }
  }

  /// bool round trip via one byte (bool object representation is not
  /// guaranteed to be a single deterministic byte pattern). The reader
  /// never reads `v`: it may be an uninitialized slot about to be filled.
  void pod(bool& v) {
    std::uint8_t b = writing() && v ? 1 : 0;
    pod(b);
    if (reading()) v = (b != 0);
  }

  /// Length-prefixed string.
  void str(std::string& s) {
    std::uint64_t n = s.size();
    pod(n);
    if (writing()) {
      bytes_.insert(bytes_.end(), s.begin(), s.end());
    } else {
      check_len(n);
      need(n);
      s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_),
               static_cast<std::size_t>(n));
      pos_ += static_cast<std::size_t>(n);
    }
  }

  /// Vector of scalars (no padding possible in a scalar element).
  template <typename T>
  void vec_pod(std::vector<T>& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                  "vec_pod is for scalar element types; use vec(v, fn) "
                  "for structs (field-by-field, no padding bytes)");
    std::uint64_t n = v.size();
    pod(n);
    if (reading()) {
      check_len(n);
      v.resize(static_cast<std::size_t>(n));
    }
    for (auto& e : v) pod(e);
  }

  /// Write-mode-only overload for const-held data (e.g. Snapshot
  /// sections being encoded). Byte-identical to the mutable overload in
  /// write mode; reading into a const vector is a logic error and
  /// throws, so call sites never need a const_cast.
  template <typename T>
  void vec_pod(const std::vector<T>& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                  "vec_pod is for scalar element types; use vec(v, fn) "
                  "for structs (field-by-field, no padding bytes)");
    if (reading()) {
      throw ArchiveError("snap::Archive: cannot read into a const vector");
    }
    std::uint64_t n = v.size();
    pod(n);
    for (const T& e : v) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&e);
      bytes_.insert(bytes_.end(), p, p + sizeof(T));
    }
  }

  /// Vector of anything: size prefix + per-element functor
  /// `fn(Archive&, T&)`.
  template <typename T, typename Fn>
  void vec(std::vector<T>& v, Fn&& fn) {
    std::uint64_t n = v.size();
    pod(n);
    if (reading()) {
      check_len(n);
      v.assign(static_cast<std::size_t>(n), T{});
    }
    for (auto& e : v) fn(*this, e);
  }

  /// Element counts beyond any plausible simulation state mean a corrupt
  /// or hostile snapshot; containers reading a count call this before
  /// they allocate for it.
  void check_len(std::uint64_t n) const {
    if (n > (1ull << 32)) {
      throw ArchiveError("snapshot archive length out of range");
    }
  }

  /// Deque of anything, same shape as vec().
  template <typename T, typename Fn>
  void deq(std::deque<T>& v, Fn&& fn) {
    std::uint64_t n = v.size();
    pod(n);
    if (reading()) {
      check_len(n);
      v.assign(static_cast<std::size_t>(n), T{});
    }
    for (auto& e : v) fn(*this, e);
  }

 private:
  enum class Mode { kWrite, kRead };
  explicit Archive(Mode mode) : mode_(mode) {}

  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      throw ArchiveError("snapshot archive truncated");
    }
  }

  Mode mode_;
  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace wavesim::snap
