// FNV-1a state digest over the committed simulation state. Used by the
// bit-identity tests (fast-forward on/off, repeated runs, sweep rows at any
// job-thread count) and by `axihc --digest` instead of ad-hoc
// per-observable comparisons.
//
// Determinism notes:
//  * The digest folds explicit fields, never raw struct bytes — padding
//    bytes are indeterminate and would make the hash run-dependent.
//  * Payload types opt in via an ADL `append_digest(StateDigest&, const T&)`
//    overload next to the type (see src/axi/axi.hpp); integral and enum
//    payloads get the generic overload below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace axihc {

class StateDigest {
 public:
  /// Folds one 64-bit word, byte by byte (FNV-1a).
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= kPrime;
    }
  }

  /// Folds a length-prefixed string (names self-delimit in the stream).
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= kPrime;
    }
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash_ = kOffsetBasis;
};

/// Generic overload for integral/enum channel payloads and state fields.
template <typename T>
  requires(std::is_integral_v<T> || std::is_enum_v<T>)
void append_digest(StateDigest& d, const T& v) {
  d.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

namespace digest_detail {

/// Dispatches to the payload's `append_digest` via ADL. Exists so class
/// members named `append_digest` (ChannelBase, Component) can reach the free
/// overload set without the member declaration hiding it.
template <typename T>
void fold(StateDigest& d, const T& v) {
  append_digest(d, v);
}

}  // namespace digest_detail

}  // namespace axihc
