// Bit-level primitives shared by every layer: the binary-reflected Gray
// code that lays shards and kernel rings onto the cube, FNV-1a 64 (content
// addresses, result digests) and splitmix64 (seeded data and fuzz
// streams). Header-only and dependency-free, so the sim layer — the bottom
// of the stack — and everything above it use the one definition.
#pragma once

#include <cstdint>
#include <string_view>

namespace fpst::bits {

/// Binary-reflected Gray code: consecutive ranks differ in exactly one bit.
constexpr std::uint32_t gray(std::uint32_t i) { return i ^ (i >> 1); }

/// Inverse of gray(): the rank whose Gray code is `g` (prefix XOR).
constexpr std::uint32_t gray_inverse(std::uint32_t g) {
  for (std::uint32_t shift = 1; shift < 32; shift <<= 1) {
    g ^= g >> shift;
  }
  return g;
}

/// FNV-1a 64-bit offset basis and prime.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Fold one byte into a running FNV-1a 64 hash.
constexpr std::uint64_t fnv1a(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * kFnvPrime;
}

/// FNV-1a 64 over a byte string.
constexpr std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h = fnv1a(h, static_cast<std::uint8_t>(c));
  }
  return h;
}

/// splitmix64's stream increment (2^64 / golden ratio).
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output mix: a bijection of 64-bit words.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64 as a hash of one word.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return mix64(x + kGoldenGamma);
}

/// splitmix64 as a generator: advance `state` and return the next draw.
constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  return mix64(state += kGoldenGamma);
}

}  // namespace fpst::bits
