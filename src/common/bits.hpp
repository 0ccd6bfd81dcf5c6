// Bit/alignment helpers. Guardian partitions are power-of-two sized and
// size-aligned so the fencing mask is `size - 1` (paper §4.4).
#pragma once

#include <bit>
#include <cstdint>

namespace grd {

constexpr bool IsPowerOfTwo(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

// Smallest power of two >= v (v = 0 maps to 1), or 0 when v exceeds 2^63
// and no uint64 power of two is that large (std::bit_ceil is undefined
// there).
constexpr std::uint64_t NextPowerOfTwo(std::uint64_t v) noexcept {
  if (v > (std::uint64_t{1} << 63)) return 0;
  return std::bit_ceil(v == 0 ? std::uint64_t{1} : v);
}

constexpr std::uint64_t AlignUp(std::uint64_t v, std::uint64_t align) noexcept {
  return (v + align - 1) & ~(align - 1);
}

constexpr std::uint64_t AlignDown(std::uint64_t v, std::uint64_t align) noexcept {
  return v & ~(align - 1);
}

constexpr bool IsAligned(std::uint64_t v, std::uint64_t align) noexcept {
  return (v & (align - 1)) == 0;
}

// Mask for a power-of-two partition of `size` bytes: low bits that select an
// offset inside the partition (paper Figure 4: size 16 MB -> 0x000000FFFFFF).
constexpr std::uint64_t PartitionMask(std::uint64_t size) noexcept {
  return size - 1;
}

// The paper's address-fencing transform (Listing 1, lines 26-28):
//   fenced = (addr & mask) | base
// Identity for in-partition addresses; wraps out-of-partition addresses back
// into [base, base+size).
constexpr std::uint64_t FenceAddress(std::uint64_t addr, std::uint64_t base,
                                     std::uint64_t mask) noexcept {
  return (addr & mask) | base;
}

// Address-fencing with modulo (paper §4.4):
//   fenced = base + ((addr - base) % size)
// Valid for arbitrary (non power-of-two) partition sizes. Note: matches the
// paper's formula, which for addr < base relies on unsigned wraparound.
constexpr std::uint64_t FenceAddressModulo(std::uint64_t addr,
                                           std::uint64_t base,
                                           std::uint64_t size) noexcept {
  return base + ((addr - base) % size);
}

}  // namespace grd
