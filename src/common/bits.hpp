// Bit/alignment helpers. Guardian partitions are power-of-two sized and
// size-aligned so the fencing mask is `size - 1` (paper §4.4).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace grd {

// The `bytes` (1, 2, 4 or 8) bytes at `p` in host byte order, zero-extended,
// and its inverse. Each size is spelled out, so an access compiles to one
// move between memory and a register: a variable-length memcpy would make
// the caller's value live in a stack slot.
template <typename Word>
inline std::uint64_t LoadAs(const void* p) noexcept {
  Word v;
  std::memcpy(&v, p, sizeof(Word));
  return v;
}

template <typename Word>
inline void StoreAs(void* p, std::uint64_t value) noexcept {
  const auto v = static_cast<Word>(value);
  std::memcpy(p, &v, sizeof(Word));
}

inline std::uint64_t LoadWord(const void* p, std::size_t bytes) noexcept {
  switch (bytes) {
    case 1: return LoadAs<std::uint8_t>(p);
    case 2: return LoadAs<std::uint16_t>(p);
    case 4: return LoadAs<std::uint32_t>(p);
    default: return LoadAs<std::uint64_t>(p);
  }
}

inline void StoreWord(void* p, std::size_t bytes,
                      std::uint64_t value) noexcept {
  switch (bytes) {
    case 1: return StoreAs<std::uint8_t>(p, value);
    case 2: return StoreAs<std::uint16_t>(p, value);
    case 4: return StoreAs<std::uint32_t>(p, value);
    default: return StoreAs<std::uint64_t>(p, value);
  }
}

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
