// Partition bounds (paper §4.2.1): an application's base address, size and
// fencing mask. Each ClientSession holds its own copy, which every
// host-initiated transfer is checked against (§4.2.2) and every sandboxed
// kernel launch appends as the fencing arguments (§4.2.3).
#pragma once

#include <cstdint>

#include "common/bits.hpp"

namespace grd::guardian {

using ClientId = std::uint64_t;

struct PartitionBounds {
  std::uint64_t base = 0;
  std::uint64_t size = 0;

  std::uint64_t mask() const noexcept { return PartitionMask(size); }
  std::uint64_t end() const noexcept { return base + size; }
  bool Contains(std::uint64_t addr, std::uint64_t len) const noexcept {
    return addr >= base && len <= size && addr - base <= size - len;
  }
};

}  // namespace grd::guardian
