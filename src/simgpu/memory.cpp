#include "simgpu/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "common/strings.hpp"

namespace grd::simgpu {
namespace {

// mmap takes no empty mapping; a zero-byte device maps one byte it never
// lets anyone reach.
std::uint64_t MappedBytes(std::uint64_t size) {
  return std::max<std::uint64_t>(size, 1);
}

}  // namespace

GlobalMemory::GlobalMemory(std::uint64_t size_bytes) : size_(size_bytes) {
  void* base = ::mmap(nullptr, MappedBytes(size_), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::uint8_t*>(base);
}

GlobalMemory::~GlobalMemory() { ::munmap(base_, MappedBytes(size_)); }

Status GlobalMemory::RangeError(std::uint64_t addr, std::uint64_t len) const {
  return OutOfRange("device access " + ToHex(addr) + "+" +
                    std::to_string(len) + " beyond device memory (" +
                    std::to_string(size_) + " bytes)");
}

Status GlobalMemory::Read(std::uint64_t addr, void* dst,
                          std::uint64_t len) const {
  if (!InRange(addr, len)) return RangeError(addr, len);
  std::memcpy(dst, base_ + addr, len);
  return OkStatus();
}

Status GlobalMemory::Write(std::uint64_t addr, const void* src,
                           std::uint64_t len) {
  if (!InRange(addr, len)) return RangeError(addr, len);
  std::memcpy(base_ + addr, src, len);
  return OkStatus();
}

Status GlobalMemory::Fill(std::uint64_t addr, std::uint8_t value,
                          std::uint64_t len) {
  if (!InRange(addr, len)) return RangeError(addr, len);
  std::memset(base_ + addr, value, len);
  return OkStatus();
}

Status GlobalMemory::Copy(std::uint64_t dst, std::uint64_t src,
                          std::uint64_t len) {
  if (!InRange(dst, len)) return RangeError(dst, len);
  if (!InRange(src, len)) return RangeError(src, len);
  std::memmove(base_ + dst, base_ + src, len);
  return OkStatus();
}

Status GlobalMemory::Zero(std::uint64_t addr, std::uint64_t len) {
  if (!InRange(addr, len)) return RangeError(addr, len);
  static const std::uint64_t kPage =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t first = (addr + kPage - 1) / kPage * kPage;
  const std::uint64_t last = (addr + len) / kPage * kPage;
  if (first >= last ||
      ::madvise(base_ + first, last - first, MADV_REMOVE) != 0) {
    std::memset(base_ + addr, 0, len);
    return OkStatus();
  }
  std::memset(base_ + addr, 0, first - addr);
  std::memset(base_ + last, 0, addr + len - last);
  return OkStatus();
}

}  // namespace grd::simgpu
