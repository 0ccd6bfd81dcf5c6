// Simulated GPU global memory: a byte-addressable store over the device
// address range [0, global_mem_bytes). Kernels executed by ptxexec really
// read and write this store, so cross-tenant corruption and wrap-around
// effects are observable, not just modeled.
//
// The store is one MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE mapping of the
// whole device, so a "16 GB" device costs address space, not memory: the
// kernel backs a page on its first touch and bytes never written read as
// zero. Reads commit pages too (shared anonymous memory has no shared zero
// page), so reading an untouched range costs the same memory as writing it.
// Every access is one range check and one memcpy/memset/memmove at
// `base + addr`. Because the mapping is shared, a process forked after the
// GlobalMemory was built reads and writes the same bytes as its parent:
// ProcessServer builds its workers' devices before forking, so a respawned
// worker serves the bytes its dead predecessor wrote.
//
// Concurrency: no lock. Co-resident kernels under the guardian device
// scheduler access the mapping directly; racing writes to the *same* bytes
// are a device-level data race exactly as on real hardware (Guardian's
// partitioning keeps tenants on disjoint ranges).
#pragma once

#include <cstdint>
#include <cstring>

#include "common/status.hpp"

namespace grd::simgpu {

// Access-control hook consulted on every device-side global access (and on
// host-initiated transfers by the runtimes). Implementations:
//  - simcuda native: per-context allocation ownership (a context cannot touch
//    another context's memory -> fault, like real per-context page tables);
//  - MPS baseline: per-client protection, fault kills everyone (grd::baselines);
//  - single-context stream sharing (Guardian w/o protection): allow-all --
//    which is exactly the unsafety Guardian closes.
class AccessPolicy {
 public:
  virtual ~AccessPolicy() = default;
  // `client` identifies the tenant on whose behalf the access runs.
  virtual Status CheckAccess(std::uint64_t client, std::uint64_t addr,
                             std::uint64_t size, bool is_write) = 0;
};

// Allow-everything policy (single shared CUDA context, paper Figure 1).
class AllowAllPolicy final : public AccessPolicy {
 public:
  Status CheckAccess(std::uint64_t, std::uint64_t, std::uint64_t,
                     bool) override {
    return OkStatus();
  }
};

class GlobalMemory {
 public:
  // Maps the device; throws std::bad_alloc when the address space is
  // exhausted.
  explicit GlobalMemory(std::uint64_t size_bytes);
  ~GlobalMemory();

  GlobalMemory(const GlobalMemory&) = delete;
  GlobalMemory& operator=(const GlobalMemory&) = delete;

  std::uint64_t size() const noexcept { return size_; }

  // OK when [addr, addr + len) lies inside device memory; otherwise the
  // OutOfRange status every access below fails with.
  Status CheckRange(std::uint64_t addr, std::uint64_t len) const {
    if (InRange(addr, len)) [[likely]]
      return OkStatus();
    return RangeError(addr, len);
  }

  // Inline: the kernel engine's per-access path.
  Status Read(std::uint64_t addr, void* dst, std::uint64_t len) const {
    if (!InRange(addr, len)) [[unlikely]]
      return RangeError(addr, len);
    CopyBytes(dst, base_ + addr, len);
    return OkStatus();
  }
  Status Write(std::uint64_t addr, const void* src, std::uint64_t len) {
    if (!InRange(addr, len)) [[unlikely]]
      return RangeError(addr, len);
    CopyBytes(base_ + addr, src, len);
    return OkStatus();
  }

  Status Fill(std::uint64_t addr, std::uint8_t value, std::uint64_t len);
  // Device-to-device copy (cudaMemcpyD2D path); the ranges may overlap.
  Status Copy(std::uint64_t dst, std::uint64_t src, std::uint64_t len);
  // Zeroes [addr, addr + len) and hands its whole pages back to the kernel
  // (MADV_REMOVE), so a range a departed tenant dirtied costs no memory
  // until it is touched again. The partial pages at either end are
  // memset, so bytes outside the range are never disturbed.
  Status Zero(std::uint64_t addr, std::uint64_t len);

  template <typename T>
  Result<T> Load(std::uint64_t addr) const {
    T v{};
    GRD_RETURN_IF_ERROR(Read(addr, &v, sizeof(T)));
    return v;
  }
  template <typename T>
  Status Store(std::uint64_t addr, const T& v) {
    return Write(addr, &v, sizeof(T));
  }

 private:
  bool InRange(std::uint64_t addr, std::uint64_t len) const {
    return len <= size_ && addr <= size_ - len;
  }
  [[gnu::cold]] Status RangeError(std::uint64_t addr,
                                  std::uint64_t len) const;
  // memcpy with the access sizes the engine issues spelled out, so each
  // compiles to one move instead of a library call.
  static void CopyBytes(void* dst, const void* src, std::uint64_t len) {
    switch (len) {
      case 1: std::memcpy(dst, src, 1); break;
      case 2: std::memcpy(dst, src, 2); break;
      case 4: std::memcpy(dst, src, 4); break;
      case 8: std::memcpy(dst, src, 8); break;
      default: std::memcpy(dst, src, len); break;
    }
  }

  std::uint64_t size_;
  std::uint8_t* base_ = nullptr;
};

}  // namespace grd::simgpu
