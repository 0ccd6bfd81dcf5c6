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
// Every access is one range check and one move at `base + addr`. The kernel
// engine's per-lane path is ReadWord/WriteWord: a bool and a register, so a
// lane's access builds no Status. Read/Write, Fill, Copy and Zero return a
// Status and serve host transfers. Because the mapping is shared, a process
// forked after the GlobalMemory was built reads and writes the same bytes
// as its parent: ProcessServer builds its workers' devices before forking,
// so a respawned worker serves the bytes its dead predecessor wrote.
//
// Concurrency: no lock. Co-resident kernels under the guardian device
// scheduler access the mapping directly; racing writes to the *same* bytes
// are a device-level data race exactly as on real hardware (Guardian's
// partitioning keeps tenants on disjoint ranges).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bits.hpp"
#include "common/status.hpp"

namespace grd::simgpu {

// Access-control hook a kernel engine consults on every device-side global
// access when one is set (and the runtimes on host-initiated transfers). A
// null policy means no per-access check: the grdManager's launches run
// patched PTX, whose fence instructions keep every address inside the
// tenant's partition. Implementations:
//  - simcuda native: per-context allocation ownership (a context cannot touch
//    another context's memory -> fault, like real per-context page tables);
//  - the tests' range and counting policies.
class AccessPolicy {
 public:
  virtual ~AccessPolicy() = default;
  // `client` identifies the tenant on whose behalf the access runs.
  virtual Status CheckAccess(std::uint64_t client, std::uint64_t addr,
                             std::uint64_t size, bool is_write) = 0;
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

  // Whether [addr, addr + len) lies inside device memory.
  bool InRange(std::uint64_t addr, std::uint64_t len) const {
    return len <= size_ && addr <= size_ - len;
  }
  // OK when it does; otherwise the OutOfRange status every access below
  // fails with.
  Status CheckRange(std::uint64_t addr, std::uint64_t len) const {
    if (InRange(addr, len)) [[likely]]
      return OkStatus();
    return RangeError(addr, len);
  }

  // Inline: the kernel engine's per-lane path. `bytes` is 1, 2, 4 or 8; a
  // read zero-extends into *value. False, moving nothing, when the access
  // leaves device memory (CheckRange then names the fault).
  bool ReadWord(std::uint64_t addr, std::size_t bytes,
                std::uint64_t* value) const {
    if (!InRange(addr, bytes)) [[unlikely]]
      return false;
    *value = LoadWord(base_ + addr, bytes);
    return true;
  }
  bool WriteWord(std::uint64_t addr, std::size_t bytes, std::uint64_t value) {
    if (!InRange(addr, bytes)) [[unlikely]]
      return false;
    StoreWord(base_ + addr, bytes, value);
    return true;
  }

  Status Read(std::uint64_t addr, void* dst, std::uint64_t len) const;
  Status Write(std::uint64_t addr, const void* src, std::uint64_t len);
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
  [[gnu::cold]] Status RangeError(std::uint64_t addr,
                                  std::uint64_t len) const;

  std::uint64_t size_;
  std::uint8_t* base_ = nullptr;
};

}  // namespace grd::simgpu
