// Simulated GPU global memory: a sparse, byte-addressable store over the
// device address range [0, global_mem_bytes). Sparse 64 KiB paging keeps a
// "16 GB" device cheap to host. Kernels executed by ptxexec really read and
// write this store, so cross-tenant corruption and wrap-around effects are
// observable, not just modeled.
//
// Concurrency: the page directory is a fixed array of atomic page pointers
// (2 MiB of directory for a 16 GB device), so co-resident kernels under the
// guardian device scheduler access memory without taking any lock — first
// touch installs a page with a CAS, losers discard their allocation. Byte
// ranges are NOT serialized against each other: racing writes to the *same*
// bytes are a device-level data race exactly as on real hardware
// (Guardian's partitioning keeps tenants on disjoint ranges).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

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
  explicit GlobalMemory(std::uint64_t size_bytes);
  ~GlobalMemory();

  GlobalMemory(const GlobalMemory&) = delete;
  GlobalMemory& operator=(const GlobalMemory&) = delete;

  std::uint64_t size() const noexcept { return size_; }

  // Bytes currently backed by host pages (diagnostics).
  std::uint64_t resident_bytes() const noexcept {
    return resident_pages_.load(std::memory_order_relaxed) * kPageSize;
  }

  // OK when [addr, addr + len) lies inside device memory; otherwise the
  // status Read and Write fail with.
  Status CheckRange(std::uint64_t addr, std::uint64_t len) const;

  Status Read(std::uint64_t addr, void* dst, std::uint64_t len) const;
  Status Write(std::uint64_t addr, const void* src, std::uint64_t len);

  // The kernel engine's per-access path: one access of at most 8 bytes
  // inside one page, inline. Falls back to Read/Write for a store to an
  // untouched page and for any access the fast path does not cover (past
  // the end of device memory, or crossing a page), so every outcome and
  // status is theirs.
  Status ReadInPage(std::uint64_t addr, void* dst, std::uint64_t len) const {
    if (InOnePage(addr, len)) [[likely]] {
      if (const std::uint8_t* page = PageForRead(addr / kPageSize)) {
        CopySmall(dst, page + addr % kPageSize, len);
      } else {
        std::memset(dst, 0, len);
      }
      return OkStatus();
    }
    return Read(addr, dst, len);
  }
  Status WriteInPage(std::uint64_t addr, const void* src, std::uint64_t len) {
    if (InOnePage(addr, len)) [[likely]] {
      if (std::uint8_t* page =
              pages_[addr / kPageSize].load(std::memory_order_acquire)) {
        CopySmall(page + addr % kPageSize, src, len);
        return OkStatus();
      }
    }
    return Write(addr, src, len);
  }

  Status Fill(std::uint64_t addr, std::uint8_t value, std::uint64_t len);
  // Device-to-device copy (cudaMemcpyD2D path).
  Status Copy(std::uint64_t dst, std::uint64_t src, std::uint64_t len);

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
  static constexpr std::uint64_t kPageSize = 64 * 1024;

  bool InOnePage(std::uint64_t addr, std::uint64_t len) const {
    return len <= 8 && addr < size_ && len <= size_ - addr &&
           addr % kPageSize + len <= kPageSize;
  }
  // memcpy with the access sizes the engine issues spelled out, so each
  // compiles to one move instead of a library call.
  static void CopySmall(void* dst, const void* src, std::uint64_t len) {
    switch (len) {
      case 1: std::memcpy(dst, src, 1); break;
      case 2: std::memcpy(dst, src, 2); break;
      case 4: std::memcpy(dst, src, 4); break;
      case 8: std::memcpy(dst, src, 8); break;
      default: std::memcpy(dst, src, len); break;
    }
  }
  // Null when the page was never touched (reads as zero).
  const std::uint8_t* PageForRead(std::uint64_t page_index) const {
    return pages_[page_index].load(std::memory_order_acquire);
  }
  // Installs a zeroed page on first touch (lock-free, CAS losers discard).
  std::uint8_t* PageForWrite(std::uint64_t page_index);

  std::uint64_t size_;
  std::uint64_t page_count_;
  std::atomic<std::uint64_t> resident_pages_{0};
  // Copy-on-first-touch 64 KiB pages behind atomic pointers; absent pages
  // read as zero. Owned; freed in the destructor.
  std::unique_ptr<std::atomic<std::uint8_t*>[]> pages_;
};

}  // namespace grd::simgpu
