// Content-addressed cache of sandboxed PTX modules and their compiled
// programs.
//
// The paper patches every registered module per client (§4.2.3). In a
// multi-tenant deployment N clients typically load the *same* accelerated
// library, so the patch cost is paid N times for identical input. The cache
// keys on (FNV-1a hash of the PTX source) × (bounds-check mode and patch
// flags) and stores the patched module behind a shared_ptr, so N tenants
// loading the same library patch it once and share the immutable result.
//
// Each slot also stores the patched module compiled and fused by
// ptxexec::CompiledModule::Compile (program.hpp), the program every launch
// runs: a cache hit skips parse-output patching, verification replay AND
// compilation, so a repeat load costs one hash plus one source compare —
// which is what makes the cached launch path's cost independent of kernel
// size.
//
// Concurrency: a global mutex guards the slot map only; the patch itself
// runs under a per-slot mutex, so two workers patching *different* modules
// proceed in parallel while two workers loading the *same* module serialize
// and the second gets the cached result. Hash collisions are handled by
// verifying the full source text, never by trusting the hash.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "ptx/ast.hpp"
#include "ptxexec/program.hpp"
#include "ptxpatcher/patcher.hpp"

namespace grd::guardian {

// 64-bit FNV-1a over the module source — the cache's content address.
std::uint64_t HashPtxSource(const std::string& source) noexcept;

class SandboxCache {
 public:
  // Entry cap: the cache is bounded (LRU eviction) so a tenant looping
  // unique PTX sources cannot grow the trusted manager without bound.
  // Sessions keep their module shared_ptr, so evicting an entry never
  // invalidates an already-loaded module — a re-load just re-patches.
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit SandboxCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Successful-outcome counters, mirrored 1:1 by the manager's
  // ptx_modules_patched / ptx_cache_hits stats: `patches` counts modules
  // successfully patched, `hits` counts loads served a cached module.
  // Failed patches (fresh or replayed) count in neither — the error itself
  // reaches the caller.
  struct Stats {
    std::atomic<std::uint64_t> patches{0};
    std::atomic<std::uint64_t> hits{0};
    // Modules compiled and fused (once per fresh patch); a cached load
    // reuses the stored program and does not bump this — the
    // compiled-program cache tests key off exactly that.
    std::atomic<std::uint64_t> compiles{0};
    std::atomic<std::uint64_t> evictions{0};
    // Approximate bytes LRU eviction reclaimed (source text retained for
    // collision-proofing plus the patched module, estimated at source
    // size); mirrored into ManagerStats for operators.
    std::atomic<std::uint64_t> bytes_reclaimed{0};
  };

  struct Lookup {
    std::shared_ptr<const ptx::Module> module;
    // The module's kernels compiled and fused together with the patch and
    // cached alongside it; launches run these directly.
    std::shared_ptr<const ptxexec::CompiledModule> compiled;
    // Aggregate patcher stats for the module, cached with it so the manager
    // can mirror the guard-elision counters on the load that patched
    // (patched_now) without re-running the patcher.
    ptxpatcher::PatchStats patch_stats;
    bool patched_now = false;  // false = served from cache
  };

  // Returns the sandboxed module for `source`, patching `parsed` on first
  // use. Patch failures are cached too: identical input yields an identical
  // error without re-running the patcher.
  Result<Lookup> GetOrPatch(const std::string& source,
                            const ptx::Module& parsed,
                            const ptxpatcher::PatchOptions& options);

  const Stats& stats() const noexcept { return stats_; }

  // Distinct cached entries (successful and failed).
  std::size_t size() const;

 private:
  struct Key {
    std::uint64_t content_hash = 0;
    std::uint8_t mode = 0;
    bool skip_statically_safe = false;
    bool protect_indirect_branches = false;
    bool elision_enabled = false;

    bool operator==(const Key& other) const noexcept {
      return content_hash == other.content_hash && mode == other.mode &&
             skip_statically_safe == other.skip_statically_safe &&
             protect_indirect_branches == other.protect_indirect_branches &&
             elision_enabled == other.elision_enabled;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return static_cast<std::size_t>(
          key.content_hash ^ (static_cast<std::uint64_t>(key.mode) << 56) ^
          (static_cast<std::uint64_t>(key.skip_statically_safe) << 55) ^
          (static_cast<std::uint64_t>(key.protect_indirect_branches) << 54) ^
          (static_cast<std::uint64_t>(key.elision_enabled) << 53));
    }
  };
  struct Slot {
    std::mutex mu;
    std::string source;  // full text: collision-proofs the content hash
    bool done = false;
    Status status{};  // non-OK when the cached patch failed
    std::shared_ptr<const ptx::Module> module;
    std::shared_ptr<const ptxexec::CompiledModule> compiled;
    ptxpatcher::PatchStats patch_stats;
    std::uint64_t last_use = 0;  // LRU tick, guarded by the cache's mu_
    // Estimated resident footprint charged to bytes_reclaimed on eviction:
    // the retained source plus the patched module plus the compiled
    // program (each approximated by the source size).
    std::uint64_t footprint_bytes = 0;
  };

  static Key MakeKey(const std::string& source,
                     const ptxpatcher::PatchOptions& options) noexcept;

  // Drops least-recently-used idle entries until within capacity. Requires
  // mu_ held. Slots referenced outside the map (a worker mid-patch) are
  // never evicted — their use_count keeps them safe.
  void EvictLocked();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::uint64_t use_tick_ = 0;     // guarded by mu_
  std::size_t slot_count_ = 0;     // guarded by mu_; kept in step with slots_
  // Hash collisions chain into the vector; entries are matched by full
  // source comparison.
  std::unordered_map<Key, std::vector<std::shared_ptr<Slot>>, KeyHash> slots_;
  Stats stats_;
};

}  // namespace grd::guardian
