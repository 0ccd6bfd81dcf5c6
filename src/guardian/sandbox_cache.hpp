// Content-addressed cache of compiled sandboxed PTX programs.
//
// The paper patches every registered module per client (§4.2.3). In a
// multi-tenant deployment N clients typically load the *same* accelerated
// library, so the patch cost is paid N times for identical input. The cache
// keys on (content hash of the PTX source) × (bounds-check mode and patch
// flags), so N tenants loading the same library pay for it once and share
// the immutable result.
//
// The lookup comes first. A load hashes its source once (HashPtxSource,
// 8 bytes per step) and compares it in full against the slot's retained
// source, and that is all a repeat load costs: a hit returns the stored
// program without parsing, validating, patching or compiling anything.
// Only a miss runs Parse → ValidateOrError → PatchModule →
// CompiledModule::Compile, under the slot's mutex, and drops both ASTs once
// the fused program exists. A slot therefore holds its source, its status,
// the compiled program, the patch stats and its footprint — never an AST.
// The trust boundary does not move: a hit serves the program built from
// bytes that passed validation, and the hash match plus the full source
// compare prove those bytes equal the request's.
//
// Concurrency: a global mutex guards the slot map and LRU list only; the
// miss itself runs under a per-slot mutex, so two workers building
// *different* modules proceed in parallel while two workers loading the
// *same* module serialize and the second gets the cached result. Hash
// collisions are handled by verifying the full source text, never by
// trusting the hash.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "ptxexec/program.hpp"
#include "ptxpatcher/patcher.hpp"

namespace grd::guardian {

// The content address of a module source, and the only content hash in the
// guardian layer: the sandbox cache and the shared PTX intern arena both key
// on it, so a load hashes its source once. Reads 8 bytes per step; the
// result is deterministic across the processes of one binary.
std::uint64_t HashPtxSource(std::string_view source) noexcept;

class SandboxCache {
 public:
  // Byte budget (LRU eviction) so a tenant looping unique PTX sources cannot
  // grow the trusted manager without bound. Once its miss finishes, a slot
  // is charged kSlotOverheadBytes plus its source, its error message (a
  // failed build) and CompiledModule::bytes() (a successful one). Sessions
  // keep their program shared_ptr, so evicting a slot never invalidates an
  // already-loaded module — a re-load just rebuilds it.
  static constexpr std::size_t kDefaultCapacityBytes = std::size_t{1} << 30;

  // What a slot costs beyond its source, message and program: the slot
  // itself with its shared_ptr control block, its LRU list node, its share
  // of the key map (node, chain vector, bucket) and the allocator headers
  // of each, rounded up (a failed slot for a source of a few bytes measures
  // about 500 B of RSS on x86-64 libstdc++, message included). Without it a
  // tenant loading unique sources of a few bytes would be charged a few
  // bytes per slot and could fill memory with slots long before the budget
  // evicted any.
  static constexpr std::size_t kSlotOverheadBytes = 512;

  explicit SandboxCache(std::size_t capacity_bytes = kDefaultCapacityBytes)
      : capacity_bytes_(capacity_bytes) {}

  // Successful-outcome counters, mirrored 1:1 by the manager's
  // ptx_modules_patched / ptx_cache_hits stats: `patches` counts modules
  // successfully patched, `hits` counts loads served a cached program.
  // Failed loads (parse, validate or patch; fresh or replayed) count in
  // neither — the error itself reaches the caller.
  struct Stats {
    std::atomic<std::uint64_t> patches{0};
    std::atomic<std::uint64_t> hits{0};
    // Modules compiled and fused (once per fresh patch); a cached load
    // reuses the stored program and does not bump this — the
    // compiled-program cache tests key off exactly that.
    std::atomic<std::uint64_t> compiles{0};
    std::atomic<std::uint64_t> evictions{0};
    // Sum of the evicted slots' charged footprints; mirrored into
    // ManagerStats for operators.
    std::atomic<std::uint64_t> bytes_reclaimed{0};
  };

  struct Lookup {
    // The module's kernels patched, compiled and fused; launches run these
    // directly.
    std::shared_ptr<const ptxexec::CompiledModule> compiled;
    // Aggregate patcher stats for the module, cached with it so the manager
    // can mirror guards_elided on the load that patched (patched_now)
    // without re-running the patcher.
    ptxpatcher::PatchStats patch_stats;
    bool patched_now = false;  // false = served from cache
  };

  // Returns the compiled sandboxed program for `source`, whose
  // HashPtxSource is `content_hash`, building it on first use. Failures of
  // any miss stage are cached too: identical input yields an identical
  // error without re-running parse, validation or the patcher.
  Result<Lookup> GetOrPatch(const std::string& source,
                            std::uint64_t content_hash,
                            const ptxpatcher::PatchOptions& options);

  const Stats& stats() const noexcept { return stats_; }

  // Distinct cached entries (successful and failed).
  std::size_t size() const;

  // Sum of the live slots' charged footprints; at most the budget once
  // every in-flight miss has finished.
  std::uint64_t bytes_in_use() const;

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
    Key key;             // finds the slot's chain when it is evicted
    std::mutex mu;
    std::string source;  // full text: collision-proofs the content hash
    bool done = false;
    Status status{};  // non-OK when the cached build failed
    std::shared_ptr<const ptxexec::CompiledModule> compiled;
    ptxpatcher::PatchStats patch_stats;
    // Charged to bytes_ once the miss finishes and credited to
    // bytes_reclaimed on eviction. Guarded by the cache's mu_.
    std::uint64_t footprint_bytes = 0;
  };
  // Owns the slots, most recently used first.
  using LruList = std::list<std::shared_ptr<Slot>>;

  // Parse → validate → patch → compile for a slot's first load; runs under
  // the slot mutex and fills status or compiled/patch_stats.
  void Build(Slot& slot, const ptxpatcher::PatchOptions& options);

  // Drops least-recently-used idle slots until within the byte budget,
  // walking from the cold end of lru_. Requires mu_ held. A slot referenced
  // outside the list (a worker mid-build, or one just handed out) is
  // skipped, so a pass costs the busy slots it steps over plus its victims.
  void EvictLocked();

  const std::size_t capacity_bytes_;
  mutable std::mutex mu_;
  std::uint64_t bytes_ = 0;  // guarded by mu_; sum of footprints
  LruList lru_;              // guarded by mu_
  // Guarded by mu_. Hash collisions chain into the vector; entries are
  // matched by full source comparison.
  std::unordered_map<Key, std::vector<LruList::iterator>, KeyHash> slots_;
  Stats stats_;
};

}  // namespace grd::guardian
