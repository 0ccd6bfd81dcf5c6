#include "guardian/sandbox_cache.hpp"

#include <algorithm>
#include <functional>
#include <iterator>

#include "obs/trace.hpp"
#include "ptx/parser.hpp"
#include "ptx/validator.hpp"

namespace grd::guardian {

std::uint64_t HashPtxSource(std::string_view source) noexcept {
  // libstdc++'s std::hash over bytes: a Murmur-style hash with a fixed seed
  // that reads 8 bytes per step (0.13 ms for a 600 KB library, ~8x faster
  // than hashing a byte per step).
  return static_cast<std::uint64_t>(std::hash<std::string_view>{}(source));
}

Result<SandboxCache::Lookup> SandboxCache::GetOrPatch(
    const std::string& source, std::uint64_t content_hash,
    const ptxpatcher::PatchOptions& options) {
  Key key;
  key.content_hash = content_hash;
  key.mode = static_cast<std::uint8_t>(options.mode);
  key.skip_statically_safe = options.skip_statically_safe;
  key.protect_indirect_branches = options.protect_indirect_branches;
  key.elision_enabled = options.elision_enabled;

  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& chain = slots_[key];
    const auto found =
        std::find_if(chain.begin(), chain.end(), [&](LruList::iterator entry) {
          return (*entry)->source == source;
        });
    if (found != chain.end()) {
      lru_.splice(lru_.begin(), lru_, *found);  // now the most recent
    } else {
      lru_.push_front(std::make_shared<Slot>());
      lru_.front()->key = key;
      lru_.front()->source = source;
      chain.push_back(lru_.begin());
    }
    slot = lru_.front();
  }

  // The global lock is released: building one module does not block loads
  // of different modules. Same-module loads serialize on the slot mutex and
  // all but the first observe `done`.
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->done) {
    if (!slot->status.ok()) return slot->status;  // cached failure, not a hit
    ++stats_.hits;
    return Lookup{slot->compiled, slot->patch_stats, /*patched_now=*/false};
  }

  Build(*slot, options);
  slot->done = true;
  {
    // Charge the finished slot and make room for it. The slot itself is
    // in use here, so this pass never evicts it.
    std::lock_guard<std::mutex> cache_lock(mu_);
    slot->footprint_bytes = kSlotOverheadBytes + slot->source.size() +
                            slot->status.message().size() +
                            (slot->compiled ? slot->compiled->bytes() : 0);
    bytes_ += slot->footprint_bytes;
    EvictLocked();
  }
  if (!slot->status.ok()) return slot->status;
  return Lookup{slot->compiled, slot->patch_stats, /*patched_now=*/true};
}

void SandboxCache::Build(Slot& slot, const ptxpatcher::PatchOptions& options) {
  // Miss path only: cache hits never reach these spans, so a trace showing
  // sandbox.patch is itself evidence of a cold module.
  auto parsed = [&]() -> Result<ptx::Module> {
    obs::ScopedSpan parse_span("sandbox.parse", slot.source.size());
    GRD_ASSIGN_OR_RETURN(ptx::Module module, ptx::Parse(slot.source));
    // Reject semantically broken PTX at the trust boundary (undeclared
    // registers, dangling branch targets, unknown parameters) before it
    // reaches the patcher or the device.
    GRD_RETURN_IF_ERROR(ptx::ValidateOrError(module));
    return module;
  }();
  if (!parsed.ok()) {
    slot.status = parsed.status();
    return;
  }
  auto patched = [&] {
    obs::ScopedSpan patch_span("sandbox.patch", slot.source.size());
    return ptxpatcher::PatchModule(*parsed, options, &slot.patch_stats);
  }();
  if (!patched.ok()) {
    slot.status = patched.status();
    return;
  }
  ++stats_.patches;
  // Compile and fuse the patched kernels while we hold the slot: the
  // compile cost rides with the patch cost, paid once per distinct source
  // and skipped entirely by every subsequent hit. Both ASTs die on return.
  {
    obs::ScopedSpan compile_span("sandbox.compile", slot.source.size());
    slot.compiled = ptxexec::CompiledModule::Compile(*patched);
  }
  ++stats_.compiles;
}

void SandboxCache::EvictLocked() {
  auto cursor = lru_.end();
  while (bytes_ > capacity_bytes_ && cursor != lru_.begin()) {
    const auto victim = std::prev(cursor);
    // use_count > 1: a worker holds the slot (being built or just handed
    // out) — which also protects the slot whose charge triggered this pass.
    if (victim->use_count() > 1) {
      cursor = victim;
      continue;
    }
    const Slot& slot = **victim;
    bytes_ -= slot.footprint_bytes;
    stats_.bytes_reclaimed += slot.footprint_bytes;
    ++stats_.evictions;
    // Drop the emptied map node too, or unique-source churn would grow the
    // key map without bound while the byte total stays capped.
    const auto node = slots_.find(slot.key);
    auto& chain = node->second;
    chain.erase(std::find(chain.begin(), chain.end(), victim));
    if (chain.empty()) slots_.erase(node);
    lru_.erase(victim);
  }
}

std::size_t SandboxCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::uint64_t SandboxCache::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace grd::guardian
