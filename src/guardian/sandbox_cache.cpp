#include "guardian/sandbox_cache.hpp"

#include "obs/trace.hpp"

namespace grd::guardian {

std::uint64_t HashPtxSource(const std::string& source) noexcept {
  std::uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (const char c : source) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

SandboxCache::Key SandboxCache::MakeKey(
    const std::string& source,
    const ptxpatcher::PatchOptions& options) noexcept {
  Key key;
  key.content_hash = HashPtxSource(source);
  key.mode = static_cast<std::uint8_t>(options.mode);
  key.skip_statically_safe = options.skip_statically_safe;
  key.protect_indirect_branches = options.protect_indirect_branches;
  key.elision_enabled = options.elision_enabled;
  return key;
}

Result<SandboxCache::Lookup> SandboxCache::GetOrPatch(
    const std::string& source, const ptx::Module& parsed,
    const ptxpatcher::PatchOptions& options) {
  const Key key = MakeKey(source, options);

  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& chain = slots_[key];
    for (const auto& candidate : chain) {
      if (candidate->source == source) {
        slot = candidate;
        break;
      }
    }
    if (!slot) {
      slot = std::make_shared<Slot>();
      slot->source = source;
      // Source + ~patched module + ~compiled program (each estimated at
      // source size: patched PTX is the source plus a few fences per
      // access, and the bytecode is a constant factor of the instruction
      // count).
      slot->footprint_bytes = 3 * source.size();
      chain.push_back(slot);
      ++slot_count_;
    }
    slot->last_use = ++use_tick_;
    EvictLocked();
  }

  // The global lock is released: patching one module does not block loads
  // of different modules. Same-module loads serialize on the slot mutex and
  // all but the first observe `done`.
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->done) {
    if (!slot->status.ok()) return slot->status;  // cached failure, not a hit
    ++stats_.hits;
    return Lookup{slot->module, slot->compiled, slot->patch_stats,
                  /*patched_now=*/false};
  }

  ptxpatcher::PatchStats patch_stats;
  auto patched = [&] {
    // Miss path only: cache hits above never reach this span, so a trace
    // showing sandbox.patch is itself evidence of a cold module.
    obs::ScopedSpan patch_span("sandbox.patch", source.size());
    return ptxpatcher::PatchModule(parsed, options, &patch_stats);
  }();
  slot->done = true;
  if (!patched.ok()) {
    slot->status = patched.status();
    return slot->status;
  }
  ++stats_.patches;
  slot->patch_stats = patch_stats;
  slot->module = std::make_shared<const ptx::Module>(std::move(*patched));
  // Compile and fuse the patched kernels while we hold the slot: the
  // compile cost rides with the patch cost, paid once per distinct source
  // and skipped entirely by every subsequent hit.
  {
    obs::ScopedSpan compile_span("sandbox.compile", source.size());
    slot->compiled = ptxexec::CompiledModule::Compile(*slot->module);
  }
  ++stats_.compiles;
  return Lookup{slot->module, slot->compiled, slot->patch_stats,
                /*patched_now=*/true};
}

void SandboxCache::EvictLocked() {
  while (slot_count_ > capacity_) {
    // Find the least-recently-used idle slot. A slot with use_count > 1 is
    // held by a worker (being patched or just handed out this call) and is
    // skipped — which also protects the entry acquired above.
    auto victim_it = slots_.end();
    std::size_t victim_index = 0;
    std::uint64_t oldest = 0;
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      auto& chain = it->second;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].use_count() > 1) continue;
        if (victim_it == slots_.end() || chain[i]->last_use < oldest) {
          victim_it = it;
          victim_index = i;
          oldest = chain[i]->last_use;
        }
      }
    }
    if (victim_it == slots_.end()) return;  // everything in flight
    auto& chain = victim_it->second;
    stats_.bytes_reclaimed += chain[victim_index]->footprint_bytes;
    chain.erase(chain.begin() + victim_index);
    // Drop the emptied map node too, or unique-source churn would grow the
    // key map without bound while the slot count stays capped.
    if (chain.empty()) slots_.erase(victim_it);
    ++stats_.evictions;
    --slot_count_;
  }
}

std::size_t SandboxCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slot_count_;
}

}  // namespace grd::guardian
