// Execution layer of the grdManager (see ARCHITECTURE.md).
//
// Everything the request handlers share across sessions lives here: the
// simulated GPUs (lent by the caller), their partition allocators and
// device schedulers, the sandbox cache and the cost counters. A session's
// own partition bounds live in its ClientSession, read under the session
// mutex. Each piece is guarded separately so that concurrent requests only
// serialize where the hardware model demands it:
//  - `partition_mu` covers the partition allocator — the only
//    allocator-critical section left;
//  - device-memory traffic and kernel execution go through the
//    GpuScheduler: per-stream FIFO queues drained by an executor pool under
//    an SM-occupancy model, replacing the old `gpu_mu` big lock;
//  - `native_mu` fences the §4.2.3 standalone fast path: a native
//    (unfenced) kernel holds it shared while resident, registration takes
//    it exclusively after publishing a new session, so an unprotected
//    kernel never overlaps a partition it did not know about;
//  - the sandbox cache carries its own internal lock;
//  - `ManagerStats` counters are relaxed atomics, safe to bump from any
//    worker or executor.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "guardian/bounds_table.hpp"
#include "guardian/gpu_scheduler.hpp"
#include "guardian/partition_allocator.hpp"
#include "guardian/preemption.hpp"
#include "guardian/sandbox_cache.hpp"
#include "ptxexec/launch.hpp"
#include "ptxpatcher/patcher.hpp"
#include "simcuda/gpu.hpp"

namespace grd::guardian {

struct ManagerOptions {
  // Bounds-checking method used for sandboxing (§4.4).
  ptxpatcher::BoundsCheckMode mode =
      ptxpatcher::BoundsCheckMode::kFencingBitwise;
  // false = "Guardian w/o protection": interception and forwarding only
  // (the paper's ablation deployment built on Arax-style sharing).
  bool protection_enabled = true;
  // §4.2.3: "when the grdManager detects that an application runs
  // standalone, it issues a native kernel". Off by default so multi-tenant
  // tests and the overhead benchmarks exercise the sandboxed path even with
  // a single client; the paper's deployment turns it on.
  bool standalone_fast_path = false;
  // §2.2 extension: statically safe kernels (no protected accesses) are
  // not instrumented at all.
  bool skip_statically_safe = false;
  // Guard elision (PatchOptions::elision_enabled): an access reuses an
  // identical fence computed earlier in its label-free span. Purely a
  // patch-time rewrite with identical wrap/trap semantics, so it defaults
  // on; turn off to force the full per-access patching oracle.
  bool guard_elision_enabled = true;
  // TReM-style revocation [53]: kernels exceeding this per-thread
  // instruction budget are terminated and the client is failed, so an
  // endless (possibly wrap-around-corrupted) kernel cannot hold the GPU.
  // With the preemption engine enabled this is the *last* resort: a
  // checkpointable kernel is revoked-and-requeued once (keeping its
  // completed blocks) before the budget failure is final.
  std::uint64_t max_kernel_instructions = 10'000'000;
  // Preemption engine (preemption.hpp): mid-kernel revocation at block
  // boundaries for higher-priority tenants, priority-aware SM admission and
  // anti-starvation aging. Disabling reverts to pure FIFO-with-occupancy
  // scheduling and one-shot budget kills.
  bool preemption_enabled = true;
  // Instructions between cooperative preemption polls inside a block.
  std::uint64_t preempt_check_interval = 5'000;
  // One effective-priority-class boost per this much queued wait time
  // (anti-starvation aging); 0 disables aging.
  std::uint64_t aging_quantum_ns = 250'000'000;
  // Byte budget for the content-addressed sandbox cache (LRU-evicted), so a
  // tenant cycling unique PTX cannot grow the manager without bound. A slot
  // costs SandboxCache::kSlotOverheadBytes plus its source, its error
  // message or its compiled program's bytes.
  std::size_t sandbox_cache_bytes = SandboxCache::kDefaultCapacityBytes;
  // Executor threads draining the device scheduler's stream queues — the
  // simulated equivalent of how many kernels/copies make progress at once.
  std::size_t scheduler_executors = 2;
  // >0: executors dilate each finished op's modeled device cycles into a
  // real sleep of cycles × this many nanoseconds, so co-resident kernels
  // genuinely overlap in wall-clock time (bench_stream_overlap). 0 =
  // functional-only execution, no sleeps.
  double device_time_ns_per_cycle = 0.0;
  // Live migration: with more than one device, a kBatch arriving for a
  // session whose device has at least this many ops queued while some other
  // device sits idle triggers a migration (revoke running kernels at a block
  // boundary, copy the partition, re-admit the checkpointed kernels on the
  // target). 0 disables the automatic trigger.
  std::uint64_t migrate_queue_threshold = 8;
  // End-to-end request tracing (obs/trace.hpp): grdLib stamps a
  // TraceContext into every request header and the manager emits spans for
  // dispatch, queueing, patch/compile, admission, preemption and kernel
  // execution. Off by default; the disabled cost is one relaxed load per
  // emission site (bench_interpreter gates the enabled cost at <= 5%).
  bool tracing_enabled = false;
};

// Host-side cost counters backing Table 5, plus server health counters.
// Relaxed atomics: exact per-field totals matter, cross-field consistency
// does not.
struct ManagerStats {
  std::atomic<std::uint64_t> launches{0};
  std::atomic<std::uint64_t> sandboxed_launches{0};
  std::atomic<std::uint64_t> native_launches{0};
  std::atomic<std::uint64_t> lookup_cycles{0};   // pointerToSymbol lookups
  std::atomic<std::uint64_t> augment_cycles{0};  // kernel-parameter rebuilds
  std::atomic<std::uint64_t> transfers_checked{0};
  std::atomic<std::uint64_t> transfers_rejected{0};
  std::atomic<std::uint64_t> faults_contained{0};
  // Responses the server could not deliver because the client's channel
  // vanished (counted by ManagerServer::ServeOne, never silently dropped).
  std::atomic<std::uint64_t> responses_dropped{0};
  // Sandbox cache effectiveness: modules actually run through the PTX
  // patcher vs. loads served from the content-addressed cache (§4.2.3 patch
  // cost, amortized across tenants loading the same library), plus the LRU
  // eviction totals mirrored from SandboxCache::Stats.
  std::atomic<std::uint64_t> ptx_modules_patched{0};
  std::atomic<std::uint64_t> ptx_cache_hits{0};
  // Module loads that paid the compile cost (CompiledModule::Compile:
  // lowering plus fusion): a fresh sandbox patch or a native-path load.
  // Cache hits reuse the stored program and leave this untouched — the gap
  // between loads and compiles is the compile cost the cache saved.
  std::atomic<std::uint64_t> ptx_programs_compiled{0};
  // Guard elision total across freshly patched modules (cache hits reuse
  // the patched module and do not re-count): accesses that reused an
  // earlier fence instead of getting their own.
  std::atomic<std::uint64_t> guards_elided{0};
  std::atomic<std::uint64_t> sandbox_cache_evictions{0};
  std::atomic<std::uint64_t> sandbox_cache_bytes_reclaimed{0};
  // Device-scheduler traffic and occupancy (maintained by GpuScheduler and
  // the launch/memcpy handlers).
  std::atomic<std::uint64_t> kernels_enqueued{0};
  std::atomic<std::uint64_t> memcpys_enqueued{0};
  std::atomic<std::uint64_t> scheduler_ops_completed{0};
  std::atomic<std::uint64_t> peak_resident_kernels{0};
  std::atomic<std::uint64_t> peak_sms_in_use{0};
  std::atomic<std::uint64_t> peak_queue_depth{0};
  // Batched IPC (grdLib coalescing adjacent async calls into one message).
  std::atomic<std::uint64_t> batches_decoded{0};
  std::atomic<std::uint64_t> batched_ops{0};
  // All-OK batches whose reply collapsed to a single summary response
  // instead of one full response per sub-op.
  std::atomic<std::uint64_t> batch_responses_compacted{0};
  // Preemption engine: revocations at safe points, restarts of revoked
  // kernels, checkpoint bytes that would cross the device boundary, budget
  // trips converted into a requeue instead of a client kill, and blocks
  // actually executed (a resumed kernel re-executing finished blocks would
  // show up as an excess over the launched grid sizes).
  std::atomic<std::uint64_t> preemptions{0};
  std::atomic<std::uint64_t> preemption_resumes{0};
  std::atomic<std::uint64_t> checkpoint_bytes_saved{0};
  std::atomic<std::uint64_t> budget_requeues{0};
  std::atomic<std::uint64_t> kernel_blocks_executed{0};
  // Superinstructions FuseKernel emitted when modules were compiled (a
  // cache hit compiles nothing and adds nothing), and instructions retired
  // by kernels, all counted in tier_instructions[2]. Slots 0 and 1 are
  // never written and not exported; the three-slot layout stays because
  // benchmark readers index slot 2.
  std::atomic<std::uint64_t> superinstructions_fused{0};
  std::atomic<std::uint64_t> tier_instructions[3] = {};
  // Shm-ring traffic served: requests consumed from / responses produced to
  // client channels, counted by ManagerServer::ServeOne (and, for the
  // supervisor's synthetic crash responses, by ProcessServer). Mirrors the
  // per-ring ShmRing messages_read/messages_written words, aggregated
  // pool-wide. Loopback transports never touch a ring, so both stay 0 there.
  std::atomic<std::uint64_t> ring_messages_read{0};
  std::atomic<std::uint64_t> ring_messages_written{0};
  // Multi-device fleet: sessions rebuilt from their shared-region journal
  // after their worker died (adoption), sessions live-migrated to another
  // device, and checkpointed kernels re-admitted mid-grid by either path
  // (their completed blocks are skipped — kernel_blocks_executed staying at
  // the launched grid totals is the exactness proof).
  std::atomic<std::uint64_t> sessions_adopted{0};
  std::atomic<std::uint64_t> sessions_migrated{0};
  std::atomic<std::uint64_t> checkpoint_kernels_resumed{0};
  // The lane executor: block phases kernels ran as one lockstep group, and
  // phases replayed one thread at a time, indexed by ptxexec::ReplayCause.
  // Replays of a served kernel mean it lost lockstep.
  std::atomic<std::uint64_t> lockstep_phases{0};
  std::atomic<std::uint64_t> replayed_phases[ptxexec::kReplayCauses] = {};
  // Launch-to-first-run wait time per priority class.
  WaitHistogram wait_hist[kPriorityClassCount];

  // Version of the exported key set. A key leaves the export only with a
  // bump; tools/check_metrics holds the required keys of the current
  // version. Version 2 retired the tier-promotion counters and the tier-0/1
  // instruction counts; version 3 retired guards_hoisted and
  // loop_range_checks with loop versioning and fence hoisting.
  static constexpr std::uint64_t kSchemaVersion = 3;

  // Registers every exported counter plus the per-class wait histograms
  // (group "wait_histograms") with `registry`, in the declaration order
  // above, followed by `schema_version`. The registry only references the
  // cells; `this` must outlive it.
  void BindTo(obs::MetricsRegistry* registry) const;

  // Structured export: every counter plus the per-class wait histograms
  // (count/total/max/p50/p99 and the populated log2 buckets) as one JSON
  // object, rendered through a MetricsRegistry (registration order keeps
  // the historical byte layout). Snapshot-consistent per field only
  // (relaxed counters), which is all operators and the benches need.
  // Benches/examples print this instead of ad-hoc field dumps.
  std::string ToJson() const;

  // The same cells in Prometheus text exposition format (grd_* metrics).
  std::string ToPrometheus() const;
};

// Monotone-max update for ManagerStats peak/mirror counters: never lets a
// stale snapshot regress the published value.
inline void BumpCounterMax(std::atomic<std::uint64_t>& counter,
                           std::uint64_t value) {
  std::uint64_t seen = counter.load(std::memory_order_relaxed);
  while (seen < value && !counter.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

// One simulated device under this manager: the Gpu the caller lent it, its
// partition carve and its scheduler. Memory traffic and kernel execution
// for a session go through its device's scheduler only, so devices never
// serialize against each other.
struct DeviceState {
  DeviceState(std::uint32_t id_in, simcuda::Gpu* gpu_in,
              const ManagerOptions& options, ManagerStats* stats)
      : id(id_in),
        gpu(gpu_in),
        partitions(gpu->spec().global_mem_bytes),
        scheduler(gpu->spec(), options.scheduler_executors, stats,
                  PreemptionConfig{options.preemption_enabled,
                                   options.preempt_check_interval,
                                   options.aging_quantum_ns}) {}

  const std::uint32_t id;
  simcuda::Gpu* const gpu;  // borrowed; outlives the manager
  std::mutex partition_mu;  // guards `partitions`
  PartitionAllocator partitions;
  // Sessions currently placed here (admission load signal; relaxed).
  std::atomic<std::uint64_t> resident_sessions{0};
  // Declared last: destroyed first, so executor threads are joined before
  // any state they might touch goes away.
  GpuScheduler scheduler;
};

struct ExecutionContext {
  // Serves `gpus` (at least one; device i is gpus[i]), which the caller
  // owns. Sessions are placed across them at registration (least resident
  // sessions, lowest id on ties) and keep their device for the life of the
  // session unless live migration moves them. `shared_stats` (process mode)
  // points the counters at a ManagerStats living in the workers'
  // SharedRegion, so the whole forked pool aggregates into one instance
  // exactly like the threaded workers do; null keeps the private
  // `owned_stats` below.
  ExecutionContext(const std::vector<simcuda::Gpu*>& gpus,
                   ManagerOptions options_in,
                   ManagerStats* shared_stats = nullptr)
      : options(std::move(options_in)),
        stats(shared_stats != nullptr ? *shared_stats : owned_stats),
        sandbox_cache(options.sandbox_cache_bytes) {
    for (simcuda::Gpu* gpu : gpus)
      devices.push_back(std::make_unique<DeviceState>(
          static_cast<std::uint32_t>(devices.size()), gpu, options, &stats));
  }

  // Out-of-range ids clamp to device 0 rather than fault: a journal recorded
  // by a larger fleet must still replay (degraded) on a smaller one.
  DeviceState& device(std::uint32_t id) noexcept {
    return id < devices.size() ? *devices[id] : *devices[0];
  }
  std::uint32_t device_count() const noexcept {
    return static_cast<std::uint32_t>(devices.size());
  }
  // Placement/admission: least resident sessions wins, lowest id on ties.
  std::uint32_t PlaceSession() const noexcept {
    std::uint32_t best = 0;
    std::uint64_t best_load = ~std::uint64_t{0};
    for (std::uint32_t i = 0; i < devices.size(); ++i) {
      const std::uint64_t load =
          devices[i]->resident_sessions.load(std::memory_order_relaxed);
      if (load < best_load) {
        best = i;
        best_load = load;
      }
    }
    return best;
  }

  const ManagerOptions options;
  ManagerStats owned_stats;  // backing storage when no shared instance given
  ManagerStats& stats;
  SandboxCache sandbox_cache;  // internally locked

  // Standalone fast-path fence (see file comment). Shared by an executing
  // native kernel, exclusive (empty critical section) by registration.
  std::shared_mutex native_mu;

  // Declared last: destroyed first, so every device's executor pool is
  // joined before the shared state above goes away. The manager also shuts
  // them down explicitly before tearing down the session registry.
  std::vector<std::unique_ptr<DeviceState>> devices;
};

}  // namespace grd::guardian
