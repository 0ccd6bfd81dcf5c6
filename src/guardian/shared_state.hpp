// SharedRegion-resident serving state for the process-mode manager.
//
// A threaded deployment keeps its serving state (session registry, stats)
// in one GrdManager's process memory, and each channel belongs to the one
// ManagerServer pump it was added to. The paper's deployment is process
// isolation: grdManager workers in their own address spaces over shm
// rings — so everything a worker pool must agree on moves here, into one
// MAP_SHARED region laid out with fixed capacities and this-relative offsets
// (no pointers cross a process boundary):
//
//   [SharedServingState header | session slots | channel slots |
//    worker slots | channel ring regions]
//
// All mutation is via process-shared atomics plus one robust process-shared
// mutex (ipc::RobustMutex) guarding session-slot allocation, so a worker
// SIGKILLed mid-registration cannot wedge the registry: the next locker
// repairs half-written slots (RepairRegistry) and continues.
//
// What lives here, per the layered split (ARCHITECTURE.md):
//  - session slots: the cross-process view of the SessionRegistry — client
//    id, liveness state, owning worker, the partition bounds (base/size,
//    republished by GrowPartition), the device, the priority class and the
//    session journal. Every tenant process maps this region, so the owning
//    worker never checks a request against a slot: the bounds, device and
//    priority here are what adoption rebuilds a session from after its
//    worker dies;
//  - channel slots: sticky worker-ownership claims (CAS) so exactly one
//    worker pumps a given client ring at a time, plus the offset of the
//    channel's rings inside this same region;
//  - worker slots: pid/generation records the parent supervisor maintains;
//  - ManagerStats: one shared instance every worker's execution layer bumps,
//    so counters aggregate across the pool as they do in one GrdManager;
//  - pool counters: registry/supervision accounting (registered, released,
//    crash-failed, respawns, synthetic crash responses) whose sums the
//    process-mode stress test holds consistent.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/status.hpp"
#include "guardian/execution.hpp"
#include "ipc/robust_mutex.hpp"
#include "obs/trace.hpp"

namespace grd::guardian {

// Worker indices are dense [0, max_workers); kNoWorker marks "unowned".
inline constexpr std::uint32_t kNoWorker = 0xFFFFFFFFu;

enum class SessionSlotState : std::uint32_t {
  kFree = 0,
  kActive = 1,
  // The owning worker died with the session live: requests for it must fail
  // with a clean "worker crashed" status, never "unknown client". Failed
  // slots are recycled only when no free slot remains.
  kFailed = 2,
};

class SharedServingState;

// Replayable record of one session's control-plane state, embedded in its
// shared slot so it survives the owning worker's death. Written only by the
// owner while it holds the session mutex (single writer), through the record
// methods below; read by the adopting worker, through Live(), strictly after
// the supervisor observed the owner's death, so no torn read is possible on
// the plain fields. Bounded on purpose: a session that outgrows any cap sets
// `truncated` and simply stops being adoptable — it fails over to the legacy
// crash-fail + client-rebuild path.
//
// Crash ordering: every record writes its entry in full before it publishes
// the count that covers it (release), so a worker killed between the two
// stores leaves a count that never includes a torn entry.
//
// PTX sources are NOT stored here: modules record an index into the shared
// PTX arena (deduplicated across sessions), and the adopter replays them
// through the SandboxCache, which re-derives the patched/compiled programs
// content-addressed — the journal only needs the hash-sized pointer.
struct SharedSessionJournal {
  static constexpr std::uint32_t kMaxModules = 8;
  static constexpr std::uint32_t kMaxFunctions = 16;
  static constexpr std::uint32_t kMaxStreams = 8;
  static constexpr std::uint32_t kMaxAllocs = 32;
  static constexpr std::uint32_t kNameCap = 64;
  static constexpr std::uint32_t kMaxBitmapWords = 16;  // <= 1024 blocks
  // SetStreamPriority's stream id for "every journaled stream".
  static constexpr std::uint64_t kAllStreams = ~std::uint64_t{0};

  // ---- records (the owning worker, session mutex held) ----

  void AddAlloc(std::uint64_t addr, std::uint64_t size) noexcept;
  void RemoveAlloc(std::uint64_t addr) noexcept;
  // Interns `ptx` (whose HashPtxSource is `content_hash`) into `shared`'s
  // PTX arena and records module `id`; a full journal or arena truncates.
  void AddModule(SharedServingState& shared, std::uint64_t id,
                 std::uint64_t next_id, const std::string& ptx,
                 std::uint64_t content_hash);
  void AddFunction(std::uint64_t id, std::uint64_t next_id,
                   std::uint64_t module_id, const std::string& kernel) noexcept;
  void AddStream(std::uint64_t id, std::uint64_t next_id,
                 protocol::PriorityClass priority) noexcept;
  void RemoveStream(std::uint64_t id) noexcept;
  // Retags journaled stream `stream`, or every one for kAllStreams.
  void SetStreamPriority(std::uint64_t stream,
                         protocol::PriorityClass priority) noexcept;
  void SetNextEvent(std::uint64_t next_id) noexcept;

  // ---- the in-flight kernel mirror ----
  //
  // At most one in-flight preemptible kernel is mirrored per session: its
  // launch descriptor plus a completed-block bitmap the executor body keeps
  // current (RunGrid marks a block done before after_block fires, so the
  // mirror is always conservative-exact). Adoption re-admits the kernel
  // with a checkpoint rebuilt from the bitmap: finished blocks are skipped,
  // which is what keeps kernel_blocks_executed at the exact grid totals.

  // Mirrors a launch when the mirror is idle and its grid fits the bitmap;
  // true when this launch now owns the mirror. The mirror keeps the
  // launch's shape (function, stream, grid, block, argument count), not its
  // argument values: a resumed launch runs the client's retried call.
  bool ArmLaunch(std::uint64_t fn, std::uint64_t stream,
                 const ptxexec::LaunchParams& params) noexcept;
  // True when the armed mirror describes this launch's shape.
  bool MatchLaunch(std::uint64_t fn, std::uint64_t stream,
                   const ptxexec::LaunchParams& params) const noexcept;
  // The armed kernel's completed blocks, as the checkpoint to resume from.
  ptxexec::KernelCheckpoint LoadLaunch() const;
  void PublishLaunch(const ptxexec::KernelCheckpoint& checkpoint) noexcept;
  void DisarmLaunch() noexcept;

  // ---- adoption ----

  struct Module {
    std::uint64_t id;
    std::uint64_t ptx_slot;  // index into the shared PTX arena
  };
  struct Function {
    std::uint64_t id;
    std::uint64_t module_id;
    char name[kNameCap];  // NUL-terminated kernel symbol
  };
  struct Stream {
    std::uint64_t id;
    std::uint32_t priority;  // protocol::PriorityClass
  };
  // Live cudaMalloc ranges (partition-relative-absolute device addresses):
  // the adopter re-claims them address-exact so handles the client still
  // holds stay valid and later mallocs cannot overlap them.
  struct Alloc {
    std::uint64_t addr;
    std::uint64_t size;
  };

  // The published entries and id allocators a rebuilt session replays.
  struct Entries {
    std::span<const Module> modules;
    std::span<const Function> functions;
    std::span<const Stream> streams;
    std::span<const Alloc> allocs;
    std::uint64_t next_module;
    std::uint64_t next_function;
    std::uint64_t next_stream;
    std::uint64_t next_event;
    bool launch_armed;
  };
  Entries Live() const noexcept;

  // ---- storage (written only through this type's methods) ----

  std::atomic<std::uint32_t> truncated{0};

  std::atomic<std::uint32_t> module_count{0};
  Module modules[kMaxModules];
  std::atomic<std::uint32_t> function_count{0};
  Function functions[kMaxFunctions];
  std::atomic<std::uint32_t> stream_count{0};
  Stream streams[kMaxStreams];
  std::atomic<std::uint32_t> alloc_count{0};
  Alloc allocs[kMaxAllocs];

  // Id allocators, mirrored so a rebuilt session never reissues a live id.
  std::uint64_t next_module = 1;
  std::uint64_t next_function = 1;
  std::uint64_t next_stream = 1;
  std::uint64_t next_event = 1;

  // The in-flight kernel mirror (see ArmLaunch).
  std::atomic<std::uint32_t> pending_state{0};  // 0 idle, 1 armed
  std::uint64_t pending_fn = 0;
  std::uint64_t pending_stream = 0;
  std::uint32_t pending_grid[3] = {};
  std::uint32_t pending_block[3] = {};
  std::uint32_t pending_argc = 0;
  std::atomic<std::uint64_t> pending_done[kMaxBitmapWords] = {};

  // Slot-recycle reset (allocation holds the registry mutex).
  void Clear() noexcept {
    truncated.store(0, std::memory_order_relaxed);
    module_count.store(0, std::memory_order_relaxed);
    function_count.store(0, std::memory_order_relaxed);
    stream_count.store(0, std::memory_order_relaxed);
    alloc_count.store(0, std::memory_order_relaxed);
    next_module = next_function = next_stream = next_event = 1;
    pending_state.store(0, std::memory_order_relaxed);
    for (auto& word : pending_done)
      word.store(0, std::memory_order_relaxed);
  }

 private:
  // A session that outgrew a cap stops being adoptable.
  void MarkTruncated() noexcept {
    truncated.store(1, std::memory_order_release);
  }
};

struct SharedSessionSlot {
  std::atomic<std::uint64_t> client{0};  // published last on allocation
  std::atomic<std::uint32_t> state{0};   // SessionSlotState
  std::atomic<std::uint32_t> owner_worker{kNoWorker};
  // Partition bounds (§4.2.1), read back only by adoption: the owner
  // checks requests against its ClientSession's copy. Base never changes
  // after allocation; size only grows (GrowPartition doubles in place), so
  // readers need no lock.
  std::atomic<std::uint64_t> partition_base{0};
  std::atomic<std::uint64_t> partition_size{0};
  std::atomic<std::uint32_t> priority{
      static_cast<std::uint32_t>(protocol::PriorityClass::kNormal)};
  // Device the session is placed on (multi-device fleet); updated by live
  // migration so adoption rebuilds on the device the session last ran on.
  std::atomic<std::uint32_t> device{0};
  // Set by the supervisor when it reassigns this slot to an adopting worker
  // instead of failing it; cleared by the adopter once the rebuild lands.
  // FailSessionsOfWorker skips slots marked pending.
  std::atomic<std::uint32_t> adoption_pending{0};
  SharedSessionJournal journal;
};

// One interned PTX source in the shared arena (deduplicated by content hash
// + full byte compare). Slots are write-once under the registry mutex;
// `ready` is published last so lock-free readers never see a half copy.
struct SharedPtxSlot {
  std::atomic<std::uint64_t> hash{0};
  std::uint64_t offset = 0;  // into the arena bytes, state-relative
  std::uint64_t size = 0;
  std::atomic<std::uint32_t> ready{0};
};

struct SharedChannelSlot {
  // Sticky claim word: CAS kNoWorker -> worker index. Only the parent
  // supervisor resets it (when reassigning a dead worker's channels).
  std::atomic<std::uint32_t> owner{kNoWorker};
  // Parent's assignment; a worker only claims channels preferring it, which
  // keeps the initial distribution deterministic while the CAS still
  // excludes double service.
  std::atomic<std::uint32_t> preferred{kNoWorker};
  std::uint64_t region_offset = 0;  // channel rings, relative to state base
};

struct SharedWorkerSlot {
  std::atomic<std::int32_t> pid{0};
  std::atomic<std::uint32_t> alive{0};
  // Bumped by the parent on every (re)spawn into this slot; a test can
  // prove a respawn happened without racing the pid field.
  std::atomic<std::uint64_t> generation{0};
};

struct SharedPoolCounters {
  std::atomic<std::uint64_t> sessions_registered{0};
  std::atomic<std::uint64_t> sessions_released{0};
  std::atomic<std::uint64_t> sessions_crash_failed{0};
  std::atomic<std::uint64_t> workers_spawned{0};
  std::atomic<std::uint64_t> workers_respawned{0};
  // Error responses the supervisor wrote on behalf of a dead worker for
  // requests that worker consumed but never answered.
  std::atomic<std::uint64_t> synthetic_responses{0};
  // Registry repairs performed after a robust-mutex owner death.
  std::atomic<std::uint64_t> registry_repairs{0};
  // Sessions handed to a respawned worker via the journal instead of being
  // crash-failed (supervisor-side count; the adopting worker additionally
  // bumps ManagerStats::sessions_adopted when the rebuild lands).
  std::atomic<std::uint64_t> sessions_adopted{0};
};

struct SharedServingLayout {
  std::uint32_t max_sessions = 64;
  std::uint32_t max_channels = 16;
  std::uint32_t max_workers = 8;
  std::uint64_t ring_bytes = 1u << 20;  // per ring; a channel holds two
  // Capacity of the process-shared trace-span arena (records). Workers emit
  // spans here when tracing is on, so the parent can flush the spans of a
  // SIGKILLed worker — the in-process thread rings die with the process.
  std::uint32_t trace_span_capacity = 4096;
  // PTX intern arena (session adoption): distinct sources the pool can hold
  // and the byte budget backing them. Exhaustion is non-fatal — the journal
  // of the loading session is marked truncated and adoption falls back to
  // the crash-fail path for that session only.
  std::uint32_t ptx_slots = 32;
  std::uint64_t ptx_arena_bytes = 1u << 20;
};

class SharedServingState {
 public:
  // Total SharedRegion bytes the layout needs.
  static std::uint64_t RegionSize(const SharedServingLayout& layout);

  // Placement-initializes the state (creator process, exactly once, before
  // any fork). The channel ring regions themselves are NOT initialized —
  // ipc::Channel's creator-side constructor does that per channel.
  static SharedServingState* Initialize(void* region,
                                        const SharedServingLayout& layout);

  // Attaches from a process that inherited the mapping; validates magic.
  static Result<SharedServingState*> Attach(void* region);

  const SharedServingLayout& layout() const noexcept { return layout_; }
  ManagerStats& stats() noexcept { return stats_; }
  SharedPoolCounters& counters() noexcept { return counters_; }
  // The process-shared trace-span arena (sized by trace_span_capacity).
  // Bind it to the TraceRecorder before forking; survives worker death.
  obs::SpanArenaHeader* span_arena() noexcept {
    return At<obs::SpanArenaHeader>(span_arena_offset_);
  }

  SharedSessionSlot& session_slot(std::uint32_t i) noexcept {
    return At<SharedSessionSlot>(session_slots_offset_)[i];
  }
  SharedChannelSlot& channel_slot(std::uint32_t i) noexcept {
    return At<SharedChannelSlot>(channel_slots_offset_)[i];
  }
  SharedWorkerSlot& worker_slot(std::uint32_t i) noexcept {
    return At<SharedWorkerSlot>(worker_slots_offset_)[i];
  }
  // Storage for channel i's request+response rings.
  void* channel_region(std::uint32_t i) noexcept {
    return reinterpret_cast<std::uint8_t*>(this) +
           channel_slot(i).region_offset;
  }

  // ---- session registry (any process) ----

  // Allocates a slot, assigns a pool-unique client id and publishes the
  // session as kActive owned by `worker` on `device`. ResourceExhausted when
  // all slots are active.
  Result<ClientId> AllocateSession(std::uint32_t worker,
                                   PartitionBounds bounds,
                                   protocol::PriorityClass priority,
                                   std::uint32_t device = 0);

  // The slot currently holding `client` (active or crash-failed); null when
  // the id was never registered or its slot has been recycled.
  SharedSessionSlot* FindSession(ClientId client) noexcept;

  // Clean disconnect: frees the slot.
  Status ReleaseSession(ClientId client);

  std::size_t ActiveSessions() noexcept { return CountState(kActiveRaw); }
  std::size_t FailedSessions() noexcept { return CountState(kFailedRaw); }

  // ---- PTX intern arena (any process) ----

  // Interns `source`, whose HashPtxSource is `content_hash` (deduplicating
  // on content), and returns its slot index, or ResourceExhausted when
  // slots/bytes run out. Takes the registry mutex.
  Result<std::uint64_t> InternPtx(const std::string& source,
                                  std::uint64_t content_hash);

  // The bytes of a previously interned source; InvalidArgument for an
  // out-of-range or unpublished slot.
  Result<std::string> PtxAt(std::uint64_t slot) noexcept;

  // ---- supervision (parent) ----

  // Marks every active session owned by `worker` as crash-failed; returns
  // how many were failed. Slots flagged adoption_pending are skipped — the
  // supervisor already promised them to a respawned worker.
  std::size_t FailSessionsOfWorker(std::uint32_t worker) noexcept;

  // Re-homes the journaled (non-truncated) active sessions of dead worker
  // `from` onto worker `to`: sets adoption_pending and flips owner_worker so
  // the subsequent FailSessionsOfWorker sweep leaves them alive. The
  // adopting worker rebuilds each from its journal before it serves.
  // Returns the number of sessions re-homed.
  std::size_t AdoptSessionsOfWorker(std::uint32_t from,
                                    std::uint32_t to) noexcept;

  // Post-mortem registry audit: taking the robust mutex recovers it if the
  // dead worker was holding it (EOWNERDEAD), and the sweep releases any
  // slot torn between claim and id-publication. Returns slots repaired.
  std::size_t AuditAfterWorkerDeath() noexcept;

  // ---- channel claims (workers + parent) ----

  // Sticky CAS claim; false when another worker holds the channel.
  bool ClaimChannel(std::uint32_t i, std::uint32_t worker) noexcept;
  // Parent only: reassign a dead worker's channels to `to` (kNoWorker to
  // just release).
  void ReassignChannelsOfWorker(std::uint32_t from, std::uint32_t to) noexcept;

  // ---- pool control ----

  void RequestStop() noexcept { stop_.store(true, std::memory_order_release); }
  // The flag every worker's ManagerServer::Run checks once per sweep.
  const std::atomic<bool>& stop_flag() const noexcept { return stop_; }

 private:
  static constexpr std::uint64_t kMagic = 0x5247'4453'4852'4431ull;
  // v2: trace-span arena appended between the worker slots and the channel
  // ring regions (observability).
  // v3: per-slot session journal + device/adoption fields, and the PTX
  // intern arena appended after the span arena (multi-device adoption).
  // v4: channel slots drop the last-client hint; the stop word is a bool.
  // v5: the launch mirror drops its argument values (a resumed launch runs
  // the arguments of the client's retried call).
  static constexpr std::uint32_t kVersion = 5;
  static constexpr std::uint32_t kActiveRaw =
      static_cast<std::uint32_t>(SessionSlotState::kActive);
  static constexpr std::uint32_t kFailedRaw =
      static_cast<std::uint32_t>(SessionSlotState::kFailed);

  template <typename T>
  T* At(std::uint64_t offset) noexcept {
    return reinterpret_cast<T*>(reinterpret_cast<std::uint8_t*>(this) +
                                offset);
  }

  std::size_t CountState(std::uint32_t state) noexcept;

  // Registry invariant repair after an EOWNERDEAD takeover: a slot whose
  // owner died between claiming it and publishing the client id is reset.
  // Caller holds `registry_mu_`. Returns slots repaired.
  std::size_t RepairRegistry() noexcept;

  std::uint64_t magic_ = 0;
  std::uint32_t version_ = 0;
  SharedServingLayout layout_;
  std::uint64_t session_slots_offset_ = 0;
  std::uint64_t channel_slots_offset_ = 0;
  std::uint64_t worker_slots_offset_ = 0;
  std::uint64_t span_arena_offset_ = 0;
  std::uint64_t ptx_slots_offset_ = 0;
  std::uint64_t ptx_arena_offset_ = 0;

  std::atomic<std::uint64_t> ptx_arena_used_{0};
  std::atomic<std::uint64_t> next_client_{1};
  std::atomic<bool> stop_{false};
  ipc::RobustMutex registry_mu_;
  ManagerStats stats_;
  SharedPoolCounters counters_;
};

}  // namespace grd::guardian
