#include "guardian/shared_state.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "ipc/channel.hpp"

namespace grd::guardian {
namespace {

constexpr std::uint64_t AlignUp(std::uint64_t value, std::uint64_t align) {
  return (value + align - 1) & ~(align - 1);
}

// Slot arrays start cache-line aligned; ring regions page-ish aligned so
// the two rings of a channel never share a line with slot metadata.
constexpr std::uint64_t kSlotAlign = 64;
constexpr std::uint64_t kRingAlign = 4096;

// The journal's crash-ordering rule, written once: the entry is stored in
// full before the count that covers it is published. False when full.
template <typename Entry, std::size_t N>
bool Append(Entry (&entries)[N], std::atomic<std::uint32_t>& count,
            const Entry& entry) noexcept {
  const std::uint32_t n = count.load(std::memory_order_relaxed);
  if (n >= N) return false;
  entries[n] = entry;
  count.store(n + 1, std::memory_order_release);
  return true;
}

// Compact-remove of the first entry `match` accepts; the journal is
// unordered (replay claims exact ranges and ids).
template <typename Entry, std::size_t N, typename Match>
void RemoveFirst(Entry (&entries)[N], std::atomic<std::uint32_t>& count,
                 Match match) noexcept {
  const std::uint32_t n = count.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (match(entries[i])) {
      entries[i] = entries[n - 1];
      count.store(n - 1, std::memory_order_release);
      return;
    }
  }
}

// The entries a count published, for the adopting reader.
template <typename Entry, std::size_t N>
std::span<const Entry> Published(const Entry (&entries)[N],
                                 const std::atomic<std::uint32_t>& count) {
  return {entries, std::min<std::size_t>(
                       count.load(std::memory_order_acquire), N)};
}

}  // namespace

void SharedSessionJournal::AddAlloc(std::uint64_t addr,
                                    std::uint64_t size) noexcept {
  if (!Append(allocs, alloc_count, Alloc{addr, size})) MarkTruncated();
}

void SharedSessionJournal::RemoveAlloc(std::uint64_t addr) noexcept {
  RemoveFirst(allocs, alloc_count,
              [addr](const Alloc& alloc) { return alloc.addr == addr; });
}

void SharedSessionJournal::AddModule(SharedServingState& shared,
                                     std::uint64_t id, std::uint64_t next_id,
                                     const std::string& ptx,
                                     std::uint64_t content_hash) {
  next_module = next_id;
  // A full journal interns nothing: the arena never frees a slot.
  if (module_count.load(std::memory_order_relaxed) >= kMaxModules)
    return MarkTruncated();
  auto interned = shared.InternPtx(ptx, content_hash);
  if (!interned.ok() || !Append(modules, module_count, Module{id, *interned}))
    MarkTruncated();
}

void SharedSessionJournal::AddFunction(std::uint64_t id,
                                       std::uint64_t next_id,
                                       std::uint64_t module_id,
                                       const std::string& kernel) noexcept {
  next_function = next_id;
  if (kernel.size() >= kNameCap) return MarkTruncated();
  Function entry{id, module_id, {}};
  std::memcpy(entry.name, kernel.c_str(), kernel.size() + 1);
  if (!Append(functions, function_count, entry)) MarkTruncated();
}

void SharedSessionJournal::AddStream(
    std::uint64_t id, std::uint64_t next_id,
    protocol::PriorityClass priority) noexcept {
  next_stream = next_id;
  if (!Append(streams, stream_count,
              Stream{id, static_cast<std::uint32_t>(priority)}))
    MarkTruncated();
}

void SharedSessionJournal::RemoveStream(std::uint64_t id) noexcept {
  RemoveFirst(streams, stream_count,
              [id](const Stream& stream) { return stream.id == id; });
}

void SharedSessionJournal::SetStreamPriority(
    std::uint64_t stream, protocol::PriorityClass priority) noexcept {
  const std::uint32_t n = stream_count.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < n; ++i)
    if (stream == kAllStreams || streams[i].id == stream)
      streams[i].priority = static_cast<std::uint32_t>(priority);
}

void SharedSessionJournal::SetNextEvent(std::uint64_t next_id) noexcept {
  next_event = next_id;
}

bool SharedSessionJournal::ArmLaunch(
    std::uint64_t fn, std::uint64_t stream,
    const ptxexec::LaunchParams& params) noexcept {
  if (pending_state.load(std::memory_order_relaxed) != 0 ||
      params.grid.Count() > 64ull * kMaxBitmapWords)
    return false;
  pending_fn = fn;
  pending_stream = stream;
  pending_grid[0] = params.grid.x;
  pending_grid[1] = params.grid.y;
  pending_grid[2] = params.grid.z;
  pending_block[0] = params.block.x;
  pending_block[1] = params.block.y;
  pending_block[2] = params.block.z;
  pending_argc = static_cast<std::uint32_t>(params.args.size());
  for (auto& word : pending_done) word.store(0, std::memory_order_relaxed);
  pending_state.store(1, std::memory_order_release);
  return true;
}

bool SharedSessionJournal::MatchLaunch(
    std::uint64_t fn, std::uint64_t stream,
    const ptxexec::LaunchParams& params) const noexcept {
  return pending_state.load(std::memory_order_acquire) == 1 &&
         pending_fn == fn && pending_stream == stream &&
         pending_grid[0] == params.grid.x &&
         pending_grid[1] == params.grid.y &&
         pending_grid[2] == params.grid.z &&
         pending_block[0] == params.block.x &&
         pending_block[1] == params.block.y &&
         pending_block[2] == params.block.z &&
         pending_argc == params.args.size();
}

ptxexec::KernelCheckpoint SharedSessionJournal::LoadLaunch() const {
  ptxexec::KernelCheckpoint checkpoint;
  checkpoint.done_bitmap.resize(kMaxBitmapWords);
  for (std::uint32_t w = 0; w < kMaxBitmapWords; ++w) {
    checkpoint.done_bitmap[w] = pending_done[w].load(std::memory_order_acquire);
    checkpoint.blocks_done += static_cast<std::uint64_t>(
        __builtin_popcountll(checkpoint.done_bitmap[w]));
  }
  checkpoint.blocks_total = std::uint64_t{pending_grid[0]} * pending_grid[1] *
                            pending_grid[2];
  checkpoint.valid = checkpoint.blocks_done > 0;
  return checkpoint;
}

void SharedSessionJournal::PublishLaunch(
    const ptxexec::KernelCheckpoint& checkpoint) noexcept {
  const std::size_t words = std::min<std::size_t>(
      checkpoint.done_bitmap.size(), kMaxBitmapWords);
  for (std::size_t w = 0; w < words; ++w)
    pending_done[w].store(checkpoint.done_bitmap[w], std::memory_order_release);
}

void SharedSessionJournal::DisarmLaunch() noexcept {
  pending_state.store(0, std::memory_order_release);
}

SharedSessionJournal::Entries SharedSessionJournal::Live() const noexcept {
  return Entries{Published(modules, module_count),
                 Published(functions, function_count),
                 Published(streams, stream_count),
                 Published(allocs, alloc_count),
                 next_module,
                 next_function,
                 next_stream,
                 next_event,
                 pending_state.load(std::memory_order_acquire) == 1};
}

std::uint64_t SharedServingState::RegionSize(
    const SharedServingLayout& layout) {
  std::uint64_t size = AlignUp(sizeof(SharedServingState), kSlotAlign);
  size = AlignUp(size + layout.max_sessions * sizeof(SharedSessionSlot),
                 kSlotAlign);
  size = AlignUp(size + layout.max_channels * sizeof(SharedChannelSlot),
                 kSlotAlign);
  size = AlignUp(size + layout.max_workers * sizeof(SharedWorkerSlot),
                 kSlotAlign);
  size = AlignUp(
      size + obs::SpanArenaHeader::RegionSize(layout.trace_span_capacity),
      kSlotAlign);
  size = AlignUp(size + layout.ptx_slots * sizeof(SharedPtxSlot), kSlotAlign);
  size = AlignUp(size + layout.ptx_arena_bytes, kRingAlign);
  size += layout.max_channels *
          AlignUp(ipc::Channel::RegionSize(layout.ring_bytes), kRingAlign);
  return size;
}

SharedServingState* SharedServingState::Initialize(
    void* region, const SharedServingLayout& layout) {
  auto* state = new (region) SharedServingState();
  state->layout_ = layout;

  std::uint64_t offset = AlignUp(sizeof(SharedServingState), kSlotAlign);
  state->session_slots_offset_ = offset;
  offset = AlignUp(offset + layout.max_sessions * sizeof(SharedSessionSlot),
                   kSlotAlign);
  state->channel_slots_offset_ = offset;
  offset = AlignUp(offset + layout.max_channels * sizeof(SharedChannelSlot),
                   kSlotAlign);
  state->worker_slots_offset_ = offset;
  offset = AlignUp(offset + layout.max_workers * sizeof(SharedWorkerSlot),
                   kSlotAlign);
  state->span_arena_offset_ = offset;
  offset = AlignUp(
      offset + obs::SpanArenaHeader::RegionSize(layout.trace_span_capacity),
      kSlotAlign);
  state->ptx_slots_offset_ = offset;
  offset = AlignUp(offset + layout.ptx_slots * sizeof(SharedPtxSlot),
                   kSlotAlign);
  state->ptx_arena_offset_ = offset;
  offset = AlignUp(offset + layout.ptx_arena_bytes, kRingAlign);

  for (std::uint32_t i = 0; i < layout.max_sessions; ++i)
    new (&state->session_slot(i)) SharedSessionSlot();
  const std::uint64_t channel_stride =
      AlignUp(ipc::Channel::RegionSize(layout.ring_bytes), kRingAlign);
  for (std::uint32_t i = 0; i < layout.max_channels; ++i) {
    auto* slot = new (&state->channel_slot(i)) SharedChannelSlot();
    slot->region_offset = offset + i * channel_stride;
  }
  for (std::uint32_t i = 0; i < layout.max_workers; ++i)
    new (&state->worker_slot(i)) SharedWorkerSlot();
  for (std::uint32_t i = 0; i < layout.ptx_slots; ++i)
    new (state->At<SharedPtxSlot>(state->ptx_slots_offset_) + i)
        SharedPtxSlot();
  obs::SpanArenaHeader::Initialize(
      state->At<std::uint8_t>(state->span_arena_offset_),
      layout.trace_span_capacity);

  state->registry_mu_.Init();
  // Published last: Attach() from another process checks it.
  state->version_ = kVersion;
  state->magic_ = kMagic;
  return state;
}

Result<SharedServingState*> SharedServingState::Attach(void* region) {
  auto* state = static_cast<SharedServingState*>(region);
  if (state->magic_ != kMagic || state->version_ != kVersion)
    return Status(Internal("region does not hold a SharedServingState"));
  return state;
}

Result<ClientId> SharedServingState::AllocateSession(
    std::uint32_t worker, PartitionBounds bounds,
    protocol::PriorityClass priority, std::uint32_t device) {
  ipc::RobustLock lock(registry_mu_);
  if (lock.recovered()) RepairRegistry();

  SharedSessionSlot* slot = nullptr;
  // Prefer free slots; recycle a crash-failed slot only under pressure so
  // late requests from orphaned clients keep getting the clean error.
  for (std::uint32_t i = 0; i < layout_.max_sessions && slot == nullptr; ++i)
    if (session_slot(i).state.load(std::memory_order_relaxed) == 0)
      slot = &session_slot(i);
  for (std::uint32_t i = 0; i < layout_.max_sessions && slot == nullptr; ++i)
    if (session_slot(i).state.load(std::memory_order_relaxed) == kFailedRaw)
      slot = &session_slot(i);
  if (slot == nullptr)
    return Status(
        OutOfMemory("session registry full: all shared slots active"));

  const ClientId id = next_client_.fetch_add(1, std::memory_order_relaxed);
  slot->owner_worker.store(worker, std::memory_order_relaxed);
  slot->partition_base.store(bounds.base, std::memory_order_relaxed);
  slot->partition_size.store(bounds.size, std::memory_order_relaxed);
  slot->priority.store(static_cast<std::uint32_t>(priority),
                       std::memory_order_relaxed);
  slot->device.store(device, std::memory_order_relaxed);
  slot->adoption_pending.store(0, std::memory_order_relaxed);
  slot->journal.Clear();
  slot->state.store(kActiveRaw, std::memory_order_relaxed);
  // Client id last (release): FindSession matches on it without the mutex.
  slot->client.store(id, std::memory_order_release);
  counters_.sessions_registered.fetch_add(1, std::memory_order_relaxed);
  return id;
}

SharedSessionSlot* SharedServingState::FindSession(ClientId client) noexcept {
  if (client == 0) return nullptr;
  for (std::uint32_t i = 0; i < layout_.max_sessions; ++i) {
    SharedSessionSlot& slot = session_slot(i);
    if (slot.client.load(std::memory_order_acquire) == client &&
        slot.state.load(std::memory_order_acquire) != 0)
      return &slot;
  }
  return nullptr;
}

Status SharedServingState::ReleaseSession(ClientId client) {
  ipc::RobustLock lock(registry_mu_);
  if (lock.recovered()) RepairRegistry();
  SharedSessionSlot* slot = FindSession(client);
  if (slot == nullptr)
    return NotFound("client " + std::to_string(client) +
                    " has no shared session slot");
  slot->client.store(0, std::memory_order_relaxed);
  slot->owner_worker.store(kNoWorker, std::memory_order_relaxed);
  slot->state.store(0, std::memory_order_release);
  counters_.sessions_released.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

std::size_t SharedServingState::CountState(std::uint32_t state) noexcept {
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < layout_.max_sessions; ++i)
    if (session_slot(i).state.load(std::memory_order_acquire) == state)
      ++count;
  return count;
}

std::size_t SharedServingState::RepairRegistry() noexcept {
  // The allocation critical section publishes the client id last, so a slot
  // with a state but no client id is a half-finished allocation whose owner
  // died: reset it. (A half-finished *release* leaves the slot free already
  // — release clears the id first — so no other shape needs repair.)
  std::size_t repaired = 0;
  for (std::uint32_t i = 0; i < layout_.max_sessions; ++i) {
    SharedSessionSlot& slot = session_slot(i);
    if (slot.state.load(std::memory_order_relaxed) != 0 &&
        slot.client.load(std::memory_order_relaxed) == 0) {
      slot.owner_worker.store(kNoWorker, std::memory_order_relaxed);
      slot.state.store(0, std::memory_order_relaxed);
      ++repaired;
    }
  }
  if (repaired > 0)
    counters_.registry_repairs.fetch_add(repaired, std::memory_order_relaxed);
  return repaired;
}

std::size_t SharedServingState::AuditAfterWorkerDeath() noexcept {
  ipc::RobustLock lock(registry_mu_);
  // Holding the lock here means no allocation is in progress anywhere, so
  // every torn slot the sweep sees really is a casualty, not a race.
  return RepairRegistry();
}

std::size_t SharedServingState::FailSessionsOfWorker(
    std::uint32_t worker) noexcept {
  std::size_t failed = 0;
  for (std::uint32_t i = 0; i < layout_.max_sessions; ++i) {
    SharedSessionSlot& slot = session_slot(i);
    if (slot.owner_worker.load(std::memory_order_acquire) != worker) continue;
    // Promised to a respawned worker by AdoptSessionsOfWorker: leave alive.
    if (slot.adoption_pending.load(std::memory_order_acquire) != 0) continue;
    std::uint32_t expected = kActiveRaw;
    if (slot.state.compare_exchange_strong(expected, kFailedRaw,
                                           std::memory_order_acq_rel)) {
      ++failed;
      counters_.sessions_crash_failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return failed;
}

std::size_t SharedServingState::AdoptSessionsOfWorker(
    std::uint32_t from, std::uint32_t to) noexcept {
  std::size_t adopted = 0;
  for (std::uint32_t i = 0; i < layout_.max_sessions; ++i) {
    SharedSessionSlot& slot = session_slot(i);
    if (slot.owner_worker.load(std::memory_order_acquire) != from) continue;
    if (slot.state.load(std::memory_order_acquire) != kActiveRaw) continue;
    if (slot.journal.truncated.load(std::memory_order_acquire) != 0) continue;
    // adoption_pending before owner_worker: once the owner flips, the slot
    // must already be invisible to the FailSessionsOfWorker sweep (the
    // supervisor runs both from one thread, but keep the shape safe).
    slot.adoption_pending.store(1, std::memory_order_release);
    slot.owner_worker.store(to, std::memory_order_release);
    ++adopted;
  }
  if (adopted > 0)
    counters_.sessions_adopted.fetch_add(adopted, std::memory_order_relaxed);
  return adopted;
}

Result<std::uint64_t> SharedServingState::InternPtx(
    const std::string& source, std::uint64_t content_hash) {
  // The arena dedupes on (hash, size) then byte-compares, so collision
  // quality only affects the number of compares, not correctness.
  const std::uint64_t hash = content_hash != 0 ? content_hash : 1;  // 0 = free
  ipc::RobustLock lock(registry_mu_);
  if (lock.recovered()) RepairRegistry();
  auto* slots = At<SharedPtxSlot>(ptx_slots_offset_);
  auto* arena = At<char>(ptx_arena_offset_);
  for (std::uint32_t i = 0; i < layout_.ptx_slots; ++i) {
    SharedPtxSlot& slot = slots[i];
    if (slot.hash.load(std::memory_order_acquire) == 0) {
      // First free slot ends the scan: slots fill in order under the mutex.
      if (ptx_arena_used_.load(std::memory_order_relaxed) + source.size() >
          layout_.ptx_arena_bytes)
        return Status(OutOfMemory("shared PTX arena bytes exhausted"));
      slot.offset = ptx_arena_used_.load(std::memory_order_relaxed);
      slot.size = source.size();
      std::memcpy(arena + slot.offset, source.data(), source.size());
      ptx_arena_used_.fetch_add(source.size(), std::memory_order_relaxed);
      slot.hash.store(hash, std::memory_order_relaxed);
      slot.ready.store(1, std::memory_order_release);
      return static_cast<std::uint64_t>(i);
    }
    if (slot.ready.load(std::memory_order_acquire) != 0 &&
        slot.hash.load(std::memory_order_relaxed) == hash &&
        slot.size == source.size() &&
        std::memcmp(arena + slot.offset, source.data(), source.size()) == 0)
      return static_cast<std::uint64_t>(i);
  }
  return Status(OutOfMemory("shared PTX arena slots exhausted"));
}

Result<std::string> SharedServingState::PtxAt(std::uint64_t slot_index) noexcept {
  if (slot_index >= layout_.ptx_slots)
    return Status(InvalidArgument("PTX arena slot out of range"));
  SharedPtxSlot& slot = At<SharedPtxSlot>(ptx_slots_offset_)[slot_index];
  if (slot.ready.load(std::memory_order_acquire) == 0)
    return Status(InvalidArgument("PTX arena slot not published"));
  return std::string(At<char>(ptx_arena_offset_) + slot.offset, slot.size);
}

bool SharedServingState::ClaimChannel(std::uint32_t i,
                                      std::uint32_t worker) noexcept {
  std::uint32_t expected = kNoWorker;
  SharedChannelSlot& slot = channel_slot(i);
  if (slot.owner.load(std::memory_order_acquire) == worker) return true;
  return slot.owner.compare_exchange_strong(expected, worker,
                                            std::memory_order_acq_rel);
}

void SharedServingState::ReassignChannelsOfWorker(std::uint32_t from,
                                                  std::uint32_t to) noexcept {
  for (std::uint32_t i = 0; i < layout_.max_channels; ++i) {
    SharedChannelSlot& slot = channel_slot(i);
    std::uint32_t expected = from;
    if (slot.owner.compare_exchange_strong(expected, kNoWorker,
                                           std::memory_order_acq_rel) ||
        slot.preferred.load(std::memory_order_relaxed) == from)
      slot.preferred.store(to, std::memory_order_release);
  }
}

}  // namespace grd::guardian
