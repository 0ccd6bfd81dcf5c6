#include "guardian/shared_state.hpp"

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

}  // namespace

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
