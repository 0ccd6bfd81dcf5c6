#include "guardian/session.hpp"

#include "guardian/shared_state.hpp"

namespace grd::guardian {

void SessionRegistry::BindShared(SharedServingState* shared,
                                 std::uint32_t worker_index) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  shared_ = shared;
  worker_index_ = worker_index;
}

Result<std::shared_ptr<ClientSession>> SessionRegistry::Create(
    PartitionBounds partition, std::shared_ptr<GpuStream> default_stream,
    std::uint32_t device) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  ClientId id = 0;
  SharedSessionSlot* slot = nullptr;
  if (shared_ != nullptr) {
    // Pool-unique id + shared slot (bounds included), stamped with this
    // worker so the supervisor can fail exactly our sessions if we die.
    GRD_ASSIGN_OR_RETURN(
        id, shared_->AllocateSession(worker_index_, partition,
                                     protocol::PriorityClass::kNormal,
                                     device));
    slot = shared_->FindSession(id);
  } else {
    id = next_id_++;
  }
  auto session =
      std::make_shared<ClientSession>(id, std::move(default_stream), slot);
  session->partition = partition;
  session->device_id.store(device, std::memory_order_relaxed);
  sessions_.emplace(id, session);
  return session;
}

std::shared_ptr<ClientSession> SessionRegistry::Restore(
    ClientId id, SharedSessionSlot* slot, PartitionBounds partition,
    std::shared_ptr<GpuStream> default_stream, std::uint32_t device) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto session =
      std::make_shared<ClientSession>(id, std::move(default_stream), slot);
  session->partition = partition;
  session->device_id.store(device, std::memory_order_relaxed);
  sessions_[id] = session;
  return session;
}

Result<std::shared_ptr<ClientSession>> SessionRegistry::Find(
    ClientId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it != sessions_.end()) return it->second;
  if (shared_ != nullptr) {
    // Not ours — distinguish "never existed" from "its worker crashed" so
    // orphaned clients see a clean containment status.
    SharedSessionSlot* slot = shared_->FindSession(id);
    if (slot != nullptr) {
      const auto state = static_cast<SessionSlotState>(
          slot->state.load(std::memory_order_acquire));
      if (state == SessionSlotState::kFailed)
        return Status(Unavailable(
            "client " + std::to_string(id) +
            " lost: its manager worker crashed (reconnect to register "
            "a fresh session)"));
      if (state == SessionSlotState::kActive)
        return Status(Unavailable("client " + std::to_string(id) +
                                  " is served by another manager worker"));
    }
  }
  return Status(NotFound("unknown client " + std::to_string(id)));
}

Status SessionRegistry::Erase(ClientId id) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (sessions_.erase(id) == 0)
    return NotFound("unknown client " + std::to_string(id));
  if (shared_ != nullptr) GRD_RETURN_IF_ERROR(shared_->ReleaseSession(id));
  return OkStatus();
}

std::size_t SessionRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace grd::guardian
