#include "guardian/transport.hpp"

#include "common/logging.hpp"

namespace grd::guardian {

void ManagerServer::AddChannel(ipc::Channel* channel) {
  channels_.push_back(Entry{channel, {}});
}

bool ManagerServer::ServeOne(Entry& entry) {
  if (!entry.parked.empty()) {
    // A previous response is still waiting for this (stalled) client to
    // drain its ring; deliver it before consuming anything new so strict
    // request/response pairing holds. A sweep that delivers it reads no
    // new request from this channel.
    manager_->NoteRingWritten();  // count-then-publish (see manager.hpp)
    if (!entry.channel->response().TryWrite(entry.parked).ok()) {
      manager_->NoteRingWriteAborted();
      return false;
    }
    entry.parked.clear();
    return true;
  }
  auto request = entry.channel->request().TryRead();
  if (!request.ok()) {
    if (request.status().code() == StatusCode::kAborted) {
      // Torn/garbage frame: the ring repaired itself (head clamped to tail,
      // frames_corrupt bumped). Fail only this session's in-flight call;
      // the ring stays usable for whatever the client sends next.
      const ipc::Bytes error = protocol::EncodeError(Status(
          Aborted("corrupt request frame discarded; ring resynchronized")));
      manager_->NoteRingWritten();
      if (!entry.channel->response().TryWrite(error).ok())
        manager_->NoteRingWriteAborted();
      return true;
    }
    return false;
  }
  manager_->NoteRingRead();
  const ipc::Bytes response = manager_->HandleRequest(*request);
  manager_->NoteRingWritten();  // count-then-publish (see manager.hpp)
  Status written = entry.channel->response().TryWrite(response);
  if (!written.ok() && written.code() == StatusCode::kNotFound)
    written = entry.channel->response().WriteWithDeadline(
        response, std::chrono::milliseconds(2));
  if (!written.ok()) manager_->NoteRingWriteAborted();
  if (written.code() == StatusCode::kDeadlineExceeded) {
    entry.parked = response;  // stalled tenant; retried on later sweeps
  } else if (!written.ok()) {
    // The client vanished mid-call. The work is done and cannot be undone;
    // account for the undeliverable response instead of dropping silently.
    manager_->NoteDroppedResponse();
    GRD_LOG_WARN("ManagerServer")
        << "dropped response for vanished client channel: "
        << written.ToString();
  }
  return true;
}

std::size_t ManagerServer::ServeOnce() {
  std::size_t served = 0;
  for (Entry& entry : channels_) served += ServeOne(entry) ? 1 : 0;
  return served;
}

void ManagerServer::Run(const std::atomic<bool>& stop) {
  IdleBackoff backoff;
  std::vector<ipc::ShmRing*> idle_rings;
  while (!stop.load(std::memory_order_acquire)) {
    if (ServeOnce() > 0) {
      backoff.Reset();
      continue;
    }
    // Idle: sleep on every request ring a publish could make servable.
    idle_rings.clear();
    for (Entry& entry : channels_) {
      ipc::ShmRing& requests = entry.channel->request();
      if (entry.parked.empty() && !requests.closed())
        idle_rings.push_back(&requests);
    }
    if (ipc::ShmRing::WaitForAny(idle_rings, kIdleSlice) ==
        ipc::ShmRing::WaitResult::kNoDoorbell)
      backoff.Pause();
  }
}

void ManagerServer::Start() {
  if (self_runner_.joinable()) return;  // already running
  self_stop_.store(false, std::memory_order_release);
  self_runner_ = std::thread([this] { Run(self_stop_); });
}

void ManagerServer::Stop() {
  if (!self_runner_.joinable()) return;
  self_stop_.store(true, std::memory_order_release);
  self_runner_.join();
}

}  // namespace grd::guardian
