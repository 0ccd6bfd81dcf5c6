// Client-side transport abstractions and the manager's ring pump.
//
// Deployment shapes:
//  - LoopbackTransport: client and manager in one thread (unit tests,
//    single-address-space experiments). The call is a direct function call.
//  - ChannelTransport: client talks over an ipc::Channel (shared-memory
//    rings); the manager runs a ManagerServer pump in another thread or —
//    with SharedRegion + fork — another process, which is the paper's actual
//    deployment (§4: applications and grdManager in different address
//    spaces).
//
// ManagerServer is the only manager-side ring pump. It polls its channels
// round robin, one request per channel per sweep (§4.2.4 — the paper's
// policy; richer ones are left as future work), and when idle sleeps on all
// of their request rings at once. Each forked ProcessServer worker
// (process_server.hpp) runs one over the channels it claimed; a threaded
// deployment runs one per thread, and several pumps may share one
// GrdManager (HandleRequest is thread-safe) as long as each channel belongs
// to exactly one pump.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "guardian/manager.hpp"
#include "ipc/channel.hpp"

namespace grd::guardian {

class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  virtual Result<ipc::Bytes> Call(const ipc::Bytes& request) = 0;
};

class LoopbackTransport final : public ClientTransport {
 public:
  explicit LoopbackTransport(GrdManager* manager) : manager_(manager) {}
  Result<ipc::Bytes> Call(const ipc::Bytes& request) override {
    return manager_->HandleRequest(request);
  }

 private:
  GrdManager* manager_;
};

// Shared-memory-ring transport. With a zero `call_timeout` every call
// blocks forever (the historical behavior); with a deadline every ring wait
// is bounded and a dead/wedged manager surfaces kDeadlineExceeded instead
// of hanging the client.
//
// Deadline desync hazard: when a response read times out, the request may
// still have been consumed — its response arrives later and would be
// mis-paired with the NEXT call on this strictly-ordered SPSC channel. The
// transport therefore tracks how many responses the channel still owes it
// and drains those stale responses (each bounded by the same deadline)
// before sending the next request, so pairing re-aligns as soon as the
// manager catches up.
class ChannelTransport final : public ClientTransport {
 public:
  explicit ChannelTransport(ipc::Channel* channel,
                            std::chrono::nanoseconds call_timeout = {})
      : channel_(channel), call_timeout_(call_timeout) {}

  Result<ipc::Bytes> Call(const ipc::Bytes& request) override {
    if (call_timeout_.count() == 0) return channel_->Call(request);
    while (owed_responses_ > 0) {
      auto stale = channel_->response().ReadWithDeadline(call_timeout_);
      if (!stale.ok()) {
        if (stale.status().code() == StatusCode::kDeadlineExceeded) {
          ++deadline_failures_;
          return Status(DeadlineExceeded(
              "manager still owes a stale response; call not sent"));
        }
        return stale.status();
      }
      --owed_responses_;
    }
    GRD_RETURN_IF_ERROR(
        channel_->request().WriteWithDeadline(request, call_timeout_));
    auto response = channel_->response().ReadWithDeadline(call_timeout_);
    if (!response.ok() &&
        response.status().code() == StatusCode::kDeadlineExceeded) {
      ++owed_responses_;
      ++deadline_failures_;
    }
    return response;
  }

  std::chrono::nanoseconds call_timeout() const noexcept {
    return call_timeout_;
  }
  // Responses the channel still owes after read timeouts (drained lazily).
  std::uint64_t owed_responses() const noexcept { return owed_responses_; }
  std::uint64_t deadline_failures() const noexcept {
    return deadline_failures_;
  }

 private:
  ipc::Channel* channel_;
  std::chrono::nanoseconds call_timeout_;
  std::uint64_t owed_responses_ = 0;
  std::uint64_t deadline_failures_ = 0;
};

// Bounded spin → yield → exponential-sleep backoff: ManagerServer::Run's
// idle pacing when ShmRing::WaitForAny reports no doorbell, so an idle
// pump does not burn a core while staying responsive under load.
class IdleBackoff {
 public:
  void Pause() {
    ++idle_rounds_;
    if (idle_rounds_ <= kSpinRounds) return;  // hot: re-poll immediately
    if (idle_rounds_ <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
      return;
    }
    sleep_us_ = sleep_us_ == 0 ? kMinSleepUs
                               : std::min(sleep_us_ * 2, kMaxSleepUs);
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
  }

  void Reset() noexcept {
    idle_rounds_ = 0;
    sleep_us_ = 0;
  }

  // The last sleep's length; 0 until the spin and yield rounds are spent.
  std::uint64_t sleep_us() const noexcept { return sleep_us_; }

 private:
  static constexpr std::uint32_t kSpinRounds = 64;
  static constexpr std::uint32_t kYieldRounds = 32;
  static constexpr std::uint64_t kMinSleepUs = 50;
  static constexpr std::uint64_t kMaxSleepUs = 1000;

  std::uint32_t idle_rounds_ = 0;
  std::uint64_t sleep_us_ = 0;
};

// Pumps client channels on one thread: read a request, HandleRequest it,
// count it, write the response. A response the client's ring has no room
// for is parked on its channel and delivered on a later sweep; until then
// that channel's requests stay unread, so one stalled reader cannot wedge
// the pump or its neighbors.
class ManagerServer {
 public:
  explicit ManagerServer(GrdManager* manager) : manager_(manager) {}
  ~ManagerServer() { Stop(); }

  // Channels must be added before Run()/Start(). The idle wait covers at
  // most ShmRing::kMaxWaitRings (128) channels; a pump with more gets no
  // doorbell and paces itself with IdleBackoff.
  void AddChannel(ipc::Channel* channel);

  // One round-robin sweep on the calling thread; returns the channels that
  // made progress (a request or corrupt frame answered, or a parked
  // response delivered).
  std::size_t ServeOnce();

  // Sweeps until `stop` is true, checked at every sweep boundary. An idle
  // pump sleeps in one ShmRing::WaitForAny over the request rings a publish
  // could make servable: those that are open and have no parked response
  // (a closed ring, or a stalled reader's buffered request, would end every
  // wait at once and spin the pump). The sleep lasts at most kIdleSlice,
  // which bounds how late `stop` is noticed and a parked response retried.
  // Where the wait has no doorbell, IdleBackoff paces the loop instead.
  void Run(const std::atomic<bool>& stop);

  // Convenience: Run() on an internally managed thread. Stop() joins it;
  // it is also called by the destructor.
  void Start();
  void Stop();

 private:
  struct Entry {
    ipc::Channel* channel = nullptr;
    // Response awaiting a stalled client's ring to drain.
    ipc::Bytes parked;
  };

  static constexpr std::chrono::microseconds kIdleSlice{500};

  bool ServeOne(Entry& entry);

  GrdManager* manager_;
  std::vector<Entry> channels_;

  std::atomic<bool> self_stop_{false};
  std::thread self_runner_;
};

}  // namespace grd::guardian
