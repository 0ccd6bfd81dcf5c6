// grdManager: the trusted GPU manager process (paper §4.2).
//
// The manager is the only entity with GPU access. It:
//  - creates the single GPU context all tenants share (one context total —
//    the §2.2 memory argument against MPS's context-per-client);
//  - partitions device memory and serves each client's allocations from its
//    partition (§4.2.1);
//  - validates every host-initiated transfer against the client's partition
//    bounds, which its session holds (§4.2.2);
//  - sandboxes every registered PTX module with the PTX-patcher (through a
//    content-addressed cache shared across tenants) and, on launch, looks up
//    the sandboxed kernel in the pointerToSymbol map and appends the
//    partition mask/base arguments (§4.2.3, Table 5);
//  - executes calls from different clients on different streams (§4.2.4 —
//    see ManagerServer in transport.hpp);
//  - contains device faults to the faulting client (the whole point).
//
// Since the layered refactor the class is a thin facade wiring three layers
// (see ARCHITECTURE.md):
//   session   — SessionRegistry / ClientSession (session.hpp)
//   dispatch  — typed handler registry (dispatch.hpp, handlers.cpp)
//   execution — shared GPU/partition/scheduler state (execution.hpp)
// HandleRequest is thread-safe: several ManagerServer pumps, each on its
// own thread and channels, may share one manager.
#pragma once

#include <cstdint>
#include <vector>

#include "guardian/dispatch.hpp"
#include "guardian/execution.hpp"
#include "guardian/protocol.hpp"
#include "guardian/session.hpp"
#include "ipc/serializer.hpp"

namespace grd::guardian {

class SharedServingState;

class GrdManager {
 public:
  // Serves one device, which the caller owns.
  GrdManager(simcuda::Gpu* gpu, ManagerOptions options);

  // Serves `gpus` (at least one), which the caller owns and which must
  // outlive the manager. With `shared` set (process-mode worker), sessions
  // and stats bind to the forked pool's SharedRegion state
  // (shared_state.hpp) on behalf of worker `worker_index`: client ids are
  // pool-unique, every registration is visible to the parent supervisor,
  // and the stats counters aggregate across all workers.
  GrdManager(const std::vector<simcuda::Gpu*>& gpus, ManagerOptions options,
             SharedServingState* shared = nullptr,
             std::uint32_t worker_index = 0);
  // Quiesces the device scheduler (cancelling queued work, joining the
  // executor pool) before any session state is torn down.
  ~GrdManager();

  // Full request dispatcher (one IPC message in, one out). Never throws and
  // never returns a malformed response; internal errors become error
  // responses. Safe to call concurrently.
  ipc::Bytes HandleRequest(const ipc::Bytes& request);

  const ManagerStats& stats() const noexcept { return exec_.stats; }
  const ManagerOptions& options() const noexcept { return exec_.options; }
  std::size_t active_clients() const noexcept { return sessions_.size(); }

  const Dispatcher& dispatcher() const noexcept { return dispatcher_; }
  const SandboxCache& sandbox_cache() const noexcept {
    return exec_.sandbox_cache;
  }
  // The primary device's scheduler (device 0) — the historical single-device
  // accessor; multi-device callers go through `execution().device(id)`.
  GpuScheduler& scheduler() noexcept { return exec_.device(0).scheduler; }
  ExecutionContext& execution() noexcept { return exec_; }

  // Deterministic live migration (tests/tools): moves `client` to
  // `device` under its session mutex, exactly as the automatic batch-arrival
  // trigger would. Thread-safe against concurrent requests of the session.
  Status Migrate(ClientId client, std::uint32_t device);

  // Process mode: rebuilds every session the supervisor promised to this
  // worker from its shared journal (AdoptPendingSessions in dispatch.hpp).
  // A replacement worker calls it before it serves any request.
  std::size_t AdoptPendingSessions() {
    return guardian::AdoptPendingSessions(exec_, sessions_);
  }

  // Called by the transport when a response could not be delivered.
  void NoteDroppedResponse() noexcept { ++exec_.stats.responses_dropped; }

  // Transport-layer accounting: one shm-ring message consumed / produced on
  // behalf of this manager. Counted at the ring read/write sites themselves
  // (ManagerServer::ServeOne, which serves both deployments) so the shared
  // process-mode stats aggregate exactly, message by message. The write
  // counter is bumped BEFORE the ring publish: a client that consumed a
  // response (and whoever it then unblocks) must never observe the shared
  // counter lagging the ring's own. A failed publish takes the bump back.
  void NoteRingRead() noexcept { ++exec_.stats.ring_messages_read; }
  void NoteRingWritten() noexcept { ++exec_.stats.ring_messages_written; }
  void NoteRingWriteAborted() noexcept { --exec_.stats.ring_messages_written; }

  // Device memory the sharing layer itself consumes: exactly one context
  // regardless of client count (§2.2: 176 MB vs MPS's per-client growth).
  std::uint64_t SharingLayerFootprint() const noexcept {
    return simcuda::Gpu::kContextFootprintBytes;
  }

 private:
  ExecutionContext exec_;
  SessionRegistry sessions_;
  Dispatcher dispatcher_;
};

}  // namespace grd::guardian
