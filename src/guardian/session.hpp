// Session layer of the grdManager (see ARCHITECTURE.md).
//
// One ClientSession per registered tenant, owning everything the paper keeps
// per-application: the partition view, loaded modules, the pointerToSymbol
// map (§4.2.3), streams and events. Streams are real GpuScheduler work
// queues and events carry completion state, so the stream/event RPCs have
// CUDA semantics instead of being decorative. Each session carries its own
// mutex — the dispatch layer holds it for the duration of a request, so a
// session's state is only ever touched by one worker at a time while
// different sessions proceed concurrently. Asynchronous kernel bodies run
// on scheduler executors *without* the session mutex; they only touch the
// atomic `failed` flag, captured-by-value launch state, and shared_ptr-held
// modules, never the maps.
//
// The SessionRegistry is the only cross-session structure: a shared_mutex
// protected id → session map. Lookups (every request) take the shared lock;
// register/disconnect take the exclusive one. Sessions are handed out as
// shared_ptr so a disconnect racing with an in-flight request on another
// worker never frees state under it.
//
// Process mode (shared_state.hpp): the registry binds to the pool's
// SharedServingState. Client ids then come from the shared allocator (unique
// across every forked worker), each Create/Erase publishes/retires a shared
// session slot stamped with this worker's index, and a Find miss consults
// the shared slots so a session orphaned by a crashed worker fails with a
// clean "worker crashed" status instead of "unknown client". The heavy
// per-session state (modules, compiled programs, streams) stays
// worker-private — sticky channel claims guarantee a session's requests
// only ever reach the worker that owns it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "guardian/bounds_table.hpp"
#include "guardian/gpu_scheduler.hpp"
#include "ptx/ast.hpp"
#include "ptxexec/program.hpp"

namespace grd::guardian {

struct ClientModule {
  ptx::Module native;
  // Owned by the SandboxCache and shared across tenants loading identical
  // PTX; null when protection is disabled.
  std::shared_ptr<const ptx::Module> sandboxed;
  // Fused bytecode programs (ptxexec::CompiledModule) the launch path
  // actually runs: `sandboxed_compiled` comes from the sandbox cache with the
  // patch; `native_compiled` is compiled at load time and only when a native
  // (unfenced) launch is reachable — protection off or the standalone fast
  // path armed.
  std::shared_ptr<const ptxexec::CompiledModule> sandboxed_compiled;
  std::shared_ptr<const ptxexec::CompiledModule> native_compiled;
};

struct FunctionEntry {
  std::uint64_t module = 0;
  std::string kernel;
};

struct ClientSession {
  ClientSession(ClientId id_in, std::shared_ptr<GpuStream> default_stream)
      : id(id_in) {
    streams[0] = std::move(default_stream);
  }

  const ClientId id;
  // Serializes request handling for this session (held by the dispatcher).
  std::mutex mu;

  PartitionBounds partition;
  // Atomic because asynchronous kernel bodies set it from executor threads
  // while the dispatcher reads it under `mu`.
  std::atomic<bool> failed{false};
  // Set by Disconnect under `mu`: a worker that resolved this session
  // before the disconnect landed must not touch the released partition.
  bool disconnected = false;
  // kSetPriority session scope: class new streams inherit (existing streams
  // are retagged by the handler at the same time). Atomic because the
  // ManagerServer's session-priority sweep reads it without `mu` to order
  // ring pumping by tenant class.
  std::atomic<protocol::PriorityClass> default_priority{
      protocol::PriorityClass::kNormal};
  // Device this session is placed on (multi-device fleet). Atomic because
  // asynchronous kernel bodies resolve their device per invocation while
  // live migration retargets it under `mu` — a checkpointed kernel
  // re-admitted after migration must run against the target device.
  std::atomic<std::uint32_t> device_id{0};
  // Set by adoption when the journal carries an armed in-flight-kernel
  // mirror: the next launch matching it resumes from the mirrored bitmap
  // instead of starting fresh (the client retries the launch it saw fail
  // when its worker died). Cleared by that launch either way (under `mu`).
  bool resume_pending = false;
  std::uint64_t next_module = 1;
  std::uint64_t next_function = 1;
  std::uint64_t next_stream = 1;
  std::uint64_t next_event = 1;
  std::unordered_map<std::uint64_t, ClientModule> modules;
  // The paper's pointerToSymbol map: client launch handle -> sandboxed
  // kernel symbol.
  std::unordered_map<std::uint64_t, FunctionEntry> pointer_to_symbol;
  // id 0 is the default stream, created at registration.
  std::unordered_map<std::uint64_t, std::shared_ptr<GpuStream>> streams;
  std::unordered_map<std::uint64_t, std::shared_ptr<GpuEvent>> events;
};

class SharedServingState;

class SessionRegistry {
 public:
  // Process mode: allocate ids/slots from the pool's shared registry on
  // behalf of worker `worker_index`. Must be called before any session
  // exists (worker startup, pre-serving).
  void BindShared(SharedServingState* shared, std::uint32_t worker_index);

  // Creates a session for a freshly assigned client id covering `partition`
  // on `device`, with `default_stream` installed as stream 0. Fails only in
  // process mode, when the shared registry is out of slots.
  Result<std::shared_ptr<ClientSession>> Create(
      PartitionBounds partition, std::shared_ptr<GpuStream> default_stream,
      std::uint32_t device = 0);

  // Adoption path: re-installs a session whose shared slot (and client id)
  // already exists — the local map entry died with a crashed worker and is
  // being rebuilt from the slot's journal. Never allocates a shared slot.
  std::shared_ptr<ClientSession> Restore(
      ClientId id, PartitionBounds partition,
      std::shared_ptr<GpuStream> default_stream, std::uint32_t device);

  // NotFound for ids that never registered or already disconnected;
  // Unavailable for sessions lost to a crashed worker (process mode).
  Result<std::shared_ptr<ClientSession>> Find(ClientId id) const;

  Status Erase(ClientId id);

  // Mirrors a session-scope kSetPriority into the shared slot (no-op in
  // threaded mode) so the parent supervisor and serving policies in other
  // processes see the tenant's current class.
  void PublishPriority(ClientId id, protocol::PriorityClass priority);

  // Mirrors a live migration's device change into the shared slot (no-op in
  // threaded mode) so adoption after a later crash lands on the right device.
  void PublishDevice(ClientId id, std::uint32_t device);

  // Mirrors a GrowPartition into the shared slot (no-op in threaded mode) so
  // adoption rebuilds the partition at its grown size.
  void PublishPartition(ClientId id, PartitionBounds bounds);

  std::size_t size() const;

  // Process-mode bindings (null / 0 in threaded mode); used by the adoption
  // path to reach the journal of a slot this worker now owns.
  SharedServingState* shared() const noexcept { return shared_; }
  std::uint32_t worker_index() const noexcept { return worker_index_; }

 private:
  mutable std::shared_mutex mu_;
  ClientId next_id_ = 1;
  std::unordered_map<ClientId, std::shared_ptr<ClientSession>> sessions_;
  SharedServingState* shared_ = nullptr;  // null = threaded mode
  std::uint32_t worker_index_ = 0;
};

}  // namespace grd::guardian
