// Session layer of the grdManager (see ARCHITECTURE.md).
//
// One ClientSession per registered tenant, owning everything the paper keeps
// per-application: the partition bounds every transfer check and launch
// reads (§4.2.1-4.2.3), loaded modules, the pointerToSymbol map (§4.2.3),
// streams and events. Streams are real GpuScheduler work
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
// clean "worker crashed" status instead of "unknown client". Each session
// keeps a pointer to its slot, so handlers reach the journal without a
// scan. Every tenant process maps the slots, so the owning worker checks
// no request against one; only adoption reads a slot back. The session
// state itself (bounds, modules, compiled programs, streams) stays
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
#include "ptxexec/program.hpp"

namespace grd::guardian {

// A loaded module is only its fused bytecode programs
// (ptxexec::CompiledModule), the ones the launch path runs; no AST outlives
// the load. `sandboxed_compiled` is owned by the SandboxCache and shared
// across tenants loading identical PTX (null when protection is disabled);
// `native_compiled` is compiled at load time and only when a native
// (unfenced) launch is reachable — protection off or the standalone fast
// path armed.
struct ClientModule {
  std::shared_ptr<const ptxexec::CompiledModule> sandboxed_compiled;
  std::shared_ptr<const ptxexec::CompiledModule> native_compiled;

  // Either program resolves kernel names: patching never renames a kernel.
  const ptxexec::CompiledModule& program() const {
    return sandboxed_compiled ? *sandboxed_compiled : *native_compiled;
  }
};

struct FunctionEntry {
  std::uint64_t module = 0;
  std::string kernel;
};

struct SharedSessionSlot;

struct ClientSession {
  ClientSession(ClientId id_in, std::shared_ptr<GpuStream> default_stream,
                SharedSessionSlot* slot)
      : id(id_in), shared_slot(slot) {
    streams[0] = std::move(default_stream);
  }

  const ClientId id;
  // Process mode: this session's slot in the shared region, which carries
  // its journal and the fields adoption rebuilds it from. Null in threaded
  // mode.
  SharedSessionSlot* const shared_slot;
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
  // are retagged by the handler at the same time). Atomic because session
  // adoption stores it outside `mu`, after the restored session is already
  // findable in the registry.
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
      ClientId id, SharedSessionSlot* slot, PartitionBounds partition,
      std::shared_ptr<GpuStream> default_stream, std::uint32_t device);

  // NotFound for ids that never registered or already disconnected;
  // Unavailable for sessions lost to a crashed worker (process mode).
  Result<std::shared_ptr<ClientSession>> Find(ClientId id) const;

  Status Erase(ClientId id);

  std::size_t size() const;

  // Process-mode bindings (null / 0 in threaded mode): the adoption path
  // finds the slots promised to this worker, and module loads intern their
  // PTX into the shared arena.
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
