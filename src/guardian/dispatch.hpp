// Dispatch layer of the grdManager (see ARCHITECTURE.md).
//
// Replaces the monolithic opcode switch with a typed handler registry:
// every protocol::Op maps to a HandlerDescriptor whose pipeline runs three
// stages — decode (wire payload → typed request struct), validate (check
// the typed request against session/execution state) and execute (perform
// it, producing the response payload). Adding an RPC is one Register call
// in handlers.cpp, not a switch edit spread across the manager.
//
// The registry is populated once at manager construction and immutable
// afterwards, so lookups need no locking even under the multi-worker
// server.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "guardian/protocol.hpp"
#include "ipc/serializer.hpp"

namespace grd::guardian {

struct ExecutionContext;
class SessionRegistry;
struct ClientSession;
class Dispatcher;

// Everything a handler stage may touch. `session` is bound (and its mutex
// held) by the dispatcher iff the descriptor declares kRequired;
// `session_ref` is the owning pointer behind it, for handlers that enqueue
// asynchronous work outliving the request. `dispatcher` lets the batch
// handler re-dispatch its sub-requests.
struct HandlerContext {
  ExecutionContext& exec;
  SessionRegistry& sessions;
  ClientSession* session = nullptr;
  std::shared_ptr<ClientSession> session_ref;
  const Dispatcher* dispatcher = nullptr;
};

enum class SessionPolicy : std::uint8_t {
  kNotRequired,  // runs without a client id (registration only)
  kRequired,     // client id must resolve to a live, non-failed session
};

struct HandlerDescriptor {
  std::string name;
  SessionPolicy session = SessionPolicy::kRequired;
  // Fused decode→validate→execute pipeline (composed by Dispatcher::Register
  // for typed handlers). Never throws; errors become error responses.
  std::function<Result<ipc::Writer>(HandlerContext&, ipc::Reader&)> run;
};

class Dispatcher {
 public:
  template <typename Req>
  using DecodeFn = Result<Req> (*)(ipc::Reader&);
  template <typename Req>
  using ValidateFn = Status (*)(HandlerContext&, const Req&);
  template <typename Req>
  using ExecuteFn = Result<ipc::Writer> (*)(HandlerContext&, Req&);

  // Raw registration for handlers that manage their own pipeline.
  void Register(protocol::Op op, HandlerDescriptor descriptor);

  // Typed registration: stages are stateless function pointers; `validate`
  // may be null when decoding alone establishes validity.
  template <typename Req>
  void Register(protocol::Op op, std::string name, SessionPolicy policy,
                DecodeFn<Req> decode, ValidateFn<Req> validate,
                ExecuteFn<Req> execute) {
    HandlerDescriptor descriptor;
    descriptor.name = std::move(name);
    descriptor.session = policy;
    descriptor.run = [decode, validate, execute](
                         HandlerContext& ctx,
                         ipc::Reader& req) -> Result<ipc::Writer> {
      GRD_ASSIGN_OR_RETURN(Req decoded, decode(req));
      if (validate != nullptr) GRD_RETURN_IF_ERROR(validate(ctx, decoded));
      return execute(ctx, decoded);
    };
    Register(op, std::move(descriptor));
  }

  // Null for unregistered opcodes.
  const HandlerDescriptor* Find(protocol::Op op) const;

  std::size_t size() const noexcept { return handlers_.size(); }
  // Registered opcodes in ascending order (introspection/tests).
  std::vector<protocol::Op> RegisteredOps() const;

 private:
  std::unordered_map<std::uint32_t, HandlerDescriptor> handlers_;
};

// Populates `dispatcher` with every RPC of the wire protocol (handlers.cpp).
void RegisterBuiltinHandlers(Dispatcher& dispatcher);

// Session adoption (process mode): rebuilds every session the supervisor
// re-homed onto this worker (adoption_pending) from its shared-slot
// journal — partition at its exact prior bounds, live mallocs
// address-exact, modules replayed from the shared PTX arena through the
// sandbox cache, functions, streams, id counters. An armed pending-kernel
// mirror is left in place: the client's retried launch resumes it from its
// completed-block bitmap. A session that cannot be rebuilt is crash-failed.
// A replacement worker runs this before it serves any request, so a fresh
// registration can never be handed an adopted session's partition. Returns
// the number of sessions adopted; 0 without a shared registry.
std::size_t AdoptPendingSessions(ExecutionContext& exec,
                                 SessionRegistry& sessions);

// Live migration: moves `session` (mutex held by the caller) to
// `target_device` — pauses its streams, revokes any running kernel at a
// block boundary, detaches the partition with its sub-allocator state,
// copies the partition bytes, re-admits the still-queued work on streams
// recreated on the target scheduler. Tickets stay valid across the move.
Status MigrateSession(ExecutionContext& exec,
                      const std::shared_ptr<ClientSession>& session,
                      std::uint32_t target_device);

}  // namespace grd::guardian
