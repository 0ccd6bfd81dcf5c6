#include "guardian/manager.hpp"

#include <mutex>

#include "guardian/shared_state.hpp"
#include "obs/trace.hpp"

namespace grd::guardian {

using ipc::Bytes;
using ipc::Reader;
using ipc::Writer;

GrdManager::GrdManager(simcuda::Gpu* gpu, ManagerOptions options)
    : GrdManager(std::vector<simcuda::Gpu*>{gpu}, std::move(options)) {}

GrdManager::GrdManager(const std::vector<simcuda::Gpu*>& gpus,
                       ManagerOptions options, SharedServingState* shared,
                       std::uint32_t worker_index)
    : exec_(gpus, options, shared != nullptr ? &shared->stats() : nullptr) {
  if (shared != nullptr) sessions_.BindShared(shared, worker_index);
  // The recorder is process-wide; any manager asking for tracing turns it
  // on (benches construct tracing-off managers alongside without toggling
  // it back, so disabling is left to the owner of the process).
  if (options.tracing_enabled) obs::TraceRecorder::Instance().Enable(true);
  RegisterBuiltinHandlers(dispatcher_);
}

GrdManager::~GrdManager() {
  // Join every device's executor pool while the session registry is still
  // intact: in-flight kernel bodies may read it (standalone fast-path check).
  for (auto& device : exec_.devices) device->scheduler.Shutdown();
}

Status GrdManager::Migrate(ClientId client, std::uint32_t device) {
  GRD_ASSIGN_OR_RETURN(std::shared_ptr<ClientSession> session,
                       sessions_.Find(client));
  std::lock_guard<std::mutex> session_lock(session->mu);
  return MigrateSession(exec_, session, device);
}

ipc::Bytes GrdManager::HandleRequest(const Bytes& request) {
  Reader reader(request);
  auto header = protocol::ReadHeader(reader);
  if (!header.ok()) return protocol::EncodeError(header.status());

  const HandlerDescriptor* descriptor = dispatcher_.Find(header->op);
  if (descriptor == nullptr)
    return protocol::EncodeError(Unimplemented("unknown op"));

  // Dispatch under the client's trace context: the request span and every
  // nested span (patch/compile, queueing, execution) carry its trace id.
  obs::ContextScope trace_scope(header->trace);
  obs::ScopedSpan request_span(descriptor->name.c_str(), header->client);

  HandlerContext ctx{exec_, sessions_, nullptr, nullptr, &dispatcher_};

  if (descriptor->session == SessionPolicy::kNotRequired) {
    auto out = descriptor->run(ctx, reader);
    return out.ok() ? protocol::EncodeOk(std::move(*out))
                    : protocol::EncodeError(out.status());
  }

  auto found = sessions_.Find(header->client);
  if (!found.ok()) return protocol::EncodeError(found.status());
  const std::shared_ptr<ClientSession> session = std::move(*found);

  // Per-session serialization: one request at a time per client, while
  // requests of different sessions run concurrently on other workers.
  std::lock_guard<std::mutex> session_lock(session->mu);
  if (session->disconnected)
    return protocol::EncodeError(
        NotFound("unknown client " + std::to_string(session->id)));
  if (session->failed.load(std::memory_order_acquire))
    return protocol::EncodeError(
        Aborted("client " + std::to_string(session->id) +
                " was terminated after a device fault"));
  ctx.session = session.get();
  ctx.session_ref = session;
  auto out = descriptor->run(ctx, reader);
  return out.ok() ? protocol::EncodeOk(std::move(*out))
                  : protocol::EncodeError(out.status());
}

}  // namespace grd::guardian
