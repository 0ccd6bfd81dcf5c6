#include "guardian/grdlib.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace grd::guardian {

using ipc::Bytes;
using ipc::Reader;
using ipc::Writer;
using protocol::Op;
using simcuda::DevicePtr;

namespace {
// Keep batch envelopes comfortably below the 1 MiB ring capacity.
constexpr std::uint64_t kMaxPendingBytes = 256 * 1024;

// Wire layout of RequestHeader: u32 op, then the u64 client id. Recovery
// re-sends a serialized request under a NEW client id by patching it in
// place (the payload after the header is identical by construction for
// idempotent ops).
constexpr std::size_t kClientFieldOffset = sizeof(std::uint32_t);

void PatchHeaderClient(Bytes& raw, std::uint64_t client) {
  if (raw.size() >= kClientFieldOffset + sizeof(client))
    std::memcpy(raw.data() + kClientFieldOffset, &client, sizeof(client));
}

// Save/restore (not set/clear) so Recover's internal calls — which also run
// through Call — nest without the inner scope dropping the outer guard.
class ScopedRecoveryFlag {
 public:
  explicit ScopedRecoveryFlag(bool& flag) : flag_(flag), saved_(flag) {
    flag_ = true;
  }
  ~ScopedRecoveryFlag() { flag_ = saved_; }

 private:
  bool& flag_;
  bool saved_;
};
}  // namespace

bool GrdLib::IsRetryable(Op op) {
  // Safe to re-send verbatim against a freshly recovered session: no
  // server-side handles in the payload (module/function/stream/event ids
  // from the dead session would be stale) and no side effect the client
  // can observe twice. kModuleLoadData qualifies — the payload is the PTX
  // text. A load the crash interrupted after it completed leaves a module
  // the client never learned of: the re-sent load is a sandbox-cache hit
  // but still gets a new module id and journal entry.
  switch (op) {
    case Op::kGetDeviceSpec:
    case Op::kModuleLoadData:
    case Op::kDeviceSynchronize:
    case Op::kGetExportTable:
      return true;
    default:
      return false;
  }
}

bool GrdLib::IsRetryableAfterAttach(Op op) {
  // After an attach the session kept its client id, partition, and every
  // server-side module / function / stream handle (rebuilt from the shared
  // journal with identical ids), so ops whose re-execution is idempotent IN
  // EFFECT also re-send safely: an interrupted launch resumes from its
  // journaled block checkpoint (or deterministically rewrites its own
  // partition), copies and memsets rewrite the same bytes, syncs just wait.
  // Handle-creating/destroying ops stay out — the crash may have landed
  // after the side effect, and a second create would leak — as do event
  // ops (events are not journaled, so they did not survive adoption).
  switch (op) {
    case Op::kLaunchKernel:
    case Op::kMemcpyH2D:
    case Op::kMemcpyH2DAsync:
    case Op::kMemcpyD2H:
    case Op::kMemcpyD2D:
    case Op::kMemset:
    case Op::kStreamSynchronize:
    case Op::kStreamIsCapturing:
    case Op::kStreamGetCaptureInfo:
    case Op::kSetPriority:
    case Op::kModuleGetFunction:
      return true;
    default:
      return IsRetryable(op);
  }
}

bool GrdLib::IsRecoverable(Op op) {
  // A failed registration has no session to recover; disconnecting a
  // session the crash already destroyed is complete as-is.
  return op != Op::kRegisterClient && op != Op::kDisconnect;
}

void GrdLib::BackoffSleep(int attempt) const {
  std::int64_t us = options_.recovery_backoff.count();
  for (int i = 1; i < attempt; ++i) {
    us *= 2;
    if (us >= options_.recovery_backoff_max.count()) break;
  }
  us = std::min<std::int64_t>(us, options_.recovery_backoff_max.count());
  timespec deadline;
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_sec += us / 1'000'000;
  deadline.tv_nsec += (us % 1'000'000) * 1000;
  if (deadline.tv_nsec >= 1'000'000'000) {
    deadline.tv_sec += 1;
    deadline.tv_nsec -= 1'000'000'000;
  }
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline, nullptr) ==
         EINTR) {
  }
}

ipc::Writer GrdLib::NewRequest(Op op) const {
  Writer writer;
  last_trace_ = protocol::WriteHeader(writer, op, client_);
  last_trace_op_ = op;
  last_trace_begin_ns_ = last_trace_.valid() ? obs::MonotonicNowNs() : 0;
  return writer;
}

Result<Reader> GrdLib::Transact(const Bytes& raw,
                                Bytes* response_storage) const {
  GRD_ASSIGN_OR_RETURN(*response_storage, transport_->Call(raw));
  return protocol::DecodeResponse(*response_storage);
}

Result<Reader> GrdLib::Call(Writer request, Bytes* response_storage) const {
  // Copy the trace state now: FlushBatch below stamps its own envelope
  // header and would clobber it.
  const obs::TraceContext ctx = last_trace_;
  const Op op = last_trace_op_;
  const std::uint64_t begin_ns = last_trace_begin_ns_;
  // Any buffered async calls are ordered before this one; their errors
  // surface here (CUDA-style deferred async error reporting).
  GRD_RETURN_IF_ERROR(FlushBatch());
  Bytes raw = std::move(request).Take();
  auto reader = Transact(raw, response_storage);
  if (ctx.valid()) {
    char name[48];
    std::snprintf(name, sizeof(name), "client.%s", protocol::OpName(op));
    obs::TraceRecorder::Instance().EmitComplete(name, ctx, 0, begin_ns,
                                                obs::MonotonicNowNs());
  }
  if (reader.ok() || recovering_ || options_.recovery_attempts <= 0 ||
      reader.status().code() != StatusCode::kUnavailable ||
      !IsRecoverable(op))
    return reader;
  // Crash recovery (GrdLibOptions): the session died with its worker.
  // Re-establish it; transparently retry only idempotent ops.
  for (int attempt = 1; attempt <= options_.recovery_attempts; ++attempt) {
    BackoffSleep(attempt);
    if (!Recover().ok()) {
      ++recovery_failures_;
      continue;
    }
    const bool retryable =
        last_recovery_attached_ ? IsRetryableAfterAttach(op) : IsRetryable(op);
    if (!retryable)
      return Status(Unavailable(
          std::string("session re-registered after worker crash; ") +
          protocol::OpName(op) +
          " not retried (rebuild device state and retry)"));
    PatchHeaderClient(raw, client_);
    ++recovery_retries_;
    reader = Transact(raw, response_storage);
    if (reader.ok() ||
        reader.status().code() != StatusCode::kUnavailable)
      return reader;
  }
  return reader;
}

Status GrdLib::CallNoPayload(Writer request) const {
  Bytes storage;
  auto reader = Call(std::move(request), &storage);
  return reader.ok() ? OkStatus() : reader.status();
}

void GrdLib::EnableBatching(std::size_t max_pending) {
  batching_enabled_ = true;
  // Clamp to the envelope limit the manager enforces: a larger setting
  // would make every flush an oversize batch rejected wholesale.
  max_pending_ = std::clamp<std::size_t>(max_pending, 1,
                                         protocol::kMaxBatchOps);
}

Status GrdLib::BufferAsync(Writer request) const {
  Bytes bytes = std::move(request).Take();
  pending_bytes_ += bytes.size();
  pending_.push_back(std::move(bytes));
  if (pending_.size() >= max_pending_ || pending_bytes_ >= kMaxPendingBytes)
    return FlushBatch();
  return OkStatus();
}

Status GrdLib::FlushBatch() const {
  if (pending_.empty()) return OkStatus();
  Writer envelope;
  const obs::TraceContext batch_ctx =
      protocol::WriteHeader(envelope, Op::kBatch, client_);
  const std::uint64_t batch_begin_ns =
      batch_ctx.valid() ? obs::MonotonicNowNs() : 0;
  envelope.Put<std::uint32_t>(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& sub : pending_) envelope.PutBlob(sub.data(), sub.size());
  const std::size_t sent = pending_.size();
  pending_.clear();
  pending_bytes_ = 0;
  GRD_ASSIGN_OR_RETURN(Bytes response,
                       transport_->Call(std::move(envelope).Take()));
  if (batch_ctx.valid())
    obs::TraceRecorder::Instance().EmitComplete(
        "client.Batch", batch_ctx, 0, batch_begin_ns, obs::MonotonicNowNs(),
        sent);
  GRD_ASSIGN_OR_RETURN(Reader reader, protocol::DecodeResponse(response));
  ++batches_sent_;
  GRD_ASSIGN_OR_RETURN(std::uint8_t form, reader.Get<std::uint8_t>());
  GRD_ASSIGN_OR_RETURN(std::uint32_t executed, reader.Get<std::uint32_t>());
  if (executed > sent) return Internal("batch response count mismatch");
  if (form == 1) {
    // Compacted reply: every sub-op succeeded, responses elided.
    if (executed < sent)
      return Internal("compacted batch response dropped sub-ops");
    return OkStatus();
  }
  for (std::uint32_t i = 0; i < executed; ++i) {
    GRD_ASSIGN_OR_RETURN(Bytes sub_bytes, reader.GetBlob());
    auto sub = protocol::DecodeResponse(sub_bytes);
    // The manager stops at the first failure, so at most the last executed
    // sub-response is an error; everything after it never ran.
    if (!sub.ok()) return sub.status();
  }
  if (executed < sent)
    return Internal("batch aborted without an error response");
  return OkStatus();
}

Result<GrdLib> GrdLib::Connect(ClientTransport* transport,
                               std::uint64_t memory_requirement,
                               GrdLibOptions options) {
  GrdLib lib(transport);
  lib.options_ = options;
  lib.memory_requirement_ = memory_requirement;
  // Registration is excluded from the generic recovery path (IsRecoverable:
  // a retried register that actually landed twice would leak a session), so
  // Connect loops explicitly: a kUnavailable here means the register never
  // produced a session — re-sending is safe.
  Status registered = lib.Register();
  for (int attempt = 1;
       !registered.ok() &&
       registered.code() == StatusCode::kUnavailable &&
       attempt <= options.recovery_attempts;
       ++attempt) {
    lib.BackoffSleep(attempt);
    registered = lib.Register();
  }
  GRD_RETURN_IF_ERROR(registered);
  GRD_RETURN_IF_ERROR(lib.FetchDeviceSpec());
  return lib;
}

Status GrdLib::Register() const {
  // Runs under the recovery flag so a nested failure cannot recurse into
  // another recovery.
  ScopedRecoveryFlag scope(recovering_);
  Writer request;
  protocol::WriteHeader(request, Op::kRegisterClient, 0);
  request.Put<std::uint64_t>(memory_requirement_);
  Bytes storage;
  auto reader = Transact(std::move(request).Take(), &storage);
  if (!reader.ok()) return reader.status();
  GRD_ASSIGN_OR_RETURN(client_, reader->Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(partition_base_, reader->Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(partition_size_, reader->Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(device_id_, reader->Get<std::uint32_t>());
  return OkStatus();
}

Status GrdLib::ResumeAttach() const {
  ScopedRecoveryFlag scope(recovering_);
  Writer request;
  protocol::WriteHeader(request, Op::kResumeSession, client_);
  request.Put<std::uint64_t>(client_);
  Bytes storage;
  auto reader = Transact(std::move(request).Take(), &storage);
  if (!reader.ok()) return reader.status();
  GRD_ASSIGN_OR_RETURN(client_, reader->Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(partition_base_, reader->Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(partition_size_, reader->Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(device_id_, reader->Get<std::uint32_t>());
  ++resume_attaches_;
  return OkStatus();
}

Status GrdLib::Recover() const {
  ScopedRecoveryFlag scope(recovering_);
  // The old session's buffered batch (if any) died with the worker; replay
  // would re-send launches against handles that no longer exist.
  pending_.clear();
  pending_bytes_ = 0;
  // Attach-first: if the replacement worker adopted the session from its
  // journal, the id, partition and every server-side handle survived —
  // nothing to replay.
  last_recovery_attached_ = false;
  if (client_ != 0 && ResumeAttach().ok()) {
    last_recovery_attached_ = true;
    ++recoveries_;
    return OkStatus();
  }
  GRD_RETURN_IF_ERROR(Register());
  if (priority_set_) {
    Writer request;
    protocol::WriteHeader(request, Op::kSetPriority, client_);
    request.Put<std::uint8_t>(0);  // scope: session
    request.Put<std::uint64_t>(0);
    request.Put<std::uint8_t>(static_cast<std::uint8_t>(priority_));
    Bytes storage;
    auto reader = Transact(std::move(request).Take(), &storage);
    if (!reader.ok()) return reader.status();
  }
  // Replay the module journal: fresh server ids slide in underneath the
  // client-facing virtual handles the application still holds.
  for (auto& [handle, module] : modules_) {
    Writer load;
    protocol::WriteHeader(load, Op::kModuleLoadData, client_);
    load.PutString(module.ptx);
    Bytes storage;
    auto reader = Transact(std::move(load).Take(), &storage);
    if (!reader.ok()) return reader.status();
    GRD_ASSIGN_OR_RETURN(module.server_id, reader->Get<std::uint64_t>());
    for (auto& [fn_handle, fn] : module.functions) {
      Writer lookup;
      protocol::WriteHeader(lookup, Op::kModuleGetFunction, client_);
      lookup.Put<std::uint64_t>(module.server_id);
      lookup.PutString(fn.name);
      Bytes fn_storage;
      auto fn_reader = Transact(std::move(lookup).Take(), &fn_storage);
      if (!fn_reader.ok()) return fn_reader.status();
      GRD_ASSIGN_OR_RETURN(fn.server_id, fn_reader->Get<std::uint64_t>());
    }
  }
  ++recoveries_;
  return OkStatus();
}

Status GrdLib::FetchDeviceSpec() {
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader,
                       Call(NewRequest(Op::kGetDeviceSpec), &storage));
  GRD_ASSIGN_OR_RETURN(device_spec_.name, reader.GetString());
  GRD_ASSIGN_OR_RETURN(device_spec_.compute_capability, reader.GetString());
  GRD_ASSIGN_OR_RETURN(device_spec_.sms, reader.Get<std::int32_t>());
  GRD_ASSIGN_OR_RETURN(device_spec_.cuda_cores, reader.Get<std::int32_t>());
  GRD_ASSIGN_OR_RETURN(device_spec_.l1_kb, reader.Get<std::int32_t>());
  GRD_ASSIGN_OR_RETURN(device_spec_.l2_kb, reader.Get<std::int32_t>());
  GRD_ASSIGN_OR_RETURN(device_spec_.global_mem_bytes,
                       reader.Get<std::uint64_t>());
  return OkStatus();
}

Status GrdLib::Disconnect() {
  return CallNoPayload(NewRequest(Op::kDisconnect));
}

Status GrdLib::SetPriority(protocol::PriorityClass priority) {
  Writer request = NewRequest(Op::kSetPriority);
  request.Put<std::uint8_t>(0);  // scope: session
  request.Put<std::uint64_t>(0);
  request.Put<std::uint8_t>(static_cast<std::uint8_t>(priority));
  GRD_RETURN_IF_ERROR(CallNoPayload(std::move(request)));
  // Recorded so Recover() re-applies the class to the fresh session.
  priority_set_ = true;
  priority_ = priority;
  return OkStatus();
}

Status GrdLib::SetStreamPriority(simcuda::StreamId stream,
                                 protocol::PriorityClass priority) {
  Writer request = NewRequest(Op::kSetPriority);
  request.Put<std::uint8_t>(1);  // scope: stream
  request.Put<std::uint64_t>(stream);
  request.Put<std::uint8_t>(static_cast<std::uint8_t>(priority));
  return CallNoPayload(std::move(request));
}

Status GrdLib::GrowPartition() {
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader,
                       Call(NewRequest(Op::kGrowPartition), &storage));
  GRD_ASSIGN_OR_RETURN(partition_base_, reader.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(partition_size_, reader.Get<std::uint64_t>());
  return OkStatus();
}

Status GrdLib::cudaMalloc(DevicePtr* ptr, std::uint64_t size) {
  Writer request = NewRequest(Op::kMalloc);
  request.Put<std::uint64_t>(size);
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader, Call(std::move(request), &storage));
  GRD_ASSIGN_OR_RETURN(*ptr, reader.Get<std::uint64_t>());
  return OkStatus();
}

Status GrdLib::cudaFree(DevicePtr ptr) {
  Writer request = NewRequest(Op::kFree);
  request.Put<std::uint64_t>(ptr);
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaMemcpy(void* dst_host, DevicePtr src_dev,
                          std::uint64_t size, simcuda::MemcpyKind kind) {
  if (kind != simcuda::MemcpyKind::kDeviceToHost)
    return InvalidArgument("this overload serves D2H; use the typed methods");
  Writer request = NewRequest(Op::kMemcpyD2H);
  request.Put<std::uint64_t>(src_dev);
  request.Put<std::uint64_t>(size);
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader, Call(std::move(request), &storage));
  GRD_ASSIGN_OR_RETURN(Bytes payload, reader.GetBlob());
  if (payload.size() != size) return Internal("short D2H payload");
  std::memcpy(dst_host, payload.data(), size);
  return OkStatus();
}

Status GrdLib::cudaMemcpyH2D(DevicePtr dst_dev, const void* src_host,
                             std::uint64_t size) {
  Writer request = NewRequest(Op::kMemcpyH2D);
  request.Put<std::uint64_t>(dst_dev);
  request.PutBlob(src_host, size);
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaMemcpyH2DAsync(DevicePtr dst_dev, const void* src_host,
                                  std::uint64_t size,
                                  simcuda::StreamId stream) {
  Writer request = NewRequest(Op::kMemcpyH2DAsync);
  request.Put<std::uint64_t>(dst_dev);
  request.Put<std::uint64_t>(stream);
  request.PutBlob(src_host, size);
  // The payload is serialized into the message, so the caller's buffer is
  // reusable on return even though the copy completes later.
  if (batching_enabled_ && stream != simcuda::kDefaultStream)
    return BufferAsync(std::move(request));
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaMemcpyD2D(DevicePtr dst_dev, DevicePtr src_dev,
                             std::uint64_t size) {
  Writer request = NewRequest(Op::kMemcpyD2D);
  request.Put<std::uint64_t>(dst_dev);
  request.Put<std::uint64_t>(src_dev);
  request.Put<std::uint64_t>(size);
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaMemset(DevicePtr dst, int value, std::uint64_t size) {
  Writer request = NewRequest(Op::kMemset);
  request.Put<std::uint64_t>(dst);
  request.Put<std::uint32_t>(static_cast<std::uint32_t>(value));
  request.Put<std::uint64_t>(size);
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaLaunchKernel(simcuda::FunctionId func,
                                const simcuda::LaunchConfig& config,
                                std::vector<ptxexec::KernelArg> args) {
  GRD_ASSIGN_OR_RETURN(std::uint64_t server_func, TranslateFunction(func));
  Writer request = NewRequest(Op::kLaunchKernel);
  request.Put<std::uint64_t>(server_func);
  request.Put<std::uint32_t>(config.grid.x);
  request.Put<std::uint32_t>(config.grid.y);
  request.Put<std::uint32_t>(config.grid.z);
  request.Put<std::uint32_t>(config.block.x);
  request.Put<std::uint32_t>(config.block.y);
  request.Put<std::uint32_t>(config.block.z);
  request.Put<std::uint64_t>(config.stream);
  request.Put<std::uint32_t>(static_cast<std::uint32_t>(args.size()));
  for (const auto& arg : args) {
    request.Put<std::uint64_t>(arg.bits);
    request.Put<std::uint8_t>(arg.size);
  }
  // Non-default-stream launches are fire-and-forget (faults surface at the
  // next sync), so they can ride in a batch with adjacent async calls.
  if (batching_enabled_ && config.stream != simcuda::kDefaultStream)
    return BufferAsync(std::move(request));
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaStreamCreate(simcuda::StreamId* stream) {
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader,
                       Call(NewRequest(Op::kStreamCreate), &storage));
  GRD_ASSIGN_OR_RETURN(*stream, reader.Get<std::uint64_t>());
  return OkStatus();
}

Status GrdLib::cudaStreamDestroy(simcuda::StreamId stream) {
  Writer request = NewRequest(Op::kStreamDestroy);
  request.Put<std::uint64_t>(stream);
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaStreamSynchronize(simcuda::StreamId stream) {
  Writer request = NewRequest(Op::kStreamSynchronize);
  request.Put<std::uint64_t>(stream);
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaStreamIsCapturing(simcuda::StreamId stream,
                                     bool* capturing) {
  Writer request = NewRequest(Op::kStreamIsCapturing);
  request.Put<std::uint64_t>(stream);
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader, Call(std::move(request), &storage));
  GRD_ASSIGN_OR_RETURN(std::uint64_t value, reader.Get<std::uint64_t>());
  *capturing = value != 0;
  return OkStatus();
}

Status GrdLib::cudaStreamGetCaptureInfo(simcuda::StreamId stream,
                                        std::uint64_t* capture_id) {
  Writer request = NewRequest(Op::kStreamGetCaptureInfo);
  request.Put<std::uint64_t>(stream);
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader, Call(std::move(request), &storage));
  GRD_ASSIGN_OR_RETURN(*capture_id, reader.Get<std::uint64_t>());
  return OkStatus();
}

Status GrdLib::cudaEventCreateWithFlags(simcuda::EventId* event,
                                        std::uint32_t flags) {
  Writer request = NewRequest(Op::kEventCreate);
  request.Put<std::uint32_t>(flags);
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader, Call(std::move(request), &storage));
  GRD_ASSIGN_OR_RETURN(*event, reader.Get<std::uint64_t>());
  return OkStatus();
}

Status GrdLib::cudaEventDestroy(simcuda::EventId event) {
  Writer request = NewRequest(Op::kEventDestroy);
  request.Put<std::uint64_t>(event);
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaEventRecord(simcuda::EventId event,
                               simcuda::StreamId stream) {
  Writer request = NewRequest(Op::kEventRecord);
  request.Put<std::uint64_t>(event);
  request.Put<std::uint64_t>(stream);
  // Records are fire-and-forget markers, so they batch with the launches
  // and copies around them (FIFO within the envelope preserves order).
  if (batching_enabled_ && stream != simcuda::kDefaultStream)
    return BufferAsync(std::move(request));
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaEventSynchronize(simcuda::EventId event) {
  Writer request = NewRequest(Op::kEventSynchronize);
  request.Put<std::uint64_t>(event);
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaStreamWaitEvent(simcuda::StreamId stream,
                                   simcuda::EventId event) {
  Writer request = NewRequest(Op::kStreamWaitEvent);
  request.Put<std::uint64_t>(event);
  request.Put<std::uint64_t>(stream);
  if (batching_enabled_ && stream != simcuda::kDefaultStream)
    return BufferAsync(std::move(request));
  return CallNoPayload(std::move(request));
}

Status GrdLib::cudaDeviceSynchronize() {
  return CallNoPayload(NewRequest(Op::kDeviceSynchronize));
}

Result<const simcuda::ExportTable*> GrdLib::cudaGetExportTable(
    simcuda::ExportTableId id) {
  const auto index = static_cast<std::size_t>(id);
  if (index >= export_tables_.size())
    return Status(NotFound("unknown export table"));
  if (export_tables_[index] != nullptr) return export_tables_[index].get();
  Writer request = NewRequest(Op::kGetExportTable);
  request.Put<std::uint8_t>(static_cast<std::uint8_t>(id));
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader, Call(std::move(request), &storage));
  GRD_ASSIGN_OR_RETURN(std::uint8_t table_id, reader.Get<std::uint8_t>());
  GRD_ASSIGN_OR_RETURN(std::uint32_t count, reader.Get<std::uint32_t>());
  auto table = std::make_unique<simcuda::ExportTable>();
  table->id = static_cast<simcuda::ExportTableId>(table_id);
  for (std::uint32_t i = 0; i < count; ++i) {
    GRD_ASSIGN_OR_RETURN(std::string name, reader.GetString());
    table->entries.push_back({std::move(name)});
  }
  export_tables_[index] = std::move(table);
  return export_tables_[index].get();
}

Result<simcuda::ModuleId> GrdLib::RegisterFatBinary(const std::string& ptx) {
  return cuModuleLoadData(ptx);
}

Result<simcuda::FunctionId> GrdLib::RegisterFunction(
    simcuda::ModuleId module, const std::string& kernel) {
  return cuModuleGetFunction(module, kernel);
}

Result<simcuda::ModuleId> GrdLib::cuModuleLoadData(const std::string& ptx) {
  Writer request = NewRequest(Op::kModuleLoadData);
  request.PutString(ptx);
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader, Call(std::move(request), &storage));
  GRD_ASSIGN_OR_RETURN(std::uint64_t server_id, reader.Get<std::uint64_t>());
  // Hand the application a VIRTUAL handle and journal the PTX: Recover()
  // can reload the module and remap the same handle to a fresh server id.
  const std::uint64_t handle = next_handle_++;
  modules_[handle] = ModuleRecord{ptx, server_id, {}};
  return handle;
}

Result<simcuda::FunctionId> GrdLib::cuModuleGetFunction(
    simcuda::ModuleId module, const std::string& kernel) {
  auto it = modules_.find(module);
  if (it == modules_.end())
    return Status(NotFound("unknown client module handle"));
  Writer request = NewRequest(Op::kModuleGetFunction);
  request.Put<std::uint64_t>(it->second.server_id);
  request.PutString(kernel);
  Bytes storage;
  GRD_ASSIGN_OR_RETURN(Reader reader, Call(std::move(request), &storage));
  GRD_ASSIGN_OR_RETURN(std::uint64_t server_id, reader.Get<std::uint64_t>());
  const std::uint64_t handle = next_handle_++;
  it->second.functions[handle] = FunctionRecord{kernel, server_id};
  function_module_[handle] = module;
  return handle;
}

Result<std::uint64_t> GrdLib::TranslateFunction(
    std::uint64_t client_func) const {
  auto mod_it = function_module_.find(client_func);
  if (mod_it == function_module_.end())
    return Status(NotFound("unknown client function handle"));
  const auto& module = modules_.at(mod_it->second);
  return module.functions.at(client_func).server_id;
}

Status GrdLib::cuLaunchKernel(simcuda::FunctionId func,
                              const simcuda::LaunchConfig& config,
                              std::vector<ptxexec::KernelArg> args) {
  return cudaLaunchKernel(func, config, std::move(args));
}

Status GrdLib::cuMemAlloc(DevicePtr* ptr, std::uint64_t size) {
  return cudaMalloc(ptr, size);
}

Status GrdLib::cuMemFree(DevicePtr ptr) { return cudaFree(ptr); }

Status GrdLib::cuMemcpyHtoD(DevicePtr dst, const void* src,
                            std::uint64_t size) {
  return cudaMemcpyH2D(dst, src, size);
}

Status GrdLib::cuMemcpyDtoH(void* dst, DevicePtr src, std::uint64_t size) {
  return cudaMemcpy(dst, src, size, simcuda::MemcpyKind::kDeviceToHost);
}

}  // namespace grd::guardian
