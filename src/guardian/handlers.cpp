// Builtin RPC handlers: every opcode of the wire protocol registered against
// the dispatch layer as a decode/validate/execute pipeline. This file is the
// only place that knows both the wire layout and the execution-layer
// semantics of a call; adding an RPC is one Register call here.
//
// Since the stream-aware execution engine, kernel launches, memcpys and
// event records ENQUEUE onto the session's GpuScheduler streams instead of
// executing inline under a big lock. Synchronous RPCs (the blocking memcpy
// family, default-stream launches, the Synchronize calls) enqueue and then
// wait on the returned ticket; asynchronous ones reply immediately and
// surface faults at the next synchronization point via the session's
// sticky `failed` flag.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cycle_clock.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "guardian/dispatch.hpp"
#include "guardian/execution.hpp"
#include "guardian/session.hpp"
#include "guardian/shared_state.hpp"
#include "obs/trace.hpp"
#include "ptx/parser.hpp"
#include "ptx/validator.hpp"
#include "ptxexec/interpreter.hpp"
#include "simcuda/export_tables.hpp"
#include "simgpu/timing.hpp"

namespace grd::guardian {
namespace {

using ipc::Reader;
using ipc::Writer;
using protocol::Op;

struct NoPayload {};
Result<NoPayload> DecodeNone(Reader&) { return NoPayload{}; }

struct IdReq {
  std::uint64_t id = 0;
};
Result<IdReq> DecodeId(Reader& req) {
  IdReq out;
  GRD_ASSIGN_OR_RETURN(out.id, req.Get<std::uint64_t>());
  return out;
}

// §4.2.2 range check of a host-initiated transfer touching [addr, addr+len)
// against the session's own bounds (the dispatcher holds its mutex).
Status InPartition(const ClientSession& session, std::uint64_t addr,
                   std::uint64_t len) {
  if (session.partition.Contains(addr, len)) return OkStatus();
  return PermissionDenied("transfer " + ToHex(addr) + "+" +
                          std::to_string(len) +
                          " outside partition of client " +
                          std::to_string(session.id));
}

// Bounds check shared by every single-range transfer, with the Table-5
// accounting the paper reports.
Status CheckTransfer(HandlerContext& ctx, std::uint64_t addr,
                     std::uint64_t len) {
  ++ctx.exec.stats.transfers_checked;
  const Status check = InPartition(*ctx.session, addr, len);
  if (!check.ok()) ++ctx.exec.stats.transfers_rejected;
  return check;
}

// Dilates `cycles` of modeled device time into a real executor sleep when
// the manager was configured with a time scale (bench_stream_overlap and
// the overlap tests); no-op in the default functional-only configuration.
void SimulateDeviceCycles(const ExecutionContext& exec, double cycles) {
  const double ns = exec.options.device_time_ns_per_cycle;
  if (ns <= 0.0 || cycles <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::int64_t>(cycles * ns)));
}

// Resolves a validated stream id to its scheduler queue.
std::shared_ptr<GpuStream> StreamOf(HandlerContext& ctx, std::uint64_t id) {
  return ctx.session->streams.at(id);
}

// The device the bound session is placed on (device 0 for sessionless
// handlers). Handlers route every scheduler/memory/partition touch through
// this so multi-device placement and live migration stay invisible to the
// wire protocol.
DeviceState& Dev(HandlerContext& ctx) {
  return ctx.exec.device(
      ctx.session != nullptr
          ? ctx.session->device_id.load(std::memory_order_relaxed)
          : 0);
}

// The session's journal (process mode; null in threaded mode).
SharedSessionJournal* JournalOf(const ClientSession& session) {
  return session.shared_slot != nullptr ? &session.shared_slot->journal
                                        : nullptr;
}

// Legacy default-stream semantics (the half that matters for correctness):
// a blocking default-stream operation is ordered after everything already
// queued on the session's other streams, so launch-on-created-stream
// followed by a blocking memcpy behaves as it did under the serialized
// engine. Sticky stream errors surface here, like any blocking CUDA call.
Status SyncOtherStreams(HandlerContext& ctx) {
  for (auto& [id, stream] : ctx.session->streams) {
    if (id == 0) continue;
    GRD_RETURN_IF_ERROR(Dev(ctx).scheduler.SynchronizeStream(*stream));
  }
  return OkStatus();
}

Status ValidateKnownStream(HandlerContext& ctx, const IdReq& req) {
  if (!ctx.session->streams.count(req.id))
    return InvalidArgument("unknown stream");
  return OkStatus();
}

// ---- register / disconnect ------------------------------------------------

Result<IdReq> DecodeRegister(Reader& req) {
  // Clients declare their memory requirement at initialization (§4.2.1:
  // "normal in cloud environments, where users buy instances with specific
  // resources").
  return DecodeId(req);
}

Result<Writer> ExecuteRegister(HandlerContext& ctx, IdReq& req) {
  // Placement/admission: least-loaded device first, then the rest in id
  // order — a device whose carver cannot fit the partition is not a
  // registration failure as long as any device can.
  ExecutionContext& exec = ctx.exec;
  std::vector<std::uint32_t> candidates;
  candidates.push_back(exec.PlaceSession());
  for (std::uint32_t d = 0; d < exec.device_count(); ++d)
    if (d != candidates[0]) candidates.push_back(d);

  // The session is findable the moment Create returns, so everything below
  // reads the local `bounds`/id copies, never the (unlocked) shared session.
  ClientId id = 0;
  PartitionBounds bounds;
  std::uint32_t device_id = 0;
  Status last_error = Status(
      OutOfMemory("no device admitted the partition"));
  for (const std::uint32_t candidate : candidates) {
    DeviceState& dev = exec.device(candidate);
    std::lock_guard<std::mutex> lock(dev.partition_mu);
    auto created = dev.partitions.CreatePartition(req.id);
    if (!created.ok()) {
      last_error = created.status();
      continue;
    }
    bounds = *created;
    auto session = ctx.sessions.Create(
        bounds, dev.scheduler.CreateStream(), candidate);
    if (!session.ok()) {
      // Shared registry slots exhausted (process mode): roll the partition
      // back so a rejected registration leaks no device memory.
      (void)dev.partitions.ReleasePartition(bounds.base);
      return session.status();
    }
    id = (*session)->id;
    device_id = candidate;
    dev.resident_sessions.fetch_add(1, std::memory_order_relaxed);
    break;
  }
  if (id == 0) return last_error;
  if (exec.options.standalone_fast_path) {
    // Fast-path fence: a native (unfenced) kernel that observed "runs
    // standalone" holds native_mu shared while resident. Taking it
    // exclusively *after* publishing the session means any such kernel has
    // finished before this tenant's partition goes live, and later kernels
    // see the new tenant count and sandbox themselves.
    std::unique_lock<std::shared_mutex> fence(exec.native_mu);
  }
  // A departed tenant's bytes may still sit in the range, so a new
  // partition starts zeroed: after the fence, so no unfenced kernel writes
  // it afterwards. The carve lies inside device memory, so this cannot
  // fail. Adoption and migration rebuild partitions through
  // CreatePartitionAt and Attach instead, which keep their bytes.
  GRD_RETURN_IF_ERROR(
      exec.device(device_id).gpu->memory().Zero(bounds.base, bounds.size));
  GRD_LOG_INFO("grdManager") << "client " << id << " registered, partition ["
                             << bounds.base << ", " << bounds.end()
                             << ") on device " << device_id;
  Writer out;
  out.Put<std::uint64_t>(id);
  out.Put<std::uint64_t>(bounds.base);
  out.Put<std::uint64_t>(bounds.size);
  out.Put<std::uint32_t>(device_id);
  return out;
}

Result<Writer> ExecuteDisconnect(HandlerContext& ctx, NoPayload&) {
  const ClientId id = ctx.session->id;
  const std::uint64_t base = ctx.session->partition.base;
  DeviceState& dev = Dev(ctx);
  // Drain this tenant's in-flight work before the partition is reassigned:
  // an async kernel enqueued before the disconnect must not touch a range a
  // new tenant may inherit.
  for (auto& [stream_id, stream] : ctx.session->streams)
    (void)dev.scheduler.SynchronizeStream(*stream);
  // Kill the session before releasing its partition: a worker that already
  // resolved this session (its mutex is held here) must observe the
  // disconnect instead of operating on a released — possibly reassigned —
  // partition range.
  ctx.session->disconnected = true;
  GRD_RETURN_IF_ERROR(ctx.sessions.Erase(id));
  dev.resident_sessions.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(dev.partition_mu);
  GRD_RETURN_IF_ERROR(dev.partitions.ReleasePartition(base));
  return Writer{};
}

// ---- device memory --------------------------------------------------------

Result<Writer> ExecuteMalloc(HandlerContext& ctx, IdReq& req) {
  DeviceState& dev = Dev(ctx);
  std::uint64_t addr = 0;
  {
    std::lock_guard<std::mutex> lock(dev.partition_mu);
    GRD_ASSIGN_OR_RETURN(
        addr, dev.partitions.AllocateIn(ctx.session->partition.base, req.id));
  }
  if (SharedSessionJournal* journal = JournalOf(*ctx.session))
    journal->AddAlloc(addr, req.id);
  Writer out;
  out.Put<std::uint64_t>(addr);
  return out;
}

Result<Writer> ExecuteFree(HandlerContext& ctx, IdReq& req) {
  DeviceState& dev = Dev(ctx);
  {
    std::lock_guard<std::mutex> lock(dev.partition_mu);
    GRD_RETURN_IF_ERROR(
        dev.partitions.FreeIn(ctx.session->partition.base, req.id));
  }
  if (SharedSessionJournal* journal = JournalOf(*ctx.session))
    journal->RemoveAlloc(req.id);
  return Writer{};
}

// Enqueues a host-initiated copy of `bytes` bytes running `body` on
// `stream`, charging the modeled copy-engine time. The body receives the
// session's CURRENT device memory, resolved per invocation: a queued copy
// that rides a live migration must land in the target device's memory (the
// partition bytes were moved before the item was re-admitted there).
GpuTicket EnqueueCopyOp(HandlerContext& ctx, GpuStream& stream,
                        std::uint64_t bytes,
                        std::function<Status(simgpu::GlobalMemory&)> body) {
  ExecutionContext* exec = &ctx.exec;
  std::shared_ptr<ClientSession> session = ctx.session_ref;
  ++exec->stats.memcpys_enqueued;
  return Dev(ctx).scheduler.EnqueueCopy(
      stream,
      [exec, session = std::move(session), bytes,
       body = std::move(body)]() -> Status {
        DeviceState& dev = exec->device(
            session->device_id.load(std::memory_order_acquire));
        GRD_RETURN_IF_ERROR(body(dev.gpu->memory()));
        SimulateDeviceCycles(
            *exec, simgpu::MemcpyDeviceCycles(dev.gpu->spec(), bytes));
        return OkStatus();
      });
}

struct MemcpyH2DReq {
  std::uint64_t dst = 0;
  ipc::Bytes payload;
};
Result<MemcpyH2DReq> DecodeMemcpyH2D(Reader& req) {
  MemcpyH2DReq out;
  GRD_ASSIGN_OR_RETURN(out.dst, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.payload, req.GetBlob());
  return out;
}
Status ValidateMemcpyH2D(HandlerContext& ctx, const MemcpyH2DReq& req) {
  return CheckTransfer(ctx, req.dst, req.payload.size());
}
Result<Writer> ExecuteMemcpyH2D(HandlerContext& ctx, MemcpyH2DReq& req) {
  // Synchronous cudaMemcpy: ordered after the session's other streams
  // (legacy default stream), enqueued on stream 0, completion awaited.
  GRD_RETURN_IF_ERROR(SyncOtherStreams(ctx));
  const std::uint64_t dst = req.dst;
  auto ticket = EnqueueCopyOp(
      ctx, *StreamOf(ctx, 0), req.payload.size(),
      [dst, payload = std::move(req.payload)](
          simgpu::GlobalMemory& memory) -> Status {
        return memory.Write(dst, payload.data(), payload.size());
      });
  GRD_RETURN_IF_ERROR(Dev(ctx).scheduler.Wait(ticket));
  return Writer{};
}

struct MemcpyH2DAsyncReq {
  std::uint64_t dst = 0;
  std::uint64_t stream = 0;
  ipc::Bytes payload;
};
Result<MemcpyH2DAsyncReq> DecodeMemcpyH2DAsync(Reader& req) {
  MemcpyH2DAsyncReq out;
  GRD_ASSIGN_OR_RETURN(out.dst, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.stream, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.payload, req.GetBlob());
  return out;
}
Status ValidateMemcpyH2DAsync(HandlerContext& ctx,
                              const MemcpyH2DAsyncReq& req) {
  if (!ctx.session->streams.count(req.stream))
    return InvalidArgument("unknown stream");
  return CheckTransfer(ctx, req.dst, req.payload.size());
}
Result<Writer> ExecuteMemcpyH2DAsync(HandlerContext& ctx,
                                     MemcpyH2DAsyncReq& req) {
  // The payload already lives in manager memory (it crossed the ring), so
  // the copy can complete after this RPC returns — true async semantics.
  const std::uint64_t dst = req.dst;
  EnqueueCopyOp(ctx, *StreamOf(ctx, req.stream), req.payload.size(),
                [dst, payload = std::move(req.payload)](
                    simgpu::GlobalMemory& memory) -> Status {
                  return memory.Write(dst, payload.data(), payload.size());
                });
  return Writer{};
}

struct RangeReq {
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
};
Result<RangeReq> DecodeRange(Reader& req) {
  RangeReq out;
  GRD_ASSIGN_OR_RETURN(out.addr, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.size, req.Get<std::uint64_t>());
  return out;
}
Status ValidateRange(HandlerContext& ctx, const RangeReq& req) {
  return CheckTransfer(ctx, req.addr, req.size);
}
Result<Writer> ExecuteMemcpyD2H(HandlerContext& ctx, RangeReq& req) {
  GRD_RETURN_IF_ERROR(SyncOtherStreams(ctx));
  ipc::Bytes payload(req.size);
  const std::uint64_t addr = req.addr;
  const std::uint64_t size = req.size;
  std::uint8_t* out_bytes = payload.data();
  // The handler waits on the ticket before touching `payload`, so handing
  // the raw buffer pointer to the executor is safe.
  auto ticket =
      EnqueueCopyOp(ctx, *StreamOf(ctx, 0), size,
                    [addr, size, out_bytes](
                        simgpu::GlobalMemory& memory) -> Status {
                      return memory.Read(addr, out_bytes, size);
                    });
  GRD_RETURN_IF_ERROR(Dev(ctx).scheduler.Wait(ticket));
  Writer out;
  out.PutBlob(payload.data(), payload.size());
  return out;
}

struct MemcpyD2DReq {
  std::uint64_t dst = 0;
  std::uint64_t src = 0;
  std::uint64_t size = 0;
};
Result<MemcpyD2DReq> DecodeMemcpyD2D(Reader& req) {
  MemcpyD2DReq out;
  GRD_ASSIGN_OR_RETURN(out.dst, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.src, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.size, req.Get<std::uint64_t>());
  return out;
}
Status ValidateMemcpyD2D(HandlerContext& ctx, const MemcpyD2DReq& req) {
  // §4.2.2: for cudaMemcpy-family calls both destination and source are
  // checked — D2D within one GPU address space is the classic cross-tenant
  // vector.
  ctx.exec.stats.transfers_checked += 2;
  Status check = InPartition(*ctx.session, req.dst, req.size);
  if (check.ok()) check = InPartition(*ctx.session, req.src, req.size);
  if (!check.ok()) ++ctx.exec.stats.transfers_rejected;
  return check;
}
Result<Writer> ExecuteMemcpyD2D(HandlerContext& ctx, MemcpyD2DReq& req) {
  GRD_RETURN_IF_ERROR(SyncOtherStreams(ctx));
  const std::uint64_t dst = req.dst;
  const std::uint64_t src = req.src;
  const std::uint64_t size = req.size;
  auto ticket = EnqueueCopyOp(ctx, *StreamOf(ctx, 0), size,
                              [dst, src, size](
                                  simgpu::GlobalMemory& memory) -> Status {
                                return memory.Copy(dst, src, size);
                              });
  GRD_RETURN_IF_ERROR(Dev(ctx).scheduler.Wait(ticket));
  return Writer{};
}

struct MemsetReq {
  std::uint64_t dst = 0;
  std::uint32_t value = 0;
  std::uint64_t size = 0;
};
Result<MemsetReq> DecodeMemset(Reader& req) {
  MemsetReq out;
  GRD_ASSIGN_OR_RETURN(out.dst, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.value, req.Get<std::uint32_t>());
  GRD_ASSIGN_OR_RETURN(out.size, req.Get<std::uint64_t>());
  return out;
}
Status ValidateMemset(HandlerContext& ctx, const MemsetReq& req) {
  return CheckTransfer(ctx, req.dst, req.size);
}
Result<Writer> ExecuteMemset(HandlerContext& ctx, MemsetReq& req) {
  GRD_RETURN_IF_ERROR(SyncOtherStreams(ctx));
  const std::uint64_t dst = req.dst;
  const auto value = static_cast<std::uint8_t>(req.value);
  const std::uint64_t size = req.size;
  auto ticket = EnqueueCopyOp(ctx, *StreamOf(ctx, 0), size,
                              [dst, value, size](
                                  simgpu::GlobalMemory& memory) -> Status {
                                return memory.Fill(dst, value, size);
                              });
  GRD_RETURN_IF_ERROR(Dev(ctx).scheduler.Wait(ticket));
  return Writer{};
}

// ---- modules / kernels ----------------------------------------------------

struct ModuleLoadReq {
  std::string ptx_text;
};
Result<ModuleLoadReq> DecodeModuleLoad(Reader& req) {
  ModuleLoadReq out;
  GRD_ASSIGN_OR_RETURN(out.ptx_text, req.GetString());
  return out;
}
// The programs of a module load, shared by the RPC handler and the adoption
// replay (which re-runs it on journaled PTX). `content_hash` is the source's
// HashPtxSource. With protection on, the content-addressed cache answers
// first: a hit costs the compare of the source against the cached one, and
// only a miss parses, validates, patches and compiles. Each worker process
// has its own cache, so an adopting worker builds a module once.
Result<ClientModule> BuildClientModule(ExecutionContext& exec,
                                       const std::string& ptx_text,
                                       std::uint64_t content_hash) {
  ClientModule module;
  if (exec.options.protection_enabled) {
    // Offline sandboxing (§4.3), served through the content-addressed cache:
    // N tenants loading identical PTX patch it once (§4.2.3 cost amortized).
    ptxpatcher::PatchOptions patch_options;
    patch_options.mode = exec.options.mode;
    patch_options.skip_statically_safe = exec.options.skip_statically_safe;
    patch_options.elision_enabled = exec.options.guard_elision_enabled;
    GRD_ASSIGN_OR_RETURN(SandboxCache::Lookup cached,
                         exec.sandbox_cache.GetOrPatch(
                             ptx_text, content_hash, patch_options));
    if (cached.patched_now) {
      ++exec.stats.ptx_modules_patched;
      // Guard-elision yield of this fresh patch (cache hits share the
      // already-counted module).
      exec.stats.guards_elided += cached.patch_stats.guards_elided;
    } else {
      ++exec.stats.ptx_cache_hits;
    }
    module.sandboxed_compiled = std::move(cached.compiled);
    // Mirror the cache's LRU accounting into the manager stats so operators
    // see evictions next to the hit/patch counters (monotone max: a racing
    // stale snapshot must never regress the published value).
    const auto& cache_stats = exec.sandbox_cache.stats();
    BumpCounterMax(exec.stats.sandbox_cache_evictions,
                   cache_stats.evictions.load(std::memory_order_relaxed));
    BumpCounterMax(
        exec.stats.sandbox_cache_bytes_reclaimed,
        cache_stats.bytes_reclaimed.load(std::memory_order_relaxed));
    if (cached.patched_now) {
      ++exec.stats.ptx_programs_compiled;
      exec.stats.superinstructions_fused +=
          module.sandboxed_compiled->superinstructions();
    }
  }
  if (!exec.options.protection_enabled ||
      exec.options.standalone_fast_path) {
    // A native (unfenced) launch is reachable: parse and compile the
    // unpatched kernels too, once at load, so the native path never
    // compiles per launch. This path is not cached.
    GRD_ASSIGN_OR_RETURN(ptx::Module native, ptx::Parse(ptx_text));
    GRD_RETURN_IF_ERROR(ptx::ValidateOrError(native));
    obs::ScopedSpan compile_span("module.compile.native");
    module.native_compiled = ptxexec::CompiledModule::Compile(native);
    ++exec.stats.ptx_programs_compiled;
    exec.stats.superinstructions_fused +=
        module.native_compiled->superinstructions();
  }
  return module;
}

Result<Writer> ExecuteModuleLoad(HandlerContext& ctx, ModuleLoadReq& req) {
  // One hash per load: the cache and the shared intern arena both key on it.
  const std::uint64_t content_hash = HashPtxSource(req.ptx_text);
  GRD_ASSIGN_OR_RETURN(
      ClientModule module,
      BuildClientModule(ctx.exec, req.ptx_text, content_hash));
  const std::uint64_t id = ctx.session->next_module++;
  if (SharedSessionJournal* journal = JournalOf(*ctx.session))
    journal->AddModule(*ctx.sessions.shared(), id, ctx.session->next_module,
                       req.ptx_text, content_hash);
  ctx.session->modules.emplace(id, std::move(module));
  Writer out;
  out.Put<std::uint64_t>(id);
  return out;
}

struct GetFunctionReq {
  std::uint64_t module = 0;
  std::string kernel;
};
Result<GetFunctionReq> DecodeGetFunction(Reader& req) {
  GetFunctionReq out;
  GRD_ASSIGN_OR_RETURN(out.module, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.kernel, req.GetString());
  return out;
}
Status ValidateGetFunction(HandlerContext& ctx, const GetFunctionReq& req) {
  const auto it = ctx.session->modules.find(req.module);
  if (it == ctx.session->modules.end())
    return InvalidArgument("unknown module");
  // A kernel that failed to compile still resolves here; its launch
  // returns the compile error. Only an absent name is NotFound.
  const auto kernel = it->second.program().Find(req.kernel);
  if (!kernel.ok() && kernel.status().code() == StatusCode::kNotFound)
    return kernel.status();
  return OkStatus();
}
Result<Writer> ExecuteGetFunction(HandlerContext& ctx, GetFunctionReq& req) {
  const std::uint64_t fn = ctx.session->next_function++;
  ctx.session->pointer_to_symbol[fn] = FunctionEntry{req.module, req.kernel};
  if (SharedSessionJournal* journal = JournalOf(*ctx.session))
    journal->AddFunction(fn, ctx.session->next_function, req.module,
                         req.kernel);
  Writer out;
  out.Put<std::uint64_t>(fn);
  return out;
}

struct LaunchReq {
  std::uint64_t fn = 0;
  std::uint64_t stream = 0;
  ptxexec::LaunchParams params;
};
Result<LaunchReq> DecodeLaunch(Reader& req) {
  LaunchReq out;
  GRD_ASSIGN_OR_RETURN(out.fn, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.params.grid.x, req.Get<std::uint32_t>());
  GRD_ASSIGN_OR_RETURN(out.params.grid.y, req.Get<std::uint32_t>());
  GRD_ASSIGN_OR_RETURN(out.params.grid.z, req.Get<std::uint32_t>());
  GRD_ASSIGN_OR_RETURN(out.params.block.x, req.Get<std::uint32_t>());
  GRD_ASSIGN_OR_RETURN(out.params.block.y, req.Get<std::uint32_t>());
  GRD_ASSIGN_OR_RETURN(out.params.block.z, req.Get<std::uint32_t>());
  GRD_ASSIGN_OR_RETURN(out.stream, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(std::uint32_t argc, req.Get<std::uint32_t>());
  // argc is attacker-controlled: bound it by the bytes actually present
  // (9 per arg) before reserving, or a hostile count makes the trusted
  // manager attempt a multi-GB allocation.
  constexpr std::uint32_t kBytesPerArg =
      sizeof(std::uint64_t) + sizeof(std::uint8_t);
  if (argc > req.remaining() / kBytesPerArg)
    return Status(OutOfRange("message truncated"));
  out.params.args.reserve(argc + 2);
  for (std::uint32_t i = 0; i < argc; ++i) {
    GRD_ASSIGN_OR_RETURN(std::uint64_t bits, req.Get<std::uint64_t>());
    GRD_ASSIGN_OR_RETURN(std::uint8_t size, req.Get<std::uint8_t>());
    out.params.args.push_back(ptxexec::KernelArg{bits, size});
  }
  return out;
}
Status ValidateLaunch(HandlerContext& ctx, const LaunchReq& req) {
  if (!ctx.session->streams.count(req.stream))
    return InvalidArgument("unknown stream");
  return OkStatus();
}

Result<GpuTicket> EnqueueKernelLaunch(HandlerContext& ctx, LaunchReq& req) {
  ExecutionContext& exec = ctx.exec;
  ClientSession& client = *ctx.session;
  ++exec.stats.launches;

  // (1) pointerToSymbol lookup (Table 5 "Lookup GPU kernel").
  const std::uint64_t lookup_begin = CycleClock::Now();
  const auto entry_it = client.pointer_to_symbol.find(req.fn);
  exec.stats.lookup_cycles += CycleClock::Now() - lookup_begin;
  if (entry_it == client.pointer_to_symbol.end())
    return Status(InvalidArgument("unknown kernel function handle"));
  const FunctionEntry& entry = entry_it->second;
  const ClientModule& module = client.modules.at(entry.module);

  // (2) build the kernel body the executor pool will run. Everything it
  // touches is captured by value or owned via shared_ptr: the session mutex
  // is NOT held on the executor, and the session's partition may even grow
  // after this enqueue (CUDA async semantics — the launch-time view rules).
  // A preempted body is re-invoked later with the same captured state;
  // LaunchState carries what must survive those suspension cycles.
  struct LaunchState {
    ptxexec::KernelCheckpoint checkpoint;
    bool augmented = false;          // mask/base args appended exactly once
    bool counted = false;            // native/sandboxed counted exactly once
    bool budget_requeue_used = false;
    bool queue_span_emitted = false; // queue-wait span closes exactly once
    std::uint32_t exec_segments = 0; // span per (re)invocation of the body
    // Resolved programs, memoized per flavor so a preempted kernel's
    // resumes skip the by-name lookup (the native/sandboxed choice itself
    // stays per-invocation: the tenant count can change while suspended).
    std::shared_ptr<const ptxexec::CompiledKernel> native_program;
    std::shared_ptr<const ptxexec::CompiledKernel> sandboxed_program;
  };
  ExecutionContext* exec_ptr = &exec;
  SessionRegistry* sessions = &ctx.sessions;
  DeviceState& enqueue_dev =
      exec.device(client.device_id.load(std::memory_order_relaxed));
  const int footprint =
      simgpu::SmFootprint(enqueue_dev.gpu->spec(), req.params.grid.Count(),
                          req.params.block.Count());
  // Trace anchors for the executor-side spans: the launch request's context
  // and the enqueue timestamp (all zero when tracing is off).
  const obs::TraceContext launch_ctx =
      obs::TraceRecorder::Instance().enabled() ? obs::CurrentContext()
                                               : obs::TraceContext{};
  const std::uint64_t enqueue_ns =
      launch_ctx.valid() ? obs::MonotonicNowNs() : 0;

  // Journal mirror (process mode, preemption on): at most one in-flight
  // kernel per session is replayable across a worker death. Arm the mirror
  // when it is idle; an unmirrored launch is simply lost on a crash and the
  // supervisor's synthetic error response tells the client to retry it.
  // `mirror` is non-null iff this launch owns the mirror.
  auto state = std::make_shared<LaunchState>();
  SharedSessionJournal* mirror = nullptr;
  SharedSessionJournal* journal = JournalOf(client);
  if (journal != nullptr && exec.options.preemption_enabled) {
    if (client.resume_pending) {
      // Adoption left the dead owner's mirror armed; if the retried launch
      // is the mirrored kernel, prepopulate the checkpoint so RunGrid skips
      // every block that already completed. A non-matching first launch
      // drops the stale mirror (that kernel is lost; the client moved on).
      client.resume_pending = false;
      if (journal->MatchLaunch(req.fn, req.stream, req.params)) {
        mirror = journal;
        state->checkpoint = journal->LoadLaunch();
        if (state->checkpoint.valid)
          exec.stats.checkpoint_kernels_resumed.fetch_add(
              1, std::memory_order_relaxed);
      } else {
        journal->DisarmLaunch();
      }
    }
    if (mirror == nullptr &&
        journal->ArmLaunch(req.fn, req.stream, req.params))
      mirror = journal;
  }
  auto body = [exec_ptr, sessions, session = ctx.session_ref, launch_ctx,
               enqueue_ns, mirror, native_compiled = module.native_compiled,
               sandboxed_compiled = module.sandboxed_compiled,
               kernel = entry.kernel, params = std::move(req.params),
               partition = client.partition, footprint,
               state](KernelSlot& slot) mutable -> Status {
    ExecutionContext& ex = *exec_ptr;
    // Resolve the device per invocation: a migration can move the session
    // while this kernel sits queued (or suspended), and its memory moved
    // with it.
    DeviceState& dev =
        ex.device(session->device_id.load(std::memory_order_acquire));
    // Native-vs-sandboxed is decided at execution time: with queued work,
    // the tenant count at enqueue is stale by the time the kernel runs.
    // A native run holds native_mu shared so registration can fence it
    // (see ExecuteRegister); a suspended kernel drops it, so it can never
    // fence out a registration across a preemption. The guard deliberately
    // covers the per-block device-time sleeps below: dilated time models
    // the kernel being *resident* on the device, and an unfenced kernel
    // must not be modeled-resident while a new tenant's partition goes
    // live.
    std::shared_lock<std::shared_mutex> native_guard(ex.native_mu,
                                                     std::defer_lock);
    bool use_native = !ex.options.protection_enabled;
    if (!use_native && ex.options.standalone_fast_path) {
      native_guard.lock();
      if (sessions->size() == 1)
        use_native = true;
      else
        native_guard.unlock();
    }

    if (!use_native && !state->augmented) {
      // (3) augment the parameter array with mask and base (Table 5
      // "Augment kernel params", §4.2.3).
      const std::uint64_t augment_begin = CycleClock::Now();
      const auto grd_args = ptxpatcher::ComputeGrdArgs(
          ex.options.mode, partition.base, partition.size);
      params.args.push_back(ptxexec::KernelArg::U64(grd_args.arg0));
      params.args.push_back(ptxexec::KernelArg::U64(grd_args.arg1));
      ex.stats.augment_cycles += CycleClock::Now() - augment_begin;
      state->augmented = true;
    }
    if (!state->counted) {
      state->counted = true;
      if (use_native)
        ++ex.stats.native_launches;
      else
        ++ex.stats.sandboxed_launches;
    }

    // (4) run the kernel: the bytecode program compiled at module-load time
    // (sandboxed programs come from the content-addressed cache, so repeat
    // tenants skip parse, patch AND compile). Device-side protection comes
    // from the sandboxed PTX itself; the manager's single context sees the
    // whole device, and co-resident kernels share it under the scheduler's
    // occupancy model, with no per-access policy (the null policy). The run
    // is preemptible: the interpreter polls the slot's revocation flag and
    // can suspend at a block boundary into state->checkpoint; modeled device
    // time dilates per executed block, which is what bounds preemption
    // latency to roughly one block.
    ptxexec::Interpreter interpreter(&dev.gpu->memory(), nullptr,
                                     session->id);
    interpreter.set_max_instructions_per_thread(
        ex.options.max_kernel_instructions);
    ptxexec::ExecControls controls;
    controls.preempt_requested = slot.preempt_requested;
    controls.preempt_check_interval = ex.options.preempt_check_interval;
    if (ex.options.preemption_enabled)
      controls.checkpoint = &state->checkpoint;
    // Per-block dilation models each block as its 1/N share of the whole
    // kernel under the occupancy model (inputs scaled to the full grid,
    // result divided by it): co-resident blocks are NOT serialized, so the
    // summed sleeps reproduce the same total the old end-of-run dilation
    // charged, just at block granularity.
    const std::uint64_t grid_blocks = std::max<std::uint64_t>(
        1, params.grid.Count());
    // Tracing: close the queue-wait span on the first segment, then open a
    // per-segment execution span. The 'B' record is committed eagerly so a
    // worker killed mid-kernel still leaves evidence behind; the closing
    // 'X' record replaces it in the export when the segment finishes.
    obs::TraceRecorder& recorder = obs::TraceRecorder::Instance();
    obs::TraceContext exec_ctx{};
    std::uint64_t exec_begin_ns = 0;
    char exec_name[obs::SpanRecord::kNameCap + 1] = {0};
    if (recorder.enabled() && launch_ctx.valid()) {
      exec_begin_ns = obs::MonotonicNowNs();
      if (!state->queue_span_emitted) {
        state->queue_span_emitted = true;
        recorder.EmitComplete(
            "queue.wait",
            obs::TraceContext{launch_ctx.trace_id, obs::NewSpanId()},
            launch_ctx.span_id, enqueue_ns, exec_begin_ns);
      }
      // Trace readers (guardbench, CI) match the "exec.t2." shape.
      std::snprintf(exec_name, sizeof(exec_name), "exec.t2.%s",
                    kernel.c_str());
      exec_ctx = obs::TraceContext{launch_ctx.trace_id, obs::NewSpanId()};
      recorder.EmitBegin(exec_name, exec_ctx, launch_ctx.span_id,
                         exec_begin_ns, state->exec_segments);
      ++state->exec_segments;
    }
    // Outcome codes for the closing span: 0 ok, 1 preempted, 2 budget
    // requeue, 3 fault.
    auto end_exec_span = [&](std::uint64_t instructions,
                             std::uint64_t outcome) {
      if (!exec_ctx.valid()) return;
      recorder.EmitComplete(exec_name, exec_ctx, launch_ctx.span_id,
                            exec_begin_ns, obs::MonotonicNowNs(),
                            instructions, outcome);
    };
    controls.after_block = [&ex, &dev, footprint, grid_blocks, mirror,
                            state_raw = state.get()](
                               const ptxexec::ExecStats& delta) {
      // Mirrored kernels defer the global block counter to completion (the
      // journal bitmap is the single authority for what ran): a SIGKILL
      // landing between a per-block bump and the mirror store could
      // otherwise skew kernel_blocks_executed by one — the dead worker
      // contributes nothing here, and the resumed run counts the whole
      // grid exactly once when it finishes.
      if (mirror == nullptr)
        ex.stats.kernel_blocks_executed.fetch_add(1,
                                                  std::memory_order_relaxed);
      ex.stats.tier_instructions[2].fetch_add(delta.instructions,
                                              std::memory_order_relaxed);
      ex.stats.lockstep_phases.fetch_add(delta.lockstep_phases,
                                         std::memory_order_relaxed);
      for (std::size_t cause = 0; cause < ptxexec::kReplayCauses; ++cause) {
        if (delta.replayed_phases[cause] != 0)
          ex.stats.replayed_phases[cause].fetch_add(
              delta.replayed_phases[cause], std::memory_order_relaxed);
      }
      // RunGrid marks the block done before this hook fires, so the
      // mirrored bitmap never claims an unfinished block; a crash between
      // MarkDone and this store merely re-runs that one block.
      if (mirror != nullptr) mirror->PublishLaunch(state_raw->checkpoint);
      SimulateDeviceCycles(
          ex, simgpu::KernelDeviceCycles(
                  dev.gpu->spec(), delta.instructions * grid_blocks,
                  (delta.global_loads + delta.global_stores) * grid_blocks,
                  delta.threads * grid_blocks, footprint) /
                  static_cast<double>(grid_blocks));
    };
    Result<ptxexec::ExecStats> run = ptxexec::ExecStats{};
    auto& program =
        use_native ? state->native_program : state->sandboxed_program;
    if (program == nullptr) {
      const auto& program_module =
          use_native ? native_compiled : sandboxed_compiled;
      if (program_module == nullptr) {
        run = Status(Internal("no compiled program for kernel " + kernel));
      } else {
        auto found = program_module->Find(kernel);
        if (found.ok())
          program = std::move(*found);
        else
          run = found.status();
      }
    }
    if (program != nullptr) {
      slot.program = program;
      run = interpreter.Execute(*program, params, controls);
    }
    if (native_guard.owns_lock()) native_guard.unlock();
    if (!run.ok()) {
      if (ptxexec::IsPreempted(run.status())) {
        // Revoked at a safe point for a higher-priority tenant: hand the
        // checkpoint accounting to the scheduler, which requeues the item.
        slot.preempted = true;
        slot.checkpoint_bytes = state->checkpoint.SizeBytes();
        end_exec_span(0, 1);
        return run.status();
      }
      if (run.status().code() == StatusCode::kDeadlineExceeded &&
          ex.options.preemption_enabled && !state->budget_requeue_used) {
        // Instruction-budget kill demoted to last resort: revoke-and-
        // requeue once (completed blocks are kept); only a second trip
        // fails the client.
        state->budget_requeue_used = true;
        slot.preempted = true;
        slot.budget_trip = true;
        slot.checkpoint_bytes = state->checkpoint.SizeBytes();
        dev.scheduler.preemption().RecordBudgetRequeue();
        GRD_LOG_WARN("grdManager")
            << "client " << session->id << " kernel " << kernel
            << " tripped the instruction budget; revoking and requeueing "
               "once before failing";
        end_exec_span(0, 2);
        return run.status();
      }
      // Fault isolation: only the faulting client is terminated (§5 "OOB
      // fault isolation"); co-running clients are untouched. The counter is
      // bumped before the failed flag becomes visible so an observer that
      // sees the session failed also sees the fault counted.
      ++ex.stats.faults_contained;
      // A faulted kernel is never replayed; release the mirror slot after
      // settling the deferred block count with what actually ran.
      if (mirror != nullptr) {
        std::uint64_t done = 0;
        for (const std::uint64_t word : state->checkpoint.done_bitmap)
          done += static_cast<std::uint64_t>(__builtin_popcountll(word));
        ex.stats.kernel_blocks_executed.fetch_add(done,
                                                  std::memory_order_relaxed);
        mirror->DisarmLaunch();
      }
      session->failed.store(true, std::memory_order_release);
      GRD_LOG_WARN("grdManager")
          << "device fault in client " << session->id << " kernel " << kernel
          << ": " << run.status().ToString();
      end_exec_span(0, 3);
      return run.status();
    }
    if (mirror != nullptr) {
      // Deferred block accounting (see after_block): one exact grid's worth
      // on completion, covering blocks executed before any crash/migration
      // checkpoint as well as the resumed remainder.
      ex.stats.kernel_blocks_executed.fetch_add(params.grid.Count(),
                                                std::memory_order_relaxed);
      mirror->DisarmLaunch();
    }
    end_exec_span(run->instructions, 0);
    return OkStatus();
  };

  auto ticket = enqueue_dev.scheduler.EnqueuePreemptibleKernel(
      *client.streams.at(req.stream), std::move(body), footprint);
  ++exec.stats.kernels_enqueued;
  return ticket;
}

Result<Writer> ExecuteLaunch(HandlerContext& ctx, LaunchReq& req) {
  // Legacy default-stream semantics: the launch is ordered after the
  // session's other streams and the RPC completes (reporting faults)
  // synchronously. Non-default streams are truly async; their faults
  // surface at the next synchronization point.
  if (req.stream == 0) GRD_RETURN_IF_ERROR(SyncOtherStreams(ctx));
  GRD_ASSIGN_OR_RETURN(GpuTicket ticket, EnqueueKernelLaunch(ctx, req));
  if (req.stream == 0) GRD_RETURN_IF_ERROR(Dev(ctx).scheduler.Wait(ticket));
  return Writer{};
}

// ---- streams / events -----------------------------------------------------

Result<Writer> ExecuteStreamCreate(HandlerContext& ctx, NoPayload&) {
  const std::uint64_t id = ctx.session->next_stream++;
  // New streams inherit the session's priority class (kSetPriority scope 0).
  const auto priority =
      ctx.session->default_priority.load(std::memory_order_relaxed);
  ctx.session->streams[id] = Dev(ctx).scheduler.CreateStream(priority);
  if (SharedSessionJournal* journal = JournalOf(*ctx.session))
    journal->AddStream(id, ctx.session->next_stream, priority);
  Writer out;
  out.Put<std::uint64_t>(id);
  return out;
}

// ---- priority classes (preemption engine) ---------------------------------

struct SetPriorityReq {
  std::uint8_t scope = 0;  // 0 = whole session, 1 = one stream
  std::uint64_t stream = 0;
  std::uint8_t priority = 0;
};
Result<SetPriorityReq> DecodeSetPriority(Reader& req) {
  SetPriorityReq out;
  GRD_ASSIGN_OR_RETURN(out.scope, req.Get<std::uint8_t>());
  GRD_ASSIGN_OR_RETURN(out.stream, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.priority, req.Get<std::uint8_t>());
  return out;
}
Status ValidateSetPriority(HandlerContext& ctx, const SetPriorityReq& req) {
  if (req.scope > 1)
    return InvalidArgument("unknown priority scope " +
                           std::to_string(req.scope));
  if (!protocol::IsValidPriorityClass(req.priority))
    return InvalidArgument("unknown priority class " +
                           std::to_string(req.priority));
  if (req.scope == 1 && !ctx.session->streams.count(req.stream))
    return InvalidArgument("unknown stream");
  return OkStatus();
}
Result<Writer> ExecuteSetPriority(HandlerContext& ctx, SetPriorityReq& req) {
  const auto cls = static_cast<protocol::PriorityClass>(req.priority);
  SharedSessionSlot* slot = ctx.session->shared_slot;
  if (req.scope == 1) {
    Dev(ctx).scheduler.SetStreamPriority(*StreamOf(ctx, req.stream), cls);
  } else {
    ctx.session->default_priority.store(cls, std::memory_order_relaxed);
    // Adoption creates the rebuilt session's default stream at this class.
    if (slot != nullptr)
      slot->priority.store(static_cast<std::uint32_t>(cls),
                           std::memory_order_release);
    for (auto& [id, stream] : ctx.session->streams)
      Dev(ctx).scheduler.SetStreamPriority(*stream, cls);
  }
  if (slot != nullptr)
    slot->journal.SetStreamPriority(
        req.scope == 1 ? req.stream : SharedSessionJournal::kAllStreams, cls);
  GRD_LOG_INFO("grdManager") << "client " << ctx.session->id << " set "
                             << (req.scope == 1 ? "stream" : "session")
                             << " priority to "
                             << protocol::PriorityClassName(cls);
  return Writer{};
}

Result<Writer> ExecuteStreamDestroy(HandlerContext& ctx, IdReq& req) {
  if (req.id == 0)
    return Status(InvalidArgument("cannot destroy default stream"));
  const auto it = ctx.session->streams.find(req.id);
  if (it == ctx.session->streams.end())
    return Status(InvalidArgument("unknown stream"));
  // Drain-then-retire: queued work completes (or fails) before the handle
  // disappears, so nothing is orphaned and EventRecord on this stream from
  // now on is InvalidArgument.
  GRD_RETURN_IF_ERROR(Dev(ctx).scheduler.DestroyStream(*it->second));
  ctx.session->streams.erase(it);
  if (SharedSessionJournal* journal = JournalOf(*ctx.session))
    journal->RemoveStream(req.id);
  return Writer{};
}

Result<Writer> ExecuteStreamSynchronize(HandlerContext& ctx, IdReq& req) {
  GRD_RETURN_IF_ERROR(
      Dev(ctx).scheduler.SynchronizeStream(*StreamOf(ctx, req.id)));
  return Writer{};
}

Result<Writer> ExecuteStreamCaptureQuery(HandlerContext&, IdReq&) {
  Writer out;
  out.Put<std::uint64_t>(0);  // not capturing / capture id 0
  return out;
}

struct EventCreateReq {
  std::uint32_t flags = 0;
};
Result<EventCreateReq> DecodeEventCreate(Reader& req) {
  EventCreateReq out;
  GRD_ASSIGN_OR_RETURN(out.flags, req.Get<std::uint32_t>());
  return out;
}
Result<Writer> ExecuteEventCreate(HandlerContext& ctx, EventCreateReq& req) {
  const std::uint64_t id = ctx.session->next_event++;
  ctx.session->events[id] = std::make_shared<GpuEvent>(req.flags);
  if (SharedSessionJournal* journal = JournalOf(*ctx.session))
    journal->SetNextEvent(ctx.session->next_event);
  Writer out;
  out.Put<std::uint64_t>(id);
  return out;
}

Result<Writer> ExecuteEventDestroy(HandlerContext& ctx, IdReq& req) {
  if (ctx.session->events.erase(req.id) == 0)
    return Status(InvalidArgument("unknown event"));
  return Writer{};
}

struct EventStreamReq {
  std::uint64_t event = 0;
  std::uint64_t stream = 0;
};
Result<EventStreamReq> DecodeEventStream(Reader& req) {
  EventStreamReq out;
  GRD_ASSIGN_OR_RETURN(out.event, req.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(out.stream, req.Get<std::uint64_t>());
  return out;
}
Status ValidateEventStream(HandlerContext& ctx, const EventStreamReq& req) {
  if (!ctx.session->events.count(req.event) ||
      !ctx.session->streams.count(req.stream))
    return InvalidArgument("unknown event or stream");
  return OkStatus();
}
Result<Writer> ExecuteEventRecord(HandlerContext& ctx, EventStreamReq& req) {
  Dev(ctx).scheduler.RecordEvent(*StreamOf(ctx, req.stream),
                                 *ctx.session->events.at(req.event));
  return Writer{};
}

Result<Writer> ExecuteStreamWaitEvent(HandlerContext& ctx,
                                      EventStreamReq& req) {
  Dev(ctx).scheduler.EnqueueWaitEvent(*StreamOf(ctx, req.stream),
                                      *ctx.session->events.at(req.event));
  return Writer{};
}

Status ValidateKnownEvent(HandlerContext& ctx, const IdReq& req) {
  if (!ctx.session->events.count(req.id))
    return InvalidArgument("unknown event");
  return OkStatus();
}
Result<Writer> ExecuteEventSynchronize(HandlerContext& ctx, IdReq& req) {
  GRD_RETURN_IF_ERROR(
      Dev(ctx).scheduler.SynchronizeEvent(*ctx.session->events.at(req.id)));
  return Writer{};
}

Result<Writer> ExecuteDeviceSynchronize(HandlerContext& ctx, NoPayload&) {
  // CUDA semantics scoped to the tenant: drain every stream this session
  // owns; the first sticky error (e.g. an async kernel fault) surfaces here.
  Status first;
  for (auto& [id, stream] : ctx.session->streams) {
    const Status s = Dev(ctx).scheduler.SynchronizeStream(*stream);
    if (!s.ok() && first.ok()) first = s;
  }
  GRD_RETURN_IF_ERROR(first);
  return Writer{};
}

// ---- batched IPC ----------------------------------------------------------

// Ops grdLib may coalesce into one kBatch message: asynchronous calls whose
// responses carry no payload the client needs before its next call.
bool IsBatchable(Op op) {
  switch (op) {
    case Op::kLaunchKernel:
    case Op::kMemcpyH2DAsync:
    case Op::kEventRecord:
    case Op::kStreamWaitEvent:
      return true;
    default:
      return false;
  }
}

// Raw-pipeline handler: decodes the envelope, re-dispatches each
// sub-request through the registry under the already-held session lock, and
// stops at the first failure so a client cannot run work past an error it
// has not seen yet.
//
// Response envelope (u8 form discriminator):
//  - form 1 (compacted): every sub-op succeeded with an empty payload; only
//    the executed count follows. Batchable ops are exactly the async calls
//    whose success responses carry nothing, so an all-OK batch — the common
//    case by far — answers in 5 bytes instead of count full responses.
//  - form 0 (full): executed count + one encoded response per executed op
//    (at most the last one an error; later ops never ran).
// Automatic live-migration trigger, evaluated on every batch arrival (the
// hot path of a busy client): when this session's device has a deep queue
// while another device sits completely idle, move the session there. Batch
// arrival is the one point where the session mutex is held, no kernel of
// the session is mid-decode, and the client is demonstrably still active.
void MaybeMigrateSession(HandlerContext& ctx) {
  ExecutionContext& exec = ctx.exec;
  if (exec.device_count() < 2 || exec.options.migrate_queue_threshold == 0)
    return;
  const std::uint32_t current =
      ctx.session->device_id.load(std::memory_order_relaxed);
  if (exec.device(current).scheduler.queue_depth() <
      exec.options.migrate_queue_threshold)
    return;
  std::uint32_t target = current;
  for (std::uint32_t i = 0; i < exec.device_count(); ++i)
    if (i != current && exec.device(i).scheduler.queue_depth() == 0) {
      target = i;
      break;
    }
  if (target == current) return;  // nobody idle: migration would not help
  {
    // Address-exact re-attach is a hard requirement; when the range is
    // occupied on the idle device the trigger just never fires — silently,
    // since this runs on the serving hot path.
    DeviceState& dst = exec.device(target);
    std::lock_guard<std::mutex> lock(dst.partition_mu);
    if (!dst.partitions.CanAttachAt(ctx.session->partition.base,
                                    ctx.session->partition.size))
      return;
  }
  const Status moved = MigrateSession(exec, ctx.session_ref, target);
  if (!moved.ok())
    GRD_LOG_WARN("grdManager")
        << "migration of client " << ctx.session->id << " to device "
        << target << " failed: " << moved.ToString();
}

Result<Writer> RunBatch(HandlerContext& ctx, Reader& req) {
  GRD_ASSIGN_OR_RETURN(std::uint32_t count, req.Get<std::uint32_t>());
  if (count == 0 || count > protocol::kMaxBatchOps)
    return Status(InvalidArgument("batch of " + std::to_string(count) +
                                  " sub-requests (limit " +
                                  std::to_string(protocol::kMaxBatchOps) +
                                  ")"));
  ++ctx.exec.stats.batches_decoded;
  MaybeMigrateSession(ctx);
  std::vector<ipc::Bytes> responses;
  responses.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    GRD_ASSIGN_OR_RETURN(ipc::Bytes sub_bytes, req.GetBlob());
    Reader sub(sub_bytes);
    ipc::Bytes response;
    auto header = protocol::ReadHeader(sub);
    if (!header.ok()) {
      response = protocol::EncodeError(header.status());
    } else if (header->client != ctx.session->id) {
      response = protocol::EncodeError(
          PermissionDenied("batch sub-request for another client"));
    } else if (!IsBatchable(header->op)) {
      response = protocol::EncodeError(
          InvalidArgument("opcode not allowed in a batch"));
    } else {
      const HandlerDescriptor* descriptor = ctx.dispatcher->Find(header->op);
      if (descriptor == nullptr) {
        response = protocol::EncodeError(Unimplemented("unknown op"));
      } else {
        ++ctx.exec.stats.batched_ops;
        // Each sub-request was stamped with its own trace context at
        // buffering time; dispatch it under that context so its spans do
        // not fold into the envelope's request span.
        obs::ContextScope sub_scope(header->trace);
        obs::ScopedSpan sub_span(descriptor->name.c_str(), ctx.session->id);
        auto out = descriptor->run(ctx, sub);
        response = out.ok() ? protocol::EncodeOk(std::move(*out))
                            : protocol::EncodeError(out.status());
      }
    }
    const bool failed = response.empty() || response[0] == 0;
    responses.push_back(std::move(response));
    if (failed) break;  // abort-on-first-error: later sub-ops never ran
  }
  // All-OK batches with payload-free responses compact to a count.
  bool compactable = responses.size() == count;
  for (const auto& response : responses)
    compactable = compactable && response.size() == 1 && response[0] == 1;
  Writer out;
  if (compactable) {
    ++ctx.exec.stats.batch_responses_compacted;
    out.Put<std::uint8_t>(1);
    out.Put<std::uint32_t>(static_cast<std::uint32_t>(responses.size()));
    return out;
  }
  out.Put<std::uint8_t>(0);
  out.Put<std::uint32_t>(static_cast<std::uint32_t>(responses.size()));
  for (const auto& response : responses)
    out.PutBlob(response.data(), response.size());
  return out;
}

// ---- introspection --------------------------------------------------------

struct ExportTableReq {
  std::uint8_t id = 0;
};
Result<ExportTableReq> DecodeExportTable(Reader& req) {
  ExportTableReq out;
  GRD_ASSIGN_OR_RETURN(out.id, req.Get<std::uint8_t>());
  return out;
}
Status ValidateExportTable(HandlerContext&, const ExportTableReq& req) {
  if (req.id >= simcuda::kExportTableCount)
    return NotFound("unknown export table");
  return OkStatus();
}
Result<Writer> ExecuteExportTable(HandlerContext&, ExportTableReq& req) {
  const auto& table = simcuda::BuiltinExportTables()[req.id];
  Writer out;
  out.Put<std::uint8_t>(req.id);
  out.Put<std::uint32_t>(static_cast<std::uint32_t>(table.entries.size()));
  for (const auto& entry : table.entries) out.PutString(entry.name);
  return out;
}

// kResumeSession: attach-first crash recovery. The client probes whether
// its session survived its worker's death via adoption before paying the
// full re-register + module-replay fallback. A replacement worker adopts
// every session promised to it before serving anything, so the session is
// here or it is gone. Sessionless: a lost session's id must still reach
// this handler.
Result<Writer> ExecuteResumeSession(HandlerContext& ctx, IdReq& req) {
  auto found = ctx.sessions.Find(req.id);
  if (!found.ok())
    return Status(NotFound("session " + std::to_string(req.id) +
                           " was not adopted; re-register"));
  const std::shared_ptr<ClientSession>& session = *found;
  Writer out;
  out.Put<std::uint64_t>(session->id);
  out.Put<std::uint64_t>(session->partition.base);
  out.Put<std::uint64_t>(session->partition.size);
  out.Put<std::uint32_t>(session->device_id.load(std::memory_order_relaxed));
  return out;
}

Result<Writer> ExecuteGetDeviceSpec(HandlerContext& ctx, NoPayload&) {
  const auto& spec = Dev(ctx).gpu->spec();
  Writer out;
  out.PutString(spec.name);
  out.PutString(spec.compute_capability);
  out.Put<std::int32_t>(spec.sms);
  out.Put<std::int32_t>(spec.cuda_cores);
  out.Put<std::int32_t>(spec.l1_kb);
  out.Put<std::int32_t>(spec.l2_kb);
  out.Put<std::uint64_t>(spec.global_mem_bytes);
  return out;
}

Result<Writer> ExecuteGrowPartition(HandlerContext& ctx, NoPayload&) {
  ClientSession& client = *ctx.session;
  DeviceState& dev = Dev(ctx);
  PartitionBounds grown;
  {
    std::lock_guard<std::mutex> lock(dev.partition_mu);
    GRD_ASSIGN_OR_RETURN(grown,
                         dev.partitions.GrowPartition(client.partition.base));
  }
  // The added upper half may hold a departed tenant's bytes.
  GRD_RETURN_IF_ERROR(dev.gpu->memory().Zero(grown.base + grown.size / 2,
                                             grown.size / 2));
  client.partition = grown;
  // Adoption rebuilds the partition at its grown size.
  if (SharedSessionSlot* slot = client.shared_slot)
    slot->partition_size.store(grown.size, std::memory_order_release);
  GRD_LOG_INFO("grdManager") << "client " << client.id
                             << " partition grown to " << grown.size
                             << " bytes";
  Writer out;
  out.Put<std::uint64_t>(grown.base);
  out.Put<std::uint64_t>(grown.size);
  return out;
}

}  // namespace

void RegisterBuiltinHandlers(Dispatcher& d) {
  const auto session = SessionPolicy::kRequired;
  const auto sessionless = SessionPolicy::kNotRequired;

  d.Register<IdReq>(Op::kRegisterClient, "RegisterClient", sessionless,
                    DecodeRegister, nullptr, ExecuteRegister);
  d.Register<NoPayload>(Op::kDisconnect, "Disconnect", session, DecodeNone,
                        nullptr, ExecuteDisconnect);

  d.Register<IdReq>(Op::kMalloc, "Malloc", session, DecodeId, nullptr,
                    ExecuteMalloc);
  d.Register<IdReq>(Op::kFree, "Free", session, DecodeId, nullptr,
                    ExecuteFree);
  d.Register<MemcpyH2DReq>(Op::kMemcpyH2D, "MemcpyH2D", session,
                           DecodeMemcpyH2D, ValidateMemcpyH2D,
                           ExecuteMemcpyH2D);
  d.Register<MemcpyH2DAsyncReq>(Op::kMemcpyH2DAsync, "MemcpyH2DAsync",
                                session, DecodeMemcpyH2DAsync,
                                ValidateMemcpyH2DAsync, ExecuteMemcpyH2DAsync);
  d.Register<RangeReq>(Op::kMemcpyD2H, "MemcpyD2H", session, DecodeRange,
                       ValidateRange, ExecuteMemcpyD2H);
  d.Register<MemcpyD2DReq>(Op::kMemcpyD2D, "MemcpyD2D", session,
                           DecodeMemcpyD2D, ValidateMemcpyD2D,
                           ExecuteMemcpyD2D);
  d.Register<MemsetReq>(Op::kMemset, "Memset", session, DecodeMemset,
                        ValidateMemset, ExecuteMemset);

  d.Register<ModuleLoadReq>(Op::kModuleLoadData, "ModuleLoadData", session,
                            DecodeModuleLoad, nullptr, ExecuteModuleLoad);
  d.Register<GetFunctionReq>(Op::kModuleGetFunction, "ModuleGetFunction",
                             session, DecodeGetFunction, ValidateGetFunction,
                             ExecuteGetFunction);
  d.Register<LaunchReq>(Op::kLaunchKernel, "LaunchKernel", session,
                        DecodeLaunch, ValidateLaunch, ExecuteLaunch);

  d.Register<NoPayload>(Op::kStreamCreate, "StreamCreate", session,
                        DecodeNone, nullptr, ExecuteStreamCreate);
  d.Register<SetPriorityReq>(Op::kSetPriority, "SetPriority", session,
                             DecodeSetPriority, ValidateSetPriority,
                             ExecuteSetPriority);
  d.Register<IdReq>(Op::kStreamDestroy, "StreamDestroy", session, DecodeId,
                    nullptr, ExecuteStreamDestroy);
  d.Register<IdReq>(Op::kStreamSynchronize, "StreamSynchronize", session,
                    DecodeId, ValidateKnownStream, ExecuteStreamSynchronize);
  d.Register<IdReq>(Op::kStreamIsCapturing, "StreamIsCapturing", session,
                    DecodeId, ValidateKnownStream, ExecuteStreamCaptureQuery);
  d.Register<IdReq>(Op::kStreamGetCaptureInfo, "StreamGetCaptureInfo",
                    session, DecodeId, ValidateKnownStream,
                    ExecuteStreamCaptureQuery);

  d.Register<EventCreateReq>(Op::kEventCreate, "EventCreate", session,
                             DecodeEventCreate, nullptr, ExecuteEventCreate);
  d.Register<IdReq>(Op::kEventDestroy, "EventDestroy", session, DecodeId,
                    nullptr, ExecuteEventDestroy);
  d.Register<EventStreamReq>(Op::kEventRecord, "EventRecord", session,
                             DecodeEventStream, ValidateEventStream,
                             ExecuteEventRecord);
  d.Register<EventStreamReq>(Op::kStreamWaitEvent, "StreamWaitEvent", session,
                             DecodeEventStream, ValidateEventStream,
                             ExecuteStreamWaitEvent);
  d.Register<IdReq>(Op::kEventSynchronize, "EventSynchronize", session,
                    DecodeId, ValidateKnownEvent, ExecuteEventSynchronize);
  d.Register<NoPayload>(Op::kDeviceSynchronize, "DeviceSynchronize", session,
                        DecodeNone, nullptr, ExecuteDeviceSynchronize);

  HandlerDescriptor batch;
  batch.name = "Batch";
  batch.session = SessionPolicy::kRequired;
  batch.run = RunBatch;
  d.Register(Op::kBatch, std::move(batch));

  d.Register<ExportTableReq>(Op::kGetExportTable, "GetExportTable", session,
                             DecodeExportTable, ValidateExportTable,
                             ExecuteExportTable);
  d.Register<NoPayload>(Op::kGetDeviceSpec, "GetDeviceSpec", session,
                        DecodeNone, nullptr, ExecuteGetDeviceSpec);
  d.Register<NoPayload>(Op::kGrowPartition, "GrowPartition", session,
                        DecodeNone, nullptr, ExecuteGrowPartition);
  d.Register<IdReq>(Op::kResumeSession, "ResumeSession", sessionless,
                    DecodeId, nullptr, ExecuteResumeSession);
}

namespace {

// Rebuilds the session in `slot` from its journal (see
// AdoptPendingSessions). A failure leaves nothing installed.
Status AdoptJournaledSession(ExecutionContext& exec, SessionRegistry& sessions,
                             SharedServingState* shared,
                             SharedSessionSlot* slot) {
  const std::uint64_t client = slot->client.load(std::memory_order_acquire);
  // A session that outgrew the journal caps cannot be rebuilt.
  if (slot->journal.truncated.load(std::memory_order_acquire) != 0)
    return Unavailable("session " + std::to_string(client) +
                       " outgrew its journal");

  const SharedSessionJournal::Entries journal = slot->journal.Live();
  const std::uint32_t device_id = slot->device.load(std::memory_order_acquire);
  DeviceState& dev = exec.device(device_id);
  const PartitionBounds bounds{
      slot->partition_base.load(std::memory_order_relaxed),
      slot->partition_size.load(std::memory_order_acquire)};

  // Partition first, at its exact prior bounds, with every live cudaMalloc
  // re-claimed address-exact: device pointers the client still holds stay
  // valid and later mallocs cannot land on top of them.
  {
    std::lock_guard<std::mutex> lock(dev.partition_mu);
    GRD_RETURN_IF_ERROR(
        dev.partitions.CreatePartitionAt(bounds.base, bounds.size).status());
    for (const auto& alloc : journal.allocs) {
      const Status replayed =
          dev.partitions.AllocateExactIn(bounds.base, alloc.addr, alloc.size);
      if (!replayed.ok()) {
        (void)dev.partitions.ReleasePartition(bounds.base);
        return replayed;
      }
    }
  }

  // Replay every fallible piece before touching the registry, so a failure
  // leaves no half-installed session behind.
  std::vector<std::pair<std::uint64_t, ClientModule>> modules;
  for (const auto& entry : journal.modules) {
    auto replay = [&]() -> Status {
      GRD_ASSIGN_OR_RETURN(std::string ptx, shared->PtxAt(entry.ptx_slot));
      GRD_ASSIGN_OR_RETURN(ClientModule module,
                           BuildClientModule(exec, ptx, HashPtxSource(ptx)));
      modules.emplace_back(entry.id, std::move(module));
      return OkStatus();
    }();
    if (!replay.ok()) {
      std::lock_guard<std::mutex> lock(dev.partition_mu);
      (void)dev.partitions.ReleasePartition(bounds.base);
      return replay;
    }
  }

  const auto priority = static_cast<protocol::PriorityClass>(
      slot->priority.load(std::memory_order_acquire));
  auto session = sessions.Restore(client, slot, bounds,
                                  dev.scheduler.CreateStream(priority),
                                  device_id);
  session->default_priority.store(priority, std::memory_order_relaxed);
  session->next_module = journal.next_module;
  session->next_function = journal.next_function;
  session->next_stream = journal.next_stream;
  session->next_event = journal.next_event;
  for (auto& [id, module] : modules)
    session->modules.emplace(id, std::move(module));
  for (const auto& fn : journal.functions)
    session->pointer_to_symbol[fn.id] = FunctionEntry{
        fn.module_id,
        std::string(fn.name, strnlen(fn.name, SharedSessionJournal::kNameCap))};
  for (const auto& stream : journal.streams)
    session->streams[stream.id] = dev.scheduler.CreateStream(
        static_cast<protocol::PriorityClass>(stream.priority));
  // An armed in-flight-kernel mirror stays armed: the launch the client
  // retries resumes it from its completed-block bitmap (EnqueueKernelLaunch).
  session->resume_pending = journal.launch_armed;

  dev.resident_sessions.fetch_add(1, std::memory_order_relaxed);
  exec.stats.sessions_adopted.fetch_add(1, std::memory_order_relaxed);
  slot->adoption_pending.store(0, std::memory_order_release);
  GRD_LOG_INFO("grdManager") << "adopted session " << client << " on device "
                             << device_id << " (" << modules.size()
                             << " modules, " << journal.functions.size()
                             << " functions replayed"
                             << (session->resume_pending
                                     ? ", in-flight kernel pending)"
                                     : ")");
  return OkStatus();
}

}  // namespace

std::size_t AdoptPendingSessions(ExecutionContext& exec,
                                 SessionRegistry& sessions) {
  SharedServingState* shared = sessions.shared();
  if (shared == nullptr) return 0;
  std::size_t adopted = 0;
  for (std::uint32_t i = 0; i < shared->layout().max_sessions; ++i) {
    SharedSessionSlot* slot = &shared->session_slot(i);
    if (slot->adoption_pending.load(std::memory_order_acquire) == 0 ||
        slot->owner_worker.load(std::memory_order_acquire) !=
            sessions.worker_index() ||
        slot->state.load(std::memory_order_acquire) !=
            static_cast<std::uint32_t>(SessionSlotState::kActive))
      continue;
    const Status rebuilt = AdoptJournaledSession(exec, sessions, shared, slot);
    if (rebuilt.ok()) {
      ++adopted;
      continue;
    }
    // Fail it the way a crash without respawn does: the client's requests
    // get the clean "worker crashed" status and it registers afresh.
    GRD_LOG_WARN("grdManager") << "could not adopt session "
                               << slot->client.load() << ": " << rebuilt;
    slot->adoption_pending.store(0, std::memory_order_release);
    slot->state.store(static_cast<std::uint32_t>(SessionSlotState::kFailed),
                      std::memory_order_release);
    shared->counters().sessions_crash_failed.fetch_add(
        1, std::memory_order_relaxed);
  }
  return adopted;
}

Status MigrateSession(ExecutionContext& exec,
                      const std::shared_ptr<ClientSession>& session,
                      std::uint32_t target_device) {
  ClientSession& client = *session;
  const std::uint32_t source_device =
      client.device_id.load(std::memory_order_relaxed);
  if (target_device == source_device) return OkStatus();
  if (target_device >= exec.device_count())
    return InvalidArgument("no device " + std::to_string(target_device));
  DeviceState& src = exec.device(source_device);
  DeviceState& dst = exec.device(target_device);

  // Feasibility first: the partition must re-attach at its EXACT bounds on
  // the target (client-held device pointers survive the move), so if that
  // range is taken over there, bail out BEFORE freezing anything — a failed
  // migration must not cost the worker's co-resident tenants any latency.
  // The check can race another session grabbing the range; the post-freeze
  // Attach failure path below still restores everything in that case.
  {
    std::lock_guard<std::mutex> lock(dst.partition_mu);
    if (!dst.partitions.CanAttachAt(client.partition.base,
                                    client.partition.size))
      return FailedPrecondition("partition range " +
                                std::to_string(client.partition.base) +
                                "+" + std::to_string(client.partition.size) +
                                " not free on device " +
                                std::to_string(target_device));
  }

  // Freeze: stop admitting this session's work, revoke any running kernel
  // at its next block boundary (it requeues at its stream head with its
  // checkpoint), wait for the streams to vacate the device.
  for (auto& [id, stream] : client.streams) src.scheduler.PauseStream(*stream);
  std::uint64_t revoked = 0;
  for (auto& [id, stream] : client.streams)
    if (src.scheduler.RequestStreamPreemption(*stream)) ++revoked;
  for (auto& [id, stream] : client.streams)
    src.scheduler.WaitStreamInactive(*stream);
  auto unpause = [&] {
    for (auto& [id, stream] : client.streams)
      src.scheduler.ResumeStream(*stream);
  };

  // Move the partition bookkeeping — sub-allocator state intact, so live
  // cudaMalloc blocks keep their exact addresses on the target.
  PartitionAllocator::Detached detached;
  {
    std::lock_guard<std::mutex> lock(src.partition_mu);
    auto out = src.partitions.Detach(client.partition.base);
    if (!out.ok()) {
      unpause();
      return out.status();
    }
    detached = std::move(*out);
  }
  Status attached;
  {
    std::lock_guard<std::mutex> lock(dst.partition_mu);
    attached = dst.partitions.Attach(detached);
  }
  if (!attached.ok()) {
    std::lock_guard<std::mutex> lock(src.partition_mu);
    (void)src.partitions.Attach(detached);
    unpause();
    return attached;
  }

  // Copy the partition bytes. The streams are frozen, so nobody writes the
  // source range concurrently.
  std::vector<std::uint8_t> bytes(client.partition.size);
  Status copied =
      src.gpu->memory().Read(client.partition.base, bytes.data(),
                             bytes.size());
  if (copied.ok())
    copied = dst.gpu->memory().Write(client.partition.base, bytes.data(),
                                     bytes.size());
  if (!copied.ok()) {
    {
      std::lock_guard<std::mutex> lock(dst.partition_mu);
      auto back = dst.partitions.Detach(client.partition.base);
      if (back.ok()) detached = std::move(*back);
    }
    {
      std::lock_guard<std::mutex> lock(src.partition_mu);
      (void)src.partitions.Attach(detached);
    }
    unpause();
    return copied;
  }

  // Retarget: from here on kernel and copy bodies resolve the new device.
  client.device_id.store(target_device, std::memory_order_release);
  // Adoption after a later crash lands on the device the session last ran on.
  if (SharedSessionSlot* slot = client.shared_slot)
    slot->device.store(target_device, std::memory_order_release);

  // Streams: pull the still-queued work, retire the drained source stream,
  // rebuild on the target with the same priority class and re-admit in
  // order. Tickets stay valid — waiters see the same ops complete there.
  for (auto& [id, stream] : client.streams) {
    const auto priority = src.scheduler.StreamPriority(*stream);
    std::vector<GpuTicket> queued = src.scheduler.ExtractQueued(*stream);
    (void)src.scheduler.DestroyStream(*stream);
    auto fresh = dst.scheduler.CreateStream(priority);
    for (auto& op : queued) dst.scheduler.Readmit(*fresh, std::move(op));
    stream = std::move(fresh);
  }

  src.resident_sessions.fetch_sub(1, std::memory_order_relaxed);
  dst.resident_sessions.fetch_add(1, std::memory_order_relaxed);
  exec.stats.sessions_migrated.fetch_add(1, std::memory_order_relaxed);
  if (revoked > 0)
    exec.stats.checkpoint_kernels_resumed.fetch_add(
        revoked, std::memory_order_relaxed);
  GRD_LOG_INFO("grdManager") << "migrated client " << client.id
                             << " from device " << source_device
                             << " to device " << target_device << " ("
                             << revoked << " kernels revoked mid-grid)";
  return OkStatus();
}

}  // namespace grd::guardian
