// Wire protocol between grdLib (client) and grdManager (server).
//
// Every CUDA runtime/driver call grdLib intercepts becomes one
// request/response exchange (paper §4.1: "the intercepted CUDA calls are
// forwarded to another process, the grdManager, which is the only entity
// with GPU access"). Requests carry the client id assigned at registration,
// and the manager serves each request as that client's session. It does not
// check the id against the channel the request arrived on, so a tenant that
// names another tenant's id acts as that tenant.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "ipc/serializer.hpp"
#include "obs/trace.hpp"

namespace grd::guardian::protocol {

enum class Op : std::uint32_t {
  kRegisterClient = 1,
  kDisconnect,
  kMalloc,
  kFree,
  kMemcpyH2D,
  kMemcpyD2H,
  kMemcpyD2D,
  kMemset,
  kLaunchKernel,
  kStreamCreate,
  kStreamDestroy,
  kStreamSynchronize,
  kStreamIsCapturing,
  kStreamGetCaptureInfo,
  kEventCreate,
  kEventDestroy,
  kEventRecord,
  kDeviceSynchronize,
  kGetExportTable,
  kModuleLoadData,
  kModuleGetFunction,
  kGetDeviceSpec,
  kGrowPartition,
  // Stream-aware execution engine (appended to keep earlier opcodes stable).
  kMemcpyH2DAsync,
  kStreamWaitEvent,
  kEventSynchronize,
  // Envelope carrying several async sub-requests in one ring message
  // (grdLib coalesces adjacent launch/async-memcpy calls). Sub-requests
  // execute in order; execution stops at the first failure. The response
  // payload leads with a u8 form: 1 = compacted (all sub-ops succeeded,
  // only the executed count follows), 0 = full (count + one encoded
  // response per executed sub-op).
  kBatch,
  // Preemption engine: tag a session (scope 0) or one stream (scope 1) with
  // a PriorityClass. Payload: u8 scope, u64 stream id, u8 priority.
  kSetPriority,
  // Multi-device fleet: re-attach to a session that survived its worker via
  // the shared-region journal (adoption). Payload: u64 prior client id.
  // Response: u64 client id, u64 partition base, u64 size, u32 device id.
  // NotFound when no adoptable journal exists — the client falls back to a
  // full re-register + module replay.
  kResumeSession,
};

// Priority classes of the preemption engine, least to most preemptible.
// Wire-visible (the u8 priority field of kSetPriority); the scheduler's
// aging policy may *boost* an op's effective class, never demote it.
enum class PriorityClass : std::uint8_t {
  kRealtime = 0,
  kNormal = 1,
  kBatch = 2,
};

inline constexpr int kPriorityClassCount = 3;

inline bool IsValidPriorityClass(std::uint8_t raw) {
  return raw < kPriorityClassCount;
}

inline const char* PriorityClassName(PriorityClass cls) {
  switch (cls) {
    case PriorityClass::kRealtime: return "realtime";
    case PriorityClass::kNormal: return "normal";
    case PriorityClass::kBatch: return "batch";
  }
  return "?";
}

// Upper bound on sub-requests per kBatch envelope, shared by the grdLib
// buffer cap and the dispatcher's decode guard so a client-side setting can
// never produce an envelope the manager rejects wholesale.
inline constexpr std::uint32_t kMaxBatchOps = 64;

// Stable wire-op names (trace span labels, diagnostics).
inline const char* OpName(Op op) {
  switch (op) {
    case Op::kRegisterClient: return "RegisterClient";
    case Op::kDisconnect: return "Disconnect";
    case Op::kMalloc: return "Malloc";
    case Op::kFree: return "Free";
    case Op::kMemcpyH2D: return "MemcpyH2D";
    case Op::kMemcpyD2H: return "MemcpyD2H";
    case Op::kMemcpyD2D: return "MemcpyD2D";
    case Op::kMemset: return "Memset";
    case Op::kLaunchKernel: return "LaunchKernel";
    case Op::kStreamCreate: return "StreamCreate";
    case Op::kStreamDestroy: return "StreamDestroy";
    case Op::kStreamSynchronize: return "StreamSynchronize";
    case Op::kStreamIsCapturing: return "StreamIsCapturing";
    case Op::kStreamGetCaptureInfo: return "StreamGetCaptureInfo";
    case Op::kEventCreate: return "EventCreate";
    case Op::kEventDestroy: return "EventDestroy";
    case Op::kEventRecord: return "EventRecord";
    case Op::kDeviceSynchronize: return "DeviceSynchronize";
    case Op::kGetExportTable: return "GetExportTable";
    case Op::kModuleLoadData: return "ModuleLoadData";
    case Op::kModuleGetFunction: return "ModuleGetFunction";
    case Op::kGetDeviceSpec: return "GetDeviceSpec";
    case Op::kGrowPartition: return "GrowPartition";
    case Op::kMemcpyH2DAsync: return "MemcpyH2DAsync";
    case Op::kStreamWaitEvent: return "StreamWaitEvent";
    case Op::kEventSynchronize: return "EventSynchronize";
    case Op::kBatch: return "Batch";
    case Op::kSetPriority: return "SetPriority";
    case Op::kResumeSession: return "ResumeSession";
  }
  return "UnknownOp";
}

struct RequestHeader {
  Op op{};
  std::uint64_t client = 0;
  // End-to-end tracing (obs/trace.hpp): the client-side span this request
  // belongs to. Zero when tracing is disabled; the manager treats a zero
  // trace_id as "untraced".
  obs::TraceContext trace;
};

// Stamps the ambient trace context into the header (allocating a fresh
// trace id for a context-less thread) when tracing is enabled; writes
// zeros otherwise. Returns the stamped context so grdLib can record the
// matching client-side span.
inline obs::TraceContext WriteHeader(ipc::Writer& writer, Op op,
                                     std::uint64_t client) {
  obs::TraceContext ctx;
  if (obs::TraceRecorder::Instance().enabled()) {
    ctx = obs::CurrentContext();
    if (!ctx.valid()) ctx.trace_id = obs::NewTraceId();
    ctx.span_id = obs::NewSpanId();
  }
  writer.Put<std::uint32_t>(static_cast<std::uint32_t>(op));
  writer.Put<std::uint64_t>(client);
  writer.Put<std::uint64_t>(ctx.trace_id);
  writer.Put<std::uint64_t>(ctx.span_id);
  return ctx;
}

inline Result<RequestHeader> ReadHeader(ipc::Reader& reader) {
  RequestHeader header;
  GRD_ASSIGN_OR_RETURN(std::uint32_t op, reader.Get<std::uint32_t>());
  header.op = static_cast<Op>(op);
  GRD_ASSIGN_OR_RETURN(header.client, reader.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(header.trace.trace_id, reader.Get<std::uint64_t>());
  GRD_ASSIGN_OR_RETURN(header.trace.span_id, reader.Get<std::uint64_t>());
  return header;
}

// Responses: u8 ok flag; on failure a status code + message follow, on
// success the op-specific payload.
inline ipc::Bytes EncodeError(const Status& status) {
  ipc::Writer writer;
  writer.Put<std::uint8_t>(0);
  writer.Put<std::uint8_t>(static_cast<std::uint8_t>(status.code()));
  writer.PutString(status.message());
  return std::move(writer).Take();
}

inline ipc::Bytes EncodeOk(ipc::Writer payload = {}) {
  ipc::Writer writer;
  writer.Put<std::uint8_t>(1);
  ipc::Bytes body = std::move(payload).Take();
  for (const std::uint8_t b : body) writer.Put<std::uint8_t>(b);
  return std::move(writer).Take();
}

// Returns a Reader positioned at the payload, or the decoded error status.
inline Result<ipc::Reader> DecodeResponse(const ipc::Bytes& response) {
  ipc::Reader reader(response);
  GRD_ASSIGN_OR_RETURN(std::uint8_t ok, reader.Get<std::uint8_t>());
  if (ok != 0) return reader;
  GRD_ASSIGN_OR_RETURN(std::uint8_t code, reader.Get<std::uint8_t>());
  GRD_ASSIGN_OR_RETURN(std::string message, reader.GetString());
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace grd::guardian::protocol
