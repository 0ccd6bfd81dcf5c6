#pragma once

// Structured request tracing for the guardian stack.
//
// A TraceContext (trace_id, span_id) is stamped into every request header
// by grdLib and propagated by dispatch/handlers through queueing, sandbox
// patch/compile, scheduler admission, preemption and per-segment kernel
// execution. Spans are emitted into per-thread lock-free ring buffers
// (seqlock per slot, overwrite-oldest), or — when a SharedRegion span
// arena is bound — into process-shared memory with a per-record commit
// word, so the parent of a SIGKILLed worker can still flush every span
// the worker committed without ever observing a torn record.
//
// TraceExporter renders the collected spans as Chrome trace-event JSON
// ("traceEvents"), loadable by Perfetto / chrome://tracing.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace grd::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;  // one per top-level client request flow
  std::uint64_t span_id = 0;   // the currently open span

  bool valid() const { return trace_id != 0; }
};

// Thread-local ambient context. Handlers run nested work under the context
// decoded from the request header; executor-side work carries the context
// captured at enqueue time explicitly.
TraceContext& CurrentContext();

// Process-unique (pid-salted) id generators; never return 0.
std::uint64_t NewTraceId();
std::uint64_t NewSpanId();

// CLOCK_MONOTONIC in nanoseconds (same clock the logger timestamps use).
std::uint64_t MonotonicNowNs();

// Fixed-size POD span record: safe to place in shared memory, copyable
// byte-wise. `seq` doubles as the seqlock word in thread rings (odd while
// a write is in flight) and as the commit word in the shared arena
// (0 = free/uncommitted, 1 = committed via release store).
struct SpanRecord {
  static constexpr int kNameCap = 39;

  std::atomic<std::uint64_t> seq{0};
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;  // == begin_ns for instants; 0 for 'B' records
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
  std::int32_t pid = 0;
  std::uint32_t tid = 0;
  char phase = 'X';  // 'X' complete, 'B' begin-only, 'i' instant
  char name[kNameCap] = {};

  SpanRecord() = default;
  // Copies transfer the payload only; the seqlock/commit word stays 0 so a
  // snapshot never looks like a live shared slot.
  SpanRecord(const SpanRecord& other) { CopyPayloadFrom(other); }
  SpanRecord& operator=(const SpanRecord& other) {
    CopyPayloadFrom(other);
    return *this;
  }

  void CopyPayloadFrom(const SpanRecord& other) {
    trace_id = other.trace_id;
    span_id = other.span_id;
    parent_span_id = other.parent_span_id;
    begin_ns = other.begin_ns;
    end_ns = other.end_ns;
    arg1 = other.arg1;
    arg2 = other.arg2;
    pid = other.pid;
    tid = other.tid;
    phase = other.phase;
    for (int i = 0; i < kNameCap; ++i) name[i] = other.name[i];
  }
};

// Header of a process-shared span arena (e.g. carved out of the guardian
// SharedRegion). Records are claimed with a wait-free fetch_add and become
// visible only once their commit word is release-stored, so a reader never
// sees a half-written record — even if the writer was SIGKILLed mid-store.
struct SpanArenaHeader {
  std::atomic<std::uint64_t> next{0};     // total claims (may exceed capacity)
  std::atomic<std::uint64_t> dropped{0};  // claims that found the arena full
  std::uint64_t capacity = 0;

  static std::uint64_t RegionSize(std::uint64_t capacity);
  // Placement-initializes a header + record array in `mem` (zeroed memory).
  static SpanArenaHeader* Initialize(void* mem, std::uint64_t capacity);
  // Reinterprets previously initialized memory.
  static SpanArenaHeader* Attach(void* mem);

  SpanRecord* records();
  const SpanRecord* records() const;
};

// Process-wide span sink. Disabled (the default) every Emit* is one
// relaxed atomic load. Thread rings register themselves on first use and
// stay registered for the process lifetime.
class TraceRecorder {
 public:
  static constexpr int kRingCapacity = 4096;  // records per thread ring

  static TraceRecorder& Instance();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Routes all subsequent emissions into `arena` instead of thread rings.
  // Bind before forking workers: children inherit the mapping and the
  // parent can flush their committed spans after a crash. Pass nullptr to
  // return to thread rings.
  void BindArena(SpanArenaHeader* arena) {
    arena_.store(arena, std::memory_order_release);
  }
  SpanArenaHeader* arena() const {
    return arena_.load(std::memory_order_acquire);
  }

  // Emits a fully-described record (payload only; seq is managed here).
  void Emit(const SpanRecord& rec);

  // Convenience emitters. All are no-ops while disabled.
  void EmitComplete(const char* name, TraceContext ctx,
                    std::uint64_t parent_span, std::uint64_t begin_ns,
                    std::uint64_t end_ns, std::uint64_t arg1 = 0,
                    std::uint64_t arg2 = 0);
  void EmitInstant(const char* name, TraceContext ctx, std::uint64_t arg1 = 0,
                   std::uint64_t arg2 = 0);
  // Emits a begin-only ('B') record and returns the span id it used. Pair
  // with EmitComplete on the same span id: the exporter drops the 'B' when
  // a matching 'X' exists, and renders the unmatched 'B' of a worker that
  // died mid-span as an unterminated slice.
  std::uint64_t EmitBegin(const char* name, TraceContext ctx,
                          std::uint64_t parent_span, std::uint64_t begin_ns,
                          std::uint64_t arg1 = 0, std::uint64_t arg2 = 0);

  // Snapshot of every committed record: all registered thread rings plus
  // the bound arena (if any). Safe to call while writers are active; torn
  // ring slots are skipped.
  void Collect(std::vector<SpanRecord>* out) const;

  std::uint64_t dropped() const;

  // Test hook: clears thread rings, unbinds the arena, disables recording.
  void Reset();

 private:
  TraceRecorder() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<SpanArenaHeader*> arena_{nullptr};
};

// RAII scope: sets the ambient context (e.g. from a decoded request
// header) and restores the previous one on exit.
class ContextScope {
 public:
  explicit ContextScope(TraceContext ctx) : saved_(CurrentContext()) {
    CurrentContext() = ctx;
  }
  ~ContextScope() { CurrentContext() = saved_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext saved_;
};

// RAII span: opens a child span of the ambient context (starting a fresh
// trace if there is none), makes it ambient for its scope, and emits one
// 'X' record on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t arg1 = 0,
                      std::uint64_t arg2 = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_args(std::uint64_t arg1, std::uint64_t arg2) {
    arg1_ = arg1;
    arg2_ = arg2;
  }
  bool active() const { return active_; }
  TraceContext context() const { return CurrentContext(); }

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  TraceContext saved_;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t arg1_ = 0;
  std::uint64_t arg2_ = 0;
};

// Renders spans as Chrome trace-event JSON. 'B' records whose span id also
// has an 'X' record are elided (the complete event subsumes them).
class TraceExporter {
 public:
  static std::string ToChromeJson(const std::vector<SpanRecord>& spans);
  // Collect() + ToChromeJson + write to `path`.
  static Status WriteFile(const std::string& path);
};

}  // namespace grd::obs
