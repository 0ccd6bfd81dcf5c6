// Functional PTX interpreter.
//
// Executes kernels against the simulated GPU global memory, with a
// thread-grid model (blocks, threads, bar.sync lockstep phases, per-block
// shared memory). Because the instrumented fencing/checking instructions are
// ordinary PTX, patched kernels run through the same interpreter — the
// wrap-around semantics of Figure 4 are produced by actually executing the
// AND/OR, not by special-casing.
//
// Two engines share the launch/fault/preemption semantics:
//  - the ENGINE (engine.cpp, the production hot path): kernels are lowered
//    once by ptxexec::CompileKernel (program.hpp) into dense bytecode — enum
//    opcodes, interned register slots, pre-resolved branches/params/shared
//    offsets — fused into superinstructions by FuseKernel, and executed
//    against flat arrays by one computed-goto dispatch loop with zero
//    per-step string work;
//  - the REFERENCE engine (ExecuteReference): the original string-map
//    interpreter, kept as the parity oracle and the bench_interpreter
//    baseline. Every std::string-keyed lookup it performs on the step path
//    bumps exec_debug::HotPathStringLookups(), which is how tests assert the
//    engine performs none.
//
// Supported subset: the full instruction vocabulary produced by ptx/generator
// and ptxpatcher (ld/st over param/global/local/shared/generic incl. v2/v4,
// mov/cvta/cvt, integer and f32/f64 arithmetic, logicals/shifts, setp/selp,
// bra/brx.idx/bar.sync/ret/exit/trap). Unsupported opcodes abort the launch
// with kUnimplemented rather than mis-executing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/status.hpp"
#include "ptx/ast.hpp"
#include "ptxexec/launch.hpp"
#include "ptxexec/program.hpp"
#include "simgpu/memory.hpp"

namespace grd::ptxexec {

// A device-side fault (what the real GPU would raise as an Xid error /
// illegal-address exception).
struct DeviceFault {
  Status status;
  std::uint64_t address = 0;
  std::uint64_t thread_linear_id = 0;
  std::string kernel;
};

// Cooperative-preemption hooks for a launch (TReM-style revocation). All
// fields are optional; a default ExecControls reproduces the plain
// run-to-completion behaviour.
struct ExecControls {
  // Polled every `preempt_check_interval` instructions and at every block
  // boundary. When it reads true (and `checkpoint` is set), the kernel runs
  // to the next block boundary — the safe point — saves the completed-block
  // bitmap into `checkpoint`, and Execute returns kUnavailable ("preempted
  // at safe point"); completed blocks are never replayed on resume.
  const std::atomic<bool>* preempt_requested = nullptr;
  std::uint64_t preempt_check_interval = 5'000;
  // In+out resume state. When `valid`, Execute skips completed blocks and
  // continues accumulating into checkpoint->stats.
  KernelCheckpoint* checkpoint = nullptr;
  // Called after each executed block with that block's stats delta (the
  // scheduler uses it to dilate modeled device time per block, which is
  // what bounds preemption latency to roughly one block).
  std::function<void(const ExecStats& block_delta)> after_block;
};

// True iff a non-OK Execute status means "suspended at a safe point" (the
// checkpoint holds resume state) rather than a device fault.
inline bool IsPreempted(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

class Interpreter {
 public:
  // `client` is the tenant id handed to the access policy on global accesses.
  Interpreter(simgpu::GlobalMemory* memory, simgpu::AccessPolicy* policy,
              std::uint64_t client)
      : memory_(memory), policy_(policy), client_(client) {}

  // Executes a pre-compiled kernel (the hot path: no per-step string work).
  // Fused (FuseKernel) and unfused (CompileKernel) programs are both legal
  // and behave identically; fused ones retire a superinstruction per
  // dispatch. On a device fault, returns the fault status (detail via
  // last_fault()).
  Result<ExecStats> Execute(const CompiledKernel& kernel,
                            const LaunchParams& params);

  // Preemptible/resumable variant. On success the returned stats cover all
  // segments of the kernel (checkpoint-accumulated); see ExecControls for
  // the preempted path. An exceeded instruction budget returns
  // kDeadlineExceeded with the checkpoint (when provided) holding every
  // block completed before the runaway one, so the scheduler can requeue
  // instead of killing outright.
  Result<ExecStats> Execute(const CompiledKernel& kernel,
                            const LaunchParams& params,
                            const ExecControls& controls);

  // Convenience: compiles and fuses `kernel_name` from `module` and executes
  // the result. Pays the (one-time-per-call) compile cost; callers on a hot
  // launch path should compile once and use the CompiledKernel overloads —
  // the grdManager does so through the SandboxCache.
  Result<ExecStats> Execute(const ptx::Module& module,
                            std::string_view kernel_name,
                            const LaunchParams& params);
  Result<ExecStats> Execute(const ptx::Module& module,
                            std::string_view kernel_name,
                            const LaunchParams& params,
                            const ExecControls& controls);

  // The seed string-map engine, kept as the parity oracle for the engine
  // and as bench_interpreter's baseline. Semantically identical to
  // Execute (same stats, faults, checkpoints); every per-step string lookup
  // it performs is counted by exec_debug::HotPathStringLookups().
  Result<ExecStats> ExecuteReference(const ptx::Module& module,
                                     std::string_view kernel_name,
                                     const LaunchParams& params);
  Result<ExecStats> ExecuteReference(const ptx::Module& module,
                                     std::string_view kernel_name,
                                     const LaunchParams& params,
                                     const ExecControls& controls);

  const DeviceFault& last_fault() const noexcept { return last_fault_; }

  // Safety valve for runaway kernels (paper §4.3 mentions TReM-style
  // termination of endless kernels as the companion mechanism).
  void set_max_instructions_per_thread(std::uint64_t limit) noexcept {
    max_instructions_per_thread_ = limit;
  }

 private:
  simgpu::GlobalMemory* memory_;
  simgpu::AccessPolicy* policy_;
  std::uint64_t client_;
  DeviceFault last_fault_;
  std::uint64_t max_instructions_per_thread_ = 10'000'000;
};

namespace exec_debug {

// Process-wide count of std::string-keyed lookups (map finds, name hashing,
// special-register name scans) performed on the per-step execution path.
// Only the reference engine bumps it; the regression suite snapshots it
// around an engine run and asserts the delta is zero, so any future
// change that sneaks a string lookup back onto the hot path — and routes it
// through the instrumented helpers, as the reference engine does — fails
// loudly instead of silently eating the compile win back.
std::uint64_t HotPathStringLookups() noexcept;
void BumpHotPathStringLookup() noexcept;

}  // namespace exec_debug

}  // namespace grd::ptxexec
