// The seed string-map interpreter, kept as the parity oracle for the
// engine (engine.cpp) and as bench_interpreter's baseline. Test support:
// reference.cpp builds into grd_ptxexec_reference, which the parity suite
// and bench_interpreter link and the manager does not.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/status.hpp"
#include "ptx/ast.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxexec/launch.hpp"
#include "simgpu/memory.hpp"

namespace grd::ptxexec {

// Interpreter's launch interface over the parsed module, re-resolving names
// through string maps on every step. Semantically identical to
// Interpreter::Execute (same stats, faults, checkpoints); every per-step
// string lookup it performs is counted by exec_debug::HotPathStringLookups().
class ReferenceInterpreter {
 public:
  // `client` is the tenant id handed to the access policy on global
  // accesses; a null policy checks none (as in Interpreter).
  ReferenceInterpreter(simgpu::GlobalMemory* memory,
                       simgpu::AccessPolicy* policy, std::uint64_t client)
      : memory_(memory), policy_(policy), client_(client) {}

  Result<ExecStats> Execute(const ptx::Module& module,
                            std::string_view kernel_name,
                            const LaunchParams& params);
  Result<ExecStats> Execute(const ptx::Module& module,
                            std::string_view kernel_name,
                            const LaunchParams& params,
                            const ExecControls& controls);

  const DeviceFault& last_fault() const noexcept { return last_fault_; }

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
