// Kernel launch descriptors shared by the interpreter and the runtimes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace grd::ptxexec {

struct Dim3 {
  std::uint32_t x = 1, y = 1, z = 1;
  std::uint64_t Count() const noexcept {
    return static_cast<std::uint64_t>(x) * y * z;
  }
};

// A kernel argument as raw bits (mirrors CUDA's void** kernelParams: the
// launch path does not know types; the kernel's .param decls do).
struct KernelArg {
  std::uint64_t bits = 0;
  std::uint8_t size = 8;

  static KernelArg U64(std::uint64_t v) { return {v, 8}; }
  static KernelArg U32(std::uint32_t v) { return {v, 4}; }
  static KernelArg F32(float v) {
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return {b, 4};
  }
  static KernelArg F64(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return {b, 8};
  }
};

struct LaunchParams {
  Dim3 grid;
  Dim3 block;
  std::vector<KernelArg> args;
};

// Why the engine replayed a block phase one thread at a time instead of
// committing it as one lockstep group (ExecStats::replayed_phases index).
enum class ReplayCause : std::uint8_t {
  kDivergence,  // the threads' control flow split, or the phase began split
  kConflict,    // a thread loaded a byte a lower thread stored in the phase
  kFault,       // a thread faulted or reached a step-time error
  kBudget,      // the per-thread instruction budget tripped
  kLogBound,    // the phase outgrew its access log (loads, stores or scans)
};
inline constexpr std::size_t kReplayCauses = 5;

// Execution statistics returned by a functional run. The device scheduler
// feeds these into simgpu's occupancy/timing model (SmFootprint /
// KernelDeviceCycles), so the counts double as the timing engine's input.
// `blocks` counts blocks actually executed; a resumed (previously preempted)
// kernel accumulates across segments, so at completion it equals the grid
// size exactly — replayed blocks would show as an excess.
struct ExecStats {
  std::uint64_t instructions = 0;
  std::uint64_t global_loads = 0;
  std::uint64_t global_stores = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t threads = 0;
  std::uint64_t blocks = 0;
  // Block phases (bar.sync rounds) the engine committed as one lockstep
  // group of the block's live threads, and phases it replayed in thread
  // order, by ReplayCause. The reference engine leaves both at 0.
  std::uint64_t lockstep_phases = 0;
  std::array<std::uint64_t, kReplayCauses> replayed_phases{};
};

// Suspended-kernel state saved at a preemption safe point (block boundary).
// Blocks run to completion before the kernel yields, so per-thread PCs,
// registers, and shared memory never need to leave the device: the
// completed-block bitmap plus the accumulated stats IS the full resume
// state. A resumed Execute skips every block whose bit is set.
struct KernelCheckpoint {
  std::vector<std::uint64_t> done_bitmap;  // bit per linear block index
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_done = 0;
  ExecStats stats;     // accumulated across all executed segments
  bool valid = false;  // true once any block completed under this checkpoint

  bool Done(std::uint64_t block) const {
    const std::uint64_t word = block / 64;
    return word < done_bitmap.size() &&
           (done_bitmap[word] >> (block % 64)) & 1;
  }
  void MarkDone(std::uint64_t block) {
    const std::uint64_t word = block / 64;
    if (word >= done_bitmap.size()) done_bitmap.resize(word + 1, 0);
    done_bitmap[word] |= std::uint64_t{1} << (block % 64);
    ++blocks_done;
    valid = true;
  }
  // What the manager would ship off-device for this suspension (accounting
  // only; the checkpoint lives in host memory here).
  std::uint64_t SizeBytes() const {
    return done_bitmap.size() * sizeof(std::uint64_t) + sizeof(ExecStats) +
           2 * sizeof(std::uint64_t);
  }
};

}  // namespace grd::ptxexec
