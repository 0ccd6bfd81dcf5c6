// The PTX-patcher (paper §4.3): offline instrumentation of kernels so that
// every global/local load and store is confined to the launching
// application's memory partition.
//
// Three bounds-checking methods (paper §4.4):
//  - address fencing with bitwise ops (production mode): appends two kernel
//    parameters (partition base and mask), two b64 registers, and an
//    `and.b64` + `or.b64` pair before every protected access — Listing 1.
//    Out-of-partition addresses wrap around into the partition (Figure 4).
//  - address fencing with inline modulo: parameters base and size; three
//    inline instructions (sub/rem/add), valid for arbitrary partition sizes.
//  - address checking: parameters base and end; conditional setp + trap on
//    violation. Detects OOB (debugging mode) at higher cost.
//
// Both PTX addressing modes are handled: direct register base, and
// base+immediate-offset (the patcher materializes base+offset into a
// temporary register first, §4.3). `.func` device functions are instrumented
// exactly like `.entry` kernels. `brx.idx` indices are clamped to the branch
// table size (§3 lists indirect branches as unsafe).
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "ptx/ast.hpp"

namespace grd::ptxpatcher {

enum class BoundsCheckMode : std::uint8_t {
  kFencingBitwise,
  kFencingModulo,
  kChecking,
};

const char* BoundsCheckModeName(BoundsCheckMode mode) noexcept;

struct PatchOptions {
  BoundsCheckMode mode = BoundsCheckMode::kFencingBitwise;
  bool protect_indirect_branches = true;
  // §2.2 extension: statically safe kernels (no protected accesses, no
  // indirect branches — see analyzer.hpp) are emitted unchanged, so they
  // incur zero overhead and need no launch-time argument augmentation.
  bool skip_statically_safe = false;
  // Guard elision (§2.2's "checks can be turned off on demand", done
  // statically): an access reuses the clamped address of an identical fence
  // (same base register, same offset) computed earlier in its label-free
  // span, unless the base register was written in between. Off by default:
  // full per-access patching is the parity/fuzz oracle, and wrap-around/trap
  // semantics are identical in both settings.
  bool elision_enabled = false;
};

// Names of the parameters appended to every sandboxed kernel. The
// grdManager appends the matching runtime values on launch (§4.2.3).
std::string GrdParam0Name(const std::string& kernel);  // base address
std::string GrdParam1Name(const std::string& kernel);  // mask / size / end

struct PatchStats {
  std::size_t patched_loads = 0;
  std::size_t patched_stores = 0;
  std::size_t patched_offset_accesses = 0;  // accesses in base+offset mode
  std::size_t patched_indirect_branches = 0;
  // Exact emitted-body instruction delta: instructions in the patched body
  // minus instructions in the input body (fences, base+offset
  // materializations, ld.param preamble and brx clamps).
  std::size_t inserted_instructions = 0;
  std::size_t skipped_safe_kernels = 0;
  // Accesses that reused an earlier fence instead of getting their own
  // (zero unless PatchOptions::elision_enabled).
  std::size_t guards_elided = 0;
  int extra_params = 0;

  PatchStats& operator+=(const PatchStats& other) {
    patched_loads += other.patched_loads;
    patched_stores += other.patched_stores;
    patched_offset_accesses += other.patched_offset_accesses;
    patched_indirect_branches += other.patched_indirect_branches;
    inserted_instructions += other.inserted_instructions;
    skipped_safe_kernels += other.skipped_safe_kernels;
    guards_elided += other.guards_elided;
    extra_params += other.extra_params;
    return *this;
  }
};

struct PatchedKernel {
  ptx::Kernel kernel;
  PatchStats stats;
};

// Instruments one kernel. The input kernel is left untouched.
Result<PatchedKernel> PatchKernel(const ptx::Kernel& kernel,
                                  const PatchOptions& options);

// Instruments every kernel (and .func) of a module.
Result<ptx::Module> PatchModule(const ptx::Module& module,
                                const PatchOptions& options,
                                PatchStats* aggregate = nullptr);

// Runtime values for the two appended parameters given a partition
// [base, base+size) — what the grdManager appends at launch (§4.2.3).
struct GrdArgs {
  std::uint64_t arg0 = 0;  // base
  std::uint64_t arg1 = 0;  // mask (bitwise), size (modulo), end (checking)
};
GrdArgs ComputeGrdArgs(BoundsCheckMode mode, std::uint64_t partition_base,
                       std::uint64_t partition_size);

}  // namespace grd::ptxpatcher
