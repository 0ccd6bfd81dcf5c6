// Synthetic PTX kernel generators.
//
// The paper instruments PTX extracted (via cuobjdump) from closed-source
// CUDA libraries and frameworks. That corpus is proprietary, so we synthesize
// structurally equivalent kernels: same instruction shapes (Listing 1 and the
// two addressing modes of §4.3), same aggregate ld/st statistics (Table 3),
// plus adversarial kernels (out-of-bounds writers, indirect branches) for the
// security tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ptx/ast.hpp"

namespace grd::ptx {

// --- Hand-shaped kernels -----------------------------------------------

// The paper's Listing 1 kernel, pre-instrumentation: A[tid] = j.
Kernel MakeStoreTidKernel(std::string name = "kernel");

// c[i] = a[i] + b[i] with an n-guard (setp + predicated bra).
Kernel MakeVecAddKernel(std::string name = "vecadd");

// y[i] = alpha * x[i] + y[i].
Kernel MakeSaxpyKernel(std::string name = "saxpy");

// Unrolled 4-element copy using [reg+offset] addressing (exercises the
// patcher's second addressing mode, §4.3).
Kernel MakeOffsetCopyKernel(std::string name = "offset_copy");

// Tiled inner-product loop: repeated global loads + mad + final store.
Kernel MakeDotKernel(std::string name = "dot", int unroll = 4);

// Shared-memory tree reduction with bar.sync (shared accesses must NOT be
// instrumented: they are intra-block private, paper §3).
Kernel MakeReduceKernel(std::string name = "reduce");

// Device function (.func) with a global store; the patcher must treat it
// like an entry (§4.3).
Kernel MakeFuncStoreKernel(std::string name = "helper_store");

// Kernel with a brx.idx indirect branch through a .branchtargets table
// (unsafe per §3: index register unverifiable at compile time).
Kernel MakeIndirectBranchKernel(std::string name = "brx_kernel");

// Adversarial kernel: stores to `base + victim_offset` where victim_offset
// is a kernel parameter - models an OOB write into a neighbour's partition.
Kernel MakeOobWriterKernel(std::string name = "oob_writer");

// Kernel that copies in[i] to out[i] for i in [0, n): used by functional
// equivalence tests (patched vs unpatched must agree for in-bounds data).
Kernel MakeCopyKernel(std::string name = "copyk");

// Random straight-line kernel for property tests: `ld_count` loads and
// `st_count` stores over a data array addressed by tid (always in bounds for
// an array of >= 64 elements), interleaved with random arithmetic.
Kernel MakeRandomKernel(Rng& rng, std::string name, int ld_count,
                        int st_count, bool use_offset_mode = false);

// Monotone pointer-walk RMW loop (do-while shape): each thread owns an
// 8-byte lane inside a 256-byte iteration stripe and read-modify-writes
// `rmw_pairs` u32 cells (offsets 0 and 4) per iteration, then advances its
// pointer by 256 bytes. Parameters: data base (u64) and iteration count
// (u32, must be >= 1 — the loop is do-while). The whole walk spans
// `256 * iters` bytes.
Kernel MakePointerWalkKernel(std::string name = "walk", int rmw_pairs = 1);

// Straight-line RMW kernel: `pairs` ld/add/st round-trips through the same
// per-thread address, offsets cycling over {0, 4, 8} within a 16-byte lane.
// Repeated (base, offset) pairs make most fences repeat an identical
// earlier fence in the same straight-line span, so guard elision reuses them.
Kernel MakeRepeatedRmwKernel(std::string name = "rmw", int pairs = 4);

// Random do-while loop kernel for elision parity fuzzing: a pointer walk
// with randomized stride / trip-count scale / access mix (1-3 affine
// accesses at small offsets, optionally one loop-invariant access), lane
// selected by %ctaid.x. Launch with block {1,1,1} so intra-block thread
// order never matters. Parameters: data base (u64), iteration count (u32,
// >= 1).
Kernel MakeRandomLoopKernel(Rng& rng, std::string name);

// All named sample kernels above, in one module (handy for tests/examples).
Module MakeSampleModule();

// --- Library corpora (Table 3) -----------------------------------------

// Aggregate statistics of one CUDA-accelerated library/framework in Table 3.
struct LibraryCorpusSpec {
  std::string name;
  std::size_t kernels = 0;
  std::size_t funcs = 0;
  std::size_t total_loads = 0;
  std::size_t total_stores = 0;
};

// The Table 3 rows.
const std::vector<LibraryCorpusSpec>& Table3Corpora();

// Streams the corpus kernel-by-kernel (memory stays O(1) even for the
// 28k-kernel PyTorch corpus): calls `fn` once per generated kernel. The
// generated kernels' protected ld/st totals match the spec exactly.
void GenerateCorpus(const LibraryCorpusSpec& spec, std::uint64_t seed,
                    const std::function<void(const Kernel&)>& fn);

}  // namespace grd::ptx
