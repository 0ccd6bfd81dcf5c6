// Register-pressure model for Figure 9.
//
// The paper compiles sandboxed PTX with `ptxas -G` (no optimization) and
// `-O3` and reports per-thread register deltas: without optimization most
// kernels pay up to 4 extra registers; with -O3 the allocator reuses dead
// registers and 71% of kernels need none.
//
// We model both allocators over the PTX virtual registers:
//  - no-opt: one architectural register per distinct virtual register
//    (ptxas -G does essentially this);
//  - O3: linear-scan allocation over live ranges — the maximum number of
//    simultaneously live virtual registers. Guardian's temps have short,
//    disjoint live ranges, so they usually fold into existing dead slots,
//    which is exactly why the measured -O3 delta is usually zero.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ptx/ast.hpp"

namespace grd::ptxpatcher {

struct RegisterUsage {
  std::size_t no_opt = 0;     // distinct virtual registers (-G behaviour)
  std::size_t optimized = 0;  // max simultaneously live (-O3 behaviour)
};

RegisterUsage EstimateRegisterUsage(const ptx::Kernel& kernel);

// Exact def/use sets for one instruction. PTX convention: operand 0 is the
// destination except for st/bra/brx/bar/ret/exit/trap/call, whose operands
// are all sources. Vector destinations (`ld.v2 {%r1,%r2}, [..]`) report each
// element as a write. Memory-operand base registers and the guard predicate
// are reads. Special registers (%tid.x, ...) are never reported as writes.
// Shared by the register-pressure model and guard elision, which drops an
// available fence on any write to its base register.
void CollectRegisterUses(const ptx::Instruction& inst,
                         std::vector<std::string>* reads,
                         std::vector<std::string>* writes);

}  // namespace grd::ptxpatcher
