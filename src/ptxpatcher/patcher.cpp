#include "ptxpatcher/patcher.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/bits.hpp"
#include "ptxpatcher/analyzer.hpp"
#include "ptxpatcher/regmodel.hpp"

namespace grd::ptxpatcher {
namespace {

using ptx::Instruction;
using ptx::Kernel;
using ptx::Operand;
using ptx::Param;
using ptx::RegDecl;
using ptx::Statement;
using ptx::Type;

// Register names reserved for the instrumentation. `%grdreg1`/`%grdreg2`
// hold the two runtime parameters (Listing 1 line 15); `%grdtmp1` is the
// temporary for the base+offset addressing mode (§4.3); `%grdidx` holds the
// clamped brx.idx index; `%grdp` is the checking-mode predicate. Guard
// elision additionally uses `%grdtmp4`+ as dedicated fence temps that later
// accesses reuse.
constexpr const char* kRegBase = "%grdreg1";
constexpr const char* kRegBound = "%grdreg2";
constexpr const char* kRegTmp = "%grdtmp1";
constexpr const char* kRegIdx = "%grdidx1";
constexpr const char* kRegPred = "%grdp1";

Operand R(std::string name) { return Operand::Reg(std::move(name)); }

Instruction Inst(std::string opcode, std::vector<std::string> mods,
                 std::vector<Operand> ops) {
  Instruction inst;
  inst.opcode = std::move(opcode);
  inst.modifiers = std::move(mods);
  inst.operands = std::move(ops);
  return inst;
}

// Emits the fencing/checking sequence for an address held in `addr_reg`,
// leaving the confined address in `out_reg` (may equal addr_reg's value
// flow; we always write to the temp for single-assignment clarity).
void EmitBoundsSequence(BoundsCheckMode mode, const std::string& addr_reg,
                        const std::string& out_reg,
                        std::vector<Statement>& out) {
  switch (mode) {
    case BoundsCheckMode::kFencingBitwise:
      // Listing 1 lines 26-28: AND with the mask, OR with the base.
      out.emplace_back(
          Inst("and", {"b64"}, {R(out_reg), R(addr_reg), R(kRegBound)}));
      out.emplace_back(
          Inst("or", {"b64"}, {R(out_reg), R(out_reg), R(kRegBase)}));
      break;
    case BoundsCheckMode::kFencingModulo:
      // fenced = base + ((addr - base) % size); inline three-instruction
      // form (§4.4: the CUDA ISA's 64-bit modulo is a function call; the
      // paper inlines it).
      out.emplace_back(
          Inst("sub", {"s64"}, {R(out_reg), R(addr_reg), R(kRegBase)}));
      out.emplace_back(
          Inst("rem", {"u64"}, {R(out_reg), R(out_reg), R(kRegBound)}));
      out.emplace_back(
          Inst("add", {"s64"}, {R(out_reg), R(out_reg), R(kRegBase)}));
      break;
    case BoundsCheckMode::kChecking: {
      // if (addr < base || addr >= end) trap; the trap surfaces as an
      // OUT_OF_RANGE device fault confined to this kernel's application.
      if (out_reg != addr_reg)
        out.emplace_back(Inst("mov", {"u64"}, {R(out_reg), R(addr_reg)}));
      out.emplace_back(Inst("setp", {"lt", "u64"},
                            {R(kRegPred), R(out_reg), R(kRegBase)}));
      Instruction trap1 = Inst("trap", {}, {});
      trap1.pred = ptx::Predicate{kRegPred, false};
      out.emplace_back(std::move(trap1));
      out.emplace_back(Inst("setp", {"ge", "u64"},
                            {R(kRegPred), R(out_reg), R(kRegBound)}));
      Instruction trap2 = Inst("trap", {}, {});
      trap2.pred = ptx::Predicate{kRegPred, false};
      out.emplace_back(std::move(trap2));
      break;
    }
  }
}

std::size_t CountInstructions(const std::vector<Statement>& body) {
  std::size_t n = 0;
  for (const auto& stmt : body)
    if (std::holds_alternative<Instruction>(stmt)) ++n;
  return n;
}

// A fence expression: the clamped address of value-of(root) + offset.
struct FenceExpr {
  std::string root;
  std::int64_t offset = 0;
  bool operator==(const FenceExpr&) const = default;
};

// The fenced memory operand of a protected access, or null when the access
// has none to fence (a symbol base is rejected when the body is emitted).
const Operand* FencedOperand(const Instruction& inst) {
  if (!inst.IsProtectedMemoryAccess()) return nullptr;
  const std::size_t mem_index = inst.IsLoad() ? 1 : 0;
  if (mem_index >= inst.operands.size()) return nullptr;
  const Operand& op = inst.operands[mem_index];
  return op.kind == Operand::Kind::kMemory && op.MemBaseIsRegister() ? &op
                                                                     : nullptr;
}

// Guard elision: marks each access whose fence expression was already
// computed earlier in the same label-free span, and returns the reused
// expressions in order of first reuse. A statement that no label precedes is
// reached only from the statement before it, so a fence computed earlier in
// that span still holds the exact clamped address.
std::vector<FenceExpr> FindReusedFences(const Kernel& kernel,
                                        std::vector<bool>& reuse) {
  std::vector<FenceExpr> reused;
  std::vector<FenceExpr> available;
  std::vector<std::string> reads, writes;
  for (std::size_t i = 0; i < kernel.body.size(); ++i) {
    if (std::holds_alternative<ptx::Label>(kernel.body[i])) {
      available.clear();
      continue;
    }
    const auto* inst = std::get_if<Instruction>(&kernel.body[i]);
    if (inst == nullptr) continue;
    if (const Operand* mem = FencedOperand(*inst)) {
      FenceExpr expr{mem->name, mem->offset};
      if (std::find(available.begin(), available.end(), expr) !=
          available.end()) {
        reuse[i] = true;
        if (std::find(reused.begin(), reused.end(), expr) == reused.end())
          reused.push_back(std::move(expr));
      } else {
        available.push_back(std::move(expr));
      }
    }
    if (available.empty()) continue;
    reads.clear();
    writes.clear();
    CollectRegisterUses(*inst, &reads, &writes);
    for (const std::string& w : writes)
      std::erase_if(available,
                    [&w](const FenceExpr& e) { return e.root == w; });
  }
  return reused;
}

// Emits the patched body: the Guardian registers and parameter loads, then
// every statement with its protected accesses fenced and its brx.idx
// indices clamped. With elision, a reused expression's fences all write the
// dedicated `%grdtmp<4+n>` and its reuses read it; every other fence goes
// through `%grdtmp1`.
Status EmitBody(const Kernel& kernel, const PatchOptions& options,
                const std::string& p0, const std::string& p1, Kernel& out,
                PatchStats& stats) {
  std::vector<bool> reuse(kernel.body.size(), false);
  const std::vector<FenceExpr> reused =
      options.elision_enabled ? FindReusedFences(kernel, reuse)
                              : std::vector<FenceExpr>{};

  RegDecl grd_regs;
  grd_regs.type = Type::kB64;
  grd_regs.is_range = true;
  grd_regs.prefix = "%grdreg";
  grd_regs.count = 3;
  out.body.emplace_back(std::move(grd_regs));
  RegDecl tmp_reg;
  tmp_reg.type = Type::kB64;
  tmp_reg.is_range = true;
  tmp_reg.prefix = "%grdtmp";
  tmp_reg.count = reused.empty() ? 2 : 4 + static_cast<int>(reused.size());
  out.body.emplace_back(std::move(tmp_reg));
  if (options.mode == BoundsCheckMode::kChecking) {
    RegDecl pred_reg;
    pred_reg.type = Type::kPred;
    pred_reg.is_range = true;
    pred_reg.prefix = "%grdp";
    pred_reg.count = 2;
    out.body.emplace_back(std::move(pred_reg));
  }
  out.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R(kRegBase), Operand::Mem(p0)}));
  out.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R(kRegBound), Operand::Mem(p1)}));

  bool needs_idx_reg = false;
  for (std::size_t i = 0; i < kernel.body.size(); ++i) {
    const Statement& stmt = kernel.body[i];
    const auto* inst = std::get_if<Instruction>(&stmt);
    if (inst == nullptr) {
      out.body.push_back(stmt);
      continue;
    }

    // brx.idx: clamp the index into [0, table_size) (§3). The table size is
    // resolved from the .branchtargets declaration in this kernel.
    if (options.protect_indirect_branches && inst->opcode == "brx" &&
        inst->HasModifier("idx") && inst->operands.size() == 2) {
      std::size_t table_size = 0;
      for (const Statement& s2 : kernel.body) {
        if (const auto* table = std::get_if<ptx::BranchTargetsDecl>(&s2)) {
          if (table->name == inst->operands[1].name)
            table_size = table->labels.size();
        }
      }
      if (table_size == 0)
        return Status(NotFound("brx.idx table " + inst->operands[1].name +
                               " not declared in kernel " + kernel.name));
      needs_idx_reg = true;
      out.body.emplace_back(Inst(
          "min", {"u32"},
          {R(kRegIdx), inst->operands[0],
           Operand::Imm(static_cast<std::int64_t>(table_size - 1))}));
      Instruction patched = *inst;
      patched.operands[0] = R(kRegIdx);
      out.body.emplace_back(std::move(patched));
      ++stats.patched_indirect_branches;
      continue;
    }

    if (!inst->IsProtectedMemoryAccess()) {
      out.body.push_back(stmt);
      continue;
    }

    // Protected ld/st: confine the address operand.
    const std::size_t mem_index = inst->IsLoad() ? 1 : 0;
    const Operand& mem = inst->operands[mem_index];
    if (!mem.MemBaseIsRegister()) {
      // Global-variable-symbol addressing: not produced by our generators
      // for global space; treat as unsupported rather than silently unsafe.
      return Status(Unimplemented(
          "protected access through symbol base in kernel " + kernel.name));
    }

    const auto slot = std::find(reused.begin(), reused.end(),
                                FenceExpr{mem.name, mem.offset});
    const std::string temp =
        slot == reused.end()
            ? std::string(kRegTmp)
            : "%grdtmp" + std::to_string(4 + (slot - reused.begin()));
    if (reuse[i]) {
      ++stats.guards_elided;
    } else if (mem.offset == 0) {
      // First addressing mode: fence the base register into the temp and
      // redirect the access through it.
      EmitBoundsSequence(options.mode, mem.name, temp, out.body);
    } else {
      // Second addressing mode (§4.3): materialize base+offset into the
      // temp register, fence the temp, and drop the displacement.
      out.body.emplace_back(Inst(
          "add", {"s64"}, {R(temp), R(mem.name), Operand::Imm(mem.offset)}));
      EmitBoundsSequence(options.mode, temp, temp, out.body);
      ++stats.patched_offset_accesses;
    }
    Instruction patched = *inst;
    patched.operands[mem_index] = Operand::Mem(temp, 0);
    out.body.push_back(std::move(patched));
    if (inst->IsLoad()) {
      ++stats.patched_loads;
    } else {
      ++stats.patched_stores;
    }
  }

  if (needs_idx_reg) {
    RegDecl idx_reg;
    idx_reg.type = Type::kB32;
    idx_reg.is_range = true;
    idx_reg.prefix = "%grdidx";
    idx_reg.count = 2;
    // Prepend so the decl precedes first use when printed.
    out.body.insert(out.body.begin(), Statement{std::move(idx_reg)});
  }
  return OkStatus();
}

}  // namespace

const char* BoundsCheckModeName(BoundsCheckMode mode) noexcept {
  switch (mode) {
    case BoundsCheckMode::kFencingBitwise: return "fencing-bitwise";
    case BoundsCheckMode::kFencingModulo: return "fencing-modulo";
    case BoundsCheckMode::kChecking: return "checking";
  }
  return "?";
}

std::string GrdParam0Name(const std::string& kernel) {
  return kernel + "_grd_base";
}
std::string GrdParam1Name(const std::string& kernel) {
  return kernel + "_grd_bound";
}

GrdArgs ComputeGrdArgs(BoundsCheckMode mode, std::uint64_t partition_base,
                       std::uint64_t partition_size) {
  switch (mode) {
    case BoundsCheckMode::kFencingBitwise:
      return {partition_base, PartitionMask(partition_size)};
    case BoundsCheckMode::kFencingModulo:
      return {partition_base, partition_size};
    case BoundsCheckMode::kChecking:
      return {partition_base, partition_base + partition_size};
  }
  return {};
}

Result<PatchedKernel> PatchKernel(const ptx::Kernel& kernel,
                                  const PatchOptions& options) {
  PatchedKernel result;
  Kernel& out = result.kernel;
  PatchStats& stats = result.stats;

  if (options.skip_statically_safe && IsStaticallySafe(kernel)) {
    out = kernel;  // provably cannot escape its partition: leave untouched
    ++stats.skipped_safe_kernels;
    return result;
  }

  out.name = kernel.name;
  out.is_entry = kernel.is_entry;
  out.visible = kernel.visible;
  out.params = kernel.params;

  // Reject name collisions with our reserved parameter names (would make
  // the augmented launch ambiguous).
  const std::string p0 = GrdParam0Name(kernel.name);
  const std::string p1 = GrdParam1Name(kernel.name);
  for (const Param& param : kernel.params) {
    if (param.name == p0 || param.name == p1)
      return Status(AlreadyExists("kernel " + kernel.name +
                                  " already has a Guardian parameter"));
  }

  // (1) two extra parameters (Listing 1 lines 5, 7).
  Param base_param;
  base_param.type = Type::kU64;
  base_param.name = p0;
  Param bound_param;
  bound_param.type = Type::kU64;
  bound_param.name = p1;
  out.params.push_back(base_param);
  out.params.push_back(bound_param);
  stats.extra_params = 2;

  GRD_RETURN_IF_ERROR(EmitBody(kernel, options, p0, p1, out, stats));

  // The counter is defined as the exact emitted-body delta; computing it
  // from the final bodies keeps it honest for fences, elided fences and
  // offset materializations alike.
  stats.inserted_instructions =
      CountInstructions(out.body) - CountInstructions(kernel.body);
  return result;
}

Result<ptx::Module> PatchModule(const ptx::Module& module,
                                const PatchOptions& options,
                                PatchStats* aggregate) {
  ptx::Module out;
  out.version = module.version;
  out.target = module.target;
  out.address_size = module.address_size;
  out.globals = module.globals;
  out.kernels.reserve(module.kernels.size());
  for (const ptx::Kernel& kernel : module.kernels) {
    GRD_ASSIGN_OR_RETURN(PatchedKernel patched, PatchKernel(kernel, options));
    if (aggregate != nullptr) *aggregate += patched.stats;
    out.kernels.push_back(std::move(patched.kernel));
  }
  return out;
}

}  // namespace grd::ptxpatcher
