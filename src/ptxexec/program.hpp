// One-time PTX-to-bytecode compilation for the functional interpreter.
//
// The string-map interpreter (interpreter.cpp's reference engine) pays
// per-step costs native hardware never would: register names hashed into
// per-thread unordered_maps, opcodes dispatched by string compare, branch
// targets / params / shared variables resolved through string maps, and a
// `name.find('.')` special-register scan on every register read. CompileKernel
// pays all of those costs exactly once, lowering a parsed (and possibly
// patched) kernel into a CompiledKernel:
//  - opcodes become a dense enum (`COp` + alu/compare sub-ops);
//  - register names are interned to dense uint16 slots, so a thread's
//    register file is a flat uint64 array indexed by slot;
//  - special registers (%tid.x, %ctaid.y, ...) become a compile-time operand
//    kind with an enum id — no per-access string scan;
//  - immediates are pre-encoded into the bit pattern the consuming
//    instruction reads (float immediates per the operand's read type);
//  - labels and brx.idx branch tables are resolved to instruction indices;
//  - ld.param name lookups become parameter indices, shared variables become
//    pre-tagged absolute offsets into the block's shared segment.
//
// Error semantics match the reference engine: anything the old interpreter
// only raised when an instruction was actually *stepped on* (unimplemented
// opcodes, unknown special registers, malformed modifier lists, dangling
// branch targets) compiles into a kError instruction that reproduces the
// same status when — and only when — execution reaches it. Compilation
// itself fails only where PrepareKernel used to fail (duplicate labels) or
// on hard structural limits (too many registers for uint16 slots).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "ptx/ast.hpp"
#include "ptxexec/launch.hpp"

namespace grd::ptxexec {

// Special registers resolved at compile time (the reference engine re-parses
// the register name on every read).
enum class SpecialReg : std::uint8_t {
  kTidX, kTidY, kTidZ,
  kNtidX, kNtidY, kNtidZ,
  kCtaidX, kCtaidY, kCtaidZ,
  kNctaidX, kNctaidY, kNctaidZ,
  kLaneId, kWarpSize,
};

// A pre-decoded source operand: reading one is a switch on `kind` plus an
// array index — never a hash or a string compare.
struct OperandDesc {
  enum class Kind : std::uint8_t { kReg, kImm, kSpecial };
  Kind kind = Kind::kImm;
  SpecialReg sreg = SpecialReg::kTidX;  // kSpecial
  std::uint16_t slot = 0;               // kReg: dense register slot
  std::uint64_t imm = 0;                // kImm: pre-encoded bit pattern
};

// Dense opcode set. Families that share an execution shape share a COp and
// carry an alu/compare discriminator in CompiledInst::sub.
enum class COp : std::uint8_t {
  kLdParam,   // dst <- launch arg [param_index], masked to width
  kLd,        // dst (or vec lanes) <- memory at a + mem_offset
  kSt,        // memory at a + mem_offset <- b (or vec lanes)
  kMov,       // dst <- a (also cvta: identity in the flat address space)
  kCvt,       // dst <- convert(a, src_type -> type)
  kBinary,    // dst <- a (BinAlu) b
  kMad,       // dst <- a * b + c (sub: 0 = masked, 1 = wide)
  kUnary,     // dst <- (UnAlu) a
  kSetp,      // dst <- a (CmpOp) b, as 0/1
  kSelp,      // dst <- (c & 1) ? a : b
  kBra,       // pc <- target
  kBrx,       // pc <- branch_tables[target][a], faulting out of range
  kBar,       // barrier (block-wide phase boundary)
  kRetExit,   // thread done
  kTrap,      // bounds-check trap: device fault
  kError,     // reproduces a reference-engine step-time error when reached
  kFused,     // superinstruction: executes fused_micro[target .. target+sub)
};

enum class BinAlu : std::uint8_t {
  kAdd, kSub, kMul, kMulWide, kMulHi, kDiv, kRem, kMin, kMax,
  kAnd, kOr, kXor, kShl, kShr,
};

enum class UnAlu : std::uint8_t { kNeg, kAbs, kNot, kSqrt };

enum class CmpOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

inline constexpr std::uint16_t kNoPredSlot = 0xFFFF;

// One lowered instruction. Wide but flat: execution touches a handful of
// fields selected by `op`, and the array layout keeps the decode loop free
// of pointer chasing.
struct CompiledInst {
  COp op = COp::kRetExit;
  std::uint8_t sub = 0;  // BinAlu / UnAlu / CmpOp / vector lane count
  ptx::Type type = ptx::Type::kU64;      // operand type (width/signedness)
  ptx::Type src_type = ptx::Type::kU64;  // kCvt source type
  std::uint8_t width = 8;                // TypeSize(type), cached
  bool is_float = false;
  bool is_signed = false;

  // Guard predicate (`@%p` / `@!%p`); kNoPredSlot = unguarded.
  std::uint16_t pred_slot = kNoPredSlot;
  bool pred_negated = false;

  std::uint16_t dst = 0;  // destination register slot
  OperandDesc a, b, c;    // sources; kLd/kSt address base lives in `a`
  std::int64_t mem_offset = 0;
  std::uint16_t param_index = 0;
  // kBra: target pc. kBrx: branch-table index. kLdParam/kError: index into
  // CompiledKernel::strings (parameter name / error message).
  std::uint32_t target = 0;
  std::array<std::uint16_t, 4> vec{};  // ld/st v2/v4 lane slots

  // kError payload: the status the reference engine produced at this step.
  StatusCode error_code = StatusCode::kInternal;
  // True when the reference engine raised it through Fault() (recording
  // DeviceFault detail), false for plain operand-resolution statuses.
  bool error_is_fault = false;
};

// Micro-opcode of one superinstruction component, pre-decoded by FuseKernel.
// The top-level bytecode pays (opcode dispatch + operand-kind switch +
// evaluator width/signedness dispatch) per instruction; a micro op folds all
// of that into one handler with width masks and sign-extension shifts
// computed at fusion time. Every component of a superinstruction is a micro op: an
// instruction without one (cvt, div/rem, min/max, mul.hi, mad.wide, unary
// ops, float setp/div/min/max, vector ld/st, sources other than a register
// or an immediate) ends the run and executes through its top-level handler.
// Each is bit-identical to the evaluator or handler it replaces.
enum class MicroOp : std::uint8_t {
  kMov,         // dst = a                       (unmasked, like COp::kMov)
  kMovSpecial,  // dst = special register a      (a holds the SpecialReg)
  kLdParam,     // dst = args[a] & mask; faults when the launch lacks arg a
  kAdd,         // dst = (a + b) & mask
  kSub,         // dst = (a - b) & mask
  kMulLo,       // dst = (a * b) & mask
  kMulWide,     // dst = a' * b', a'/b' sign- or zero-extended from width
  kAnd,         // dst = (a & b) & mask
  kOr,          // dst = (a | b) & mask
  kXor,         // dst = (a ^ b) & mask
  kShl,         // dst = ((a & mask) << (b & shmask)) & mask
  kShr,         // dst = (a' >> (b & shmask)) & mask   (a' per signedness)
  kMad,         // dst = (a * b + c) & mask            (mad.lo)
  kSetp,        // dst = compare(a, b) per cmp/signedness, as 0/1
  kSelp,        // dst = (c & 1) ? a : b               (unmasked, like kSelp)
  kAddF32,      // f32/f64 add, sub, mul and mad/fma: evaluated in double,
  kSubF32,      // rounded once to the destination type (EvalBinary and
  kMulF32,      // EvalMad exactly)
  kMadF32,
  kAddF64,
  kSubF64,
  kMulF64,
  kMadF64,
  kLd,          // dst = width bytes at a + c, sign-extended when is_signed
  kSt,          // width bytes at a + c = b
  kBra,         // next_pc = target (honoring the guard predicate); terminal
};

// One pre-decoded superinstruction component. Sources are resolved at fusion
// time: `a/b/c` holds either a raw immediate bit pattern or a register slot,
// selected by the matching bit in `src_imm` (unused sources are immediate 0,
// so the executor never reads the register file for them). ld/st keep their
// address displacement in `c` and kLdParam its parameter index in `a`, both
// as immediates.
struct FusedComp {
  MicroOp op = MicroOp::kMov;
  std::uint8_t cmp = 0;        // kSetp: CmpOp
  std::uint8_t src_imm = 0x7;  // bit 0/1/2: a/b/c is an immediate
  bool is_signed = false;      // kShr / kSetp / kMulWide / kLd signed variants
  std::uint8_t width = 8;      // kLd / kSt: access size in bytes
  std::uint8_t sx = 0;         // 64 - width*8: sign-extension shift
  std::uint8_t shmask = 63;    // width*8 - 1: shift-amount mask
  bool pred_negated = false;
  std::uint16_t dst = 0;
  std::uint16_t pred_slot = kNoPredSlot;  // kBra guard
  // kBra: target pc. kLdParam: strings index of the parameter name.
  std::uint32_t target = 0;
  std::uint64_t mask = ~0ull;  // MaskToWidth(x, width) precomputed
  std::uint64_t a = 0, b = 0, c = 0;  // register slot or immediate bits
};

// brx.idx target table with labels resolved to pcs. An entry whose label did
// not exist keeps kUnresolved and faults (NotFound, like the reference
// engine) only if that index is actually taken.
struct BranchTable {
  static constexpr std::uint32_t kUnresolved = 0xFFFF'FFFFu;
  std::vector<std::uint32_t> pcs;
  std::vector<std::uint32_t> label_strings;  // strings index per entry
};

// A kernel lowered to dense bytecode. Immutable after CompileKernel; shared
// across tenants via shared_ptr (the SandboxCache stores it next to the
// patched module, so a cache hit skips parse, patch AND compile).
struct CompiledKernel {
  std::string name;
  std::vector<CompiledInst> code;
  std::vector<BranchTable> branch_tables;
  std::vector<std::string> strings;  // cold-path message/name pool
  std::uint16_t reg_slots = 0;       // dense register-file size per thread
  std::size_t param_count = 0;
  std::uint64_t shared_size = 0;     // per-block shared segment, bytes

  // Fused programs only (FuseKernel). A kFused instruction at pc replaces
  // the first instruction of a fused run and executes the micro ops
  // fused_micro[target .. target+sub) back to back; the covered originals
  // at pc+1 .. pc+sub-1 stay in place, so a branch into the middle of a
  // fused region still executes them individually and no branch target
  // ever needs remapping.
  std::vector<FusedComp> fused_micro;
  std::uint32_t super_count = 0;         // kFused instructions emitted
  std::uint32_t fused_instructions = 0;  // original instructions covered
};

// Lowers one kernel. Fails only on structural problems PrepareKernel also
// rejected (duplicate labels) or hard limits (register/instruction counts
// beyond the index types); per-instruction problems compile into kError.
// The result is unfused; FuseKernel is the second, optional pass.
Result<CompiledKernel> CompileKernel(const ptx::Kernel& kernel);

// Upper bound on components per superinstruction. Generous relative to the
// patterns fusion targets (a fenced access is 3 instructions, a typical loop
// body under 10): patched saxpy's 25 fusable instructions take two runs,
// the second ending in its store, and patched sgemm's loop body two (2 and
// 15). The cap keeps `sub` meaningful and faults mid-run cheap to attribute.
inline constexpr unsigned kMaxFusedRun = 16;

// Rewrites a compiled program with superinstructions: straight-line runs
// of micro-lowerable instructions — mad+setp+bra loop heads, ld+op+st
// bodies, and the patcher's guard-check+access pairs — collapse so one
// dispatch retires the whole run. Pure and total: never fails, never
// changes program length or branch targets, and returns the input unchanged
// when nothing is fusable or the program is already fused. The result
// reports its rewrite in CompiledKernel::super_count / fused_instructions.
CompiledKernel FuseKernel(CompiledKernel kernel);

// Every kernel of a module, compiled and fused once. Kernels that failed to
// compile store their error and reproduce it at launch (matching the
// reference engine, which surfaced such errors per-Execute).
class CompiledModule {
 public:
  static std::shared_ptr<const CompiledModule> Compile(
      const ptx::Module& module);

  // The fused kernel, NotFound ("kernel X not in module" — the reference
  // engine's message) for unknown names, or the kernel's compile error
  // (never NotFound: compilation fails only with InvalidArgument).
  Result<std::shared_ptr<const CompiledKernel>> Find(
      std::string_view kernel_name) const;

  // Superinstructions FuseKernel emitted across the module's kernels.
  std::uint64_t superinstructions() const noexcept {
    return superinstructions_;
  }

  // Heap bytes the program holds: the module and its entries plus every
  // compiled kernel's arrays (code, micro ops, branch tables, string pool).
  // Computed once by Compile.
  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  struct Entry {
    std::string name;
    std::shared_ptr<const CompiledKernel> kernel;  // null when compile failed
    Status error;
  };
  std::vector<Entry> entries_;
  std::uint64_t superinstructions_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace grd::ptxexec
