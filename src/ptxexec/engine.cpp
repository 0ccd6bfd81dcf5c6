// The kernel execution engine: one block executor, one dispatch loop.
//
// Every launch — sandboxed or native, through the manager or straight off a
// module — runs a CompiledKernel here. Programs normally arrive fused
// (CompiledModule::Compile applies FuseKernel), but any CompileKernel output
// is legal too: it simply has no kFused instructions to dispatch.
//
// The thread loop uses GNU labels-as-values (direct threading): each handler
// ends in one indirect goto through a per-opcode label table, so the branch
// predictor keys on opcode *pairs* instead of one shared switch site. The
// code already requires GCC or Clang (`unsigned __int128` below,
// `__builtin_popcountll` in the manager), so there is no portable fallback.
//
// Everything semantic lives here exactly once and must stay bit-identical to
// the reference interpreter (interpreter.cpp) — the parity suite diffs
// stats, faults and full memory images:
//  - the scalar evaluators (EvalBinary/EvalMad/EvalUnary/EvalSetp/EvalCvt),
//    which encode the masking / sign-extension / div-by-zero / shift-count
//    conventions;
//  - BlockExec, the per-block machine state (flat register file, shared
//    segment, operand reads, the one load/store path through the access
//    policy, fault recording, preemption-poll bookkeeping) and the dispatch
//    loop;
//  - Interpreter::Execute, the grid walk (checkpoint skip/resume, per-block
//    stats deltas, block-boundary safe points).
// A superinstruction executes its micro ops back to back. Each micro op is
// the bit-identical inline form of one evaluator or handler, and the run
// charges stats and instruction budget exactly where an unfused run would,
// so fusion cannot drift from the oracle.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxexec/launch.hpp"
#include "ptxexec/program.hpp"
#include "ptxexec/scalar_ops.hpp"
#include "simgpu/memory.hpp"

namespace grd::ptxexec {
namespace {

using scalar::AsF32;
using scalar::AsF64;
using scalar::F32Bits;
using scalar::F64Bits;
using scalar::MaskToWidth;
using scalar::SignExtend;

// The label tables in BlockExec::RunThread are indexed by COp and MicroOp
// and must cover the enums exactly.
static_assert(static_cast<unsigned>(COp::kFused) == 16,
              "COp changed: update the RunThread label table");
static_assert(static_cast<unsigned>(MicroOp::kBra) == 25,
              "MicroOp changed: update the RunThread micro label table");

// ---- scalar evaluators ------------------------------------------------------

inline std::uint64_t EvalCvt(ptx::Type dst_t, ptx::Type src_t,
                             std::uint64_t raw) {
  std::uint64_t out = 0;
  if (ptx::IsFloat(src_t) && ptx::IsFloat(dst_t)) {
    const double v = src_t == ptx::Type::kF64 ? AsF64(raw) : AsF32(raw);
    out = dst_t == ptx::Type::kF64 ? F64Bits(v)
                                   : F32Bits(static_cast<float>(v));
  } else if (ptx::IsFloat(src_t)) {
    const double v = src_t == ptx::Type::kF64 ? AsF64(raw) : AsF32(raw);
    out = MaskToWidth(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)),
                      ptx::TypeSize(dst_t));
  } else if (ptx::IsFloat(dst_t)) {
    const double v =
        ptx::IsSigned(src_t)
            ? static_cast<double>(SignExtend(raw, ptx::TypeSize(src_t)))
            : static_cast<double>(MaskToWidth(raw, ptx::TypeSize(src_t)));
    out = dst_t == ptx::Type::kF64 ? F64Bits(v)
                                   : F32Bits(static_cast<float>(v));
  } else {
    const std::uint64_t v =
        ptx::IsSigned(src_t)
            ? static_cast<std::uint64_t>(SignExtend(raw, ptx::TypeSize(src_t)))
            : MaskToWidth(raw, ptx::TypeSize(src_t));
    out = MaskToWidth(v, ptx::TypeSize(dst_t));
  }
  return out;
}

inline std::uint64_t EvalBinary(const CompiledInst& inst, std::uint64_t a,
                                std::uint64_t b) {
  const std::size_t width = inst.width;
  const auto alu = static_cast<BinAlu>(inst.sub);
  std::uint64_t out = 0;
  if (inst.is_float) {
    const bool f64 = inst.type == ptx::Type::kF64;
    const double x = f64 ? AsF64(a) : AsF32(a);
    const double y = f64 ? AsF64(b) : AsF32(b);
    double r = 0.0;
    switch (alu) {
      case BinAlu::kAdd: r = x + y; break;
      case BinAlu::kSub: r = x - y; break;
      case BinAlu::kMul: r = x * y; break;
      case BinAlu::kDiv: r = y == 0.0 ? 0.0 : x / y; break;
      case BinAlu::kMin: r = std::fmin(x, y); break;
      case BinAlu::kMax: r = std::fmax(x, y); break;
      default: break;  // unreachable: compiled to kError
    }
    out = f64 ? F64Bits(r) : F32Bits(static_cast<float>(r));
  } else if (alu == BinAlu::kMulWide) {
    // Unsigned arithmetic: a 64-bit signed product may overflow, and the
    // low 64 bits are the same either way.
    out = inst.is_signed
              ? static_cast<std::uint64_t>(SignExtend(a, width)) *
                    static_cast<std::uint64_t>(SignExtend(b, width))
              : MaskToWidth(a, width) * MaskToWidth(b, width);
  } else if (alu == BinAlu::kMulHi) {
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(MaskToWidth(a, width)) *
        MaskToWidth(b, width);
    out = MaskToWidth(static_cast<std::uint64_t>(prod >> (width * 8)), width);
  } else {
    const std::uint64_t ua = MaskToWidth(a, width);
    const std::uint64_t ub = MaskToWidth(b, width);
    const std::int64_t sa = SignExtend(a, width);
    const std::int64_t sb = SignExtend(b, width);
    switch (alu) {
      case BinAlu::kAdd: out = ua + ub; break;
      case BinAlu::kSub: out = ua - ub; break;
      case BinAlu::kMul: out = ua * ub; break;  // .lo
      // A signed divisor of -1 wraps like the hardware: INT_MIN / -1 is
      // INT_MIN and INT_MIN % -1 is 0 (the host's idiv would trap).
      case BinAlu::kDiv:
        out = ub == 0            ? 0
              : !inst.is_signed  ? ua / ub
              : sb == -1         ? 0 - ua
                                 : static_cast<std::uint64_t>(sa / sb);
        break;
      case BinAlu::kRem:
        out = ub == 0            ? 0
              : !inst.is_signed  ? ua % ub
              : sb == -1         ? 0
                                 : static_cast<std::uint64_t>(sa % sb);
        break;
      case BinAlu::kMin:
        out = inst.is_signed ? static_cast<std::uint64_t>(std::min(sa, sb))
                             : std::min(ua, ub);
        break;
      case BinAlu::kMax:
        out = inst.is_signed ? static_cast<std::uint64_t>(std::max(sa, sb))
                             : std::max(ua, ub);
        break;
      case BinAlu::kAnd: out = ua & ub; break;
      case BinAlu::kOr: out = ua | ub; break;
      case BinAlu::kXor: out = ua ^ ub; break;
      case BinAlu::kShl: out = ua << (ub & (width * 8 - 1)); break;
      case BinAlu::kShr:
        out = inst.is_signed
                  ? static_cast<std::uint64_t>(sa >> (ub & (width * 8 - 1)))
                  : ua >> (ub & (width * 8 - 1));
        break;
      default: break;  // kMulWide/kMulHi handled above
    }
    out = MaskToWidth(out, width);
  }
  return out;
}

inline std::uint64_t EvalMad(const CompiledInst& inst, std::uint64_t a,
                             std::uint64_t b, std::uint64_t c) {
  const std::size_t width = inst.width;
  std::uint64_t out = 0;
  if (inst.is_float) {
    const bool f64 = inst.type == ptx::Type::kF64;
    const double r = (f64 ? AsF64(a) : AsF32(a)) * (f64 ? AsF64(b) : AsF32(b)) +
                     (f64 ? AsF64(c) : AsF32(c));
    out = f64 ? F64Bits(r) : F32Bits(static_cast<float>(r));
  } else if (inst.sub == 1) {  // wide, in unsigned arithmetic like kMulWide
    out = static_cast<std::uint64_t>(SignExtend(a, width)) *
              static_cast<std::uint64_t>(SignExtend(b, width)) +
          c;
  } else {
    out = MaskToWidth(
        MaskToWidth(a, width) * MaskToWidth(b, width) + MaskToWidth(c, width),
        width);
  }
  return out;
}

inline std::uint64_t EvalUnary(const CompiledInst& inst, std::uint64_t a) {
  const std::size_t width = inst.width;
  std::uint64_t out = 0;
  if (inst.is_float) {
    const bool f64 = inst.type == ptx::Type::kF64;
    const double x = f64 ? AsF64(a) : AsF32(a);
    double r = 0.0;
    switch (static_cast<UnAlu>(inst.sub)) {
      case UnAlu::kNeg: r = -x; break;
      case UnAlu::kAbs: r = std::fabs(x); break;
      case UnAlu::kSqrt: r = std::sqrt(x); break;
      default: break;  // unreachable
    }
    out = f64 ? F64Bits(r) : F32Bits(static_cast<float>(r));
  } else {
    // In unsigned arithmetic, so the most negative value negates to itself.
    const std::int64_t sa = SignExtend(a, width);
    const std::uint64_t neg = 0 - static_cast<std::uint64_t>(sa);
    switch (static_cast<UnAlu>(inst.sub)) {
      case UnAlu::kNeg: out = MaskToWidth(neg, width); break;
      case UnAlu::kAbs:
        out = MaskToWidth(sa < 0 ? neg : static_cast<std::uint64_t>(sa),
                          width);
        break;
      case UnAlu::kNot: out = MaskToWidth(~a, width); break;
      default: break;  // unreachable
    }
  }
  return out;
}

template <typename T>
inline bool Compare(CmpOp cmp, T x, T y) {
  switch (cmp) {
    case CmpOp::kEq: return x == y;
    case CmpOp::kNe: return x != y;
    case CmpOp::kLt: return x < y;
    case CmpOp::kLe: return x <= y;
    case CmpOp::kGt: return x > y;
    case CmpOp::kGe: return x >= y;
  }
  return false;
}

inline bool EvalSetp(const CompiledInst& inst, std::uint64_t a,
                     std::uint64_t b) {
  const std::size_t width = inst.width;
  const auto cmp = static_cast<CmpOp>(inst.sub);
  if (inst.is_float) {
    const bool f64 = inst.type == ptx::Type::kF64;
    return Compare<double>(cmp, f64 ? AsF64(a) : AsF32(a),
                           f64 ? AsF64(b) : AsF32(b));
  }
  if (inst.is_signed)
    return Compare<std::int64_t>(cmp, SignExtend(a, width),
                                 SignExtend(b, width));
  return Compare<std::uint64_t>(cmp, MaskToWidth(a, width),
                                MaskToWidth(b, width));
}

// Sign-extends `bits` given the precomputed 64-width*8 shift (FusedComp::sx).
inline std::int64_t MicroSext(std::uint64_t bits, unsigned sx) {
  return static_cast<std::int64_t>(bits << sx) >> sx;
}

// ---- per-block machine state and dispatch loop ------------------------------

struct CThread {
  std::uint32_t pc = 0;
  bool done = false;
  std::uint32_t tid_x = 0, tid_y = 0, tid_z = 0;
  std::uint32_t ctaid_x = 0, ctaid_y = 0, ctaid_z = 0;
};

// Runs one block: the flat register file, the shared segment, operand and
// special-register reads, sized loads/stores routed through the tenant
// access policy, fault recording, and the instruction-budget /
// preemption-poll bookkeeping. A fresh executor per block, so the poll
// countdown and the latched preemption request restart at every block.
class BlockExec {
 public:
  BlockExec(const CompiledKernel& prog, const LaunchParams& params,
            simgpu::GlobalMemory* memory, simgpu::AccessPolicy* policy,
            std::uint64_t client, std::uint64_t max_instructions,
            ExecStats* stats, const ExecControls& controls)
      : prog_(prog),
        params_(params),
        memory_(memory),
        policy_(policy),
        client_(client),
        max_instructions_(max_instructions),
        stats_(stats),
        preempt_(controls.preempt_requested),
        preempt_check_interval_(controls.preempt_check_interval > 0
                                    ? controls.preempt_check_interval
                                    : 1),
        preempt_countdown_(preempt_check_interval_),
        shared_(prog.shared_size, 0) {}

  // Runs the block to completion (all threads), honoring bar.sync phases.
  Status RunBlock(std::uint32_t bx, std::uint32_t by, std::uint32_t bz);

  const DeviceFault& fault() const noexcept { return fault_; }
  // A preemption request observed by the every-N-instructions poll. The
  // block still runs to completion — the safe point is its boundary.
  bool preempt_latched() const noexcept { return preempt_latched_; }

 private:
  // Runs one thread until it finishes (*thread_done = true), parks at a
  // barrier (*thread_done = false), or faults (non-OK, detail in fault_).
  // Cache-line aligned so the handlers' layout does not depend on where the
  // linker places the function: unaligned, the same code measured up to 10%
  // apart between two binaries.
  [[gnu::aligned(64)]] Status RunThread(CThread& t, std::uint64_t* regs,
                                       bool* thread_done);

  std::uint64_t Special(const CThread& t, SpecialReg sreg) const {
    switch (sreg) {
      case SpecialReg::kTidX: return t.tid_x;
      case SpecialReg::kTidY: return t.tid_y;
      case SpecialReg::kTidZ: return t.tid_z;
      case SpecialReg::kNtidX: return params_.block.x;
      case SpecialReg::kNtidY: return params_.block.y;
      case SpecialReg::kNtidZ: return params_.block.z;
      case SpecialReg::kCtaidX: return t.ctaid_x;
      case SpecialReg::kCtaidY: return t.ctaid_y;
      case SpecialReg::kCtaidZ: return t.ctaid_z;
      case SpecialReg::kNctaidX: return params_.grid.x;
      case SpecialReg::kNctaidY: return params_.grid.y;
      case SpecialReg::kNctaidZ: return params_.grid.z;
      case SpecialReg::kLaneId: return t.tid_x % 32;
      case SpecialReg::kWarpSize: return 32;
    }
    return 0;
  }

  std::uint64_t ReadOp(const CThread& t, const std::uint64_t* regs,
                       const OperandDesc& desc) const {
    switch (desc.kind) {
      case OperandDesc::Kind::kReg: return regs[desc.slot];
      case OperandDesc::Kind::kImm: return desc.imm;
      case OperandDesc::Kind::kSpecial: return Special(t, desc.sreg);
    }
    return 0;
  }

  // The one path every ld/st lane takes, top-level or fused: the block's
  // shared segment for a tagged address, else the tenant access policy and
  // then GlobalMemory's in-page access. Alignment is checked by the caller,
  // once per instruction. Forced inline: as calls out of RunThread the
  // served sgemm ran about 5% slower (5 of 6 pairs).
  [[gnu::always_inline]] Status Load(std::uint64_t addr, std::size_t bytes,
                                     std::uint64_t* bits) {
    if (addr & scalar::kSharedTag) {
      const std::uint64_t off = addr & ~scalar::kSharedTag;
      if (off + bytes > shared_.size())
        return OutOfRange("shared access beyond block allocation");
      std::memcpy(bits, shared_.data() + off, bytes);
      ++stats_->shared_accesses;
      return OkStatus();
    }
    GRD_RETURN_IF_ERROR(policy_->CheckAccess(client_, addr, bytes, false));
    GRD_RETURN_IF_ERROR(memory_->ReadInPage(addr, bits, bytes));
    ++stats_->global_loads;
    return OkStatus();
  }

  [[gnu::always_inline]] Status Store(std::uint64_t addr, std::uint64_t bits,
                                      std::size_t bytes) {
    if (addr & scalar::kSharedTag) {
      const std::uint64_t off = addr & ~scalar::kSharedTag;
      if (off + bytes > shared_.size())
        return OutOfRange("shared access beyond block allocation");
      std::memcpy(shared_.data() + off, &bits, bytes);
      ++stats_->shared_accesses;
      return OkStatus();
    }
    GRD_RETURN_IF_ERROR(policy_->CheckAccess(client_, addr, bytes, true));
    GRD_RETURN_IF_ERROR(memory_->WriteInPage(addr, &bits, bytes));
    ++stats_->global_stores;
    return OkStatus();
  }

  // A scalar ld/st: the alignment check, then Load/Store. `*bits` holds the
  // loaded bytes zero-extended; a fault is recorded at `addr`.
  [[gnu::always_inline]] Status LdScalar(const CThread& t, std::uint64_t addr,
                                         std::size_t bytes,
                                         std::uint64_t* bits) {
    Status s = scalar::MisalignedGlobal(addr, bytes)
                   ? scalar::MisalignedAccess(addr, bytes, false)
                   : Load(addr, bytes, bits);
    if (!s.ok()) [[unlikely]]
      return Fault(std::move(s), addr, t);
    return s;
  }

  [[gnu::always_inline]] Status StScalar(const CThread& t, std::uint64_t addr,
                                         std::uint64_t bits,
                                         std::size_t bytes) {
    Status s = scalar::MisalignedGlobal(addr, bytes)
                   ? scalar::MisalignedAccess(addr, bytes, true)
                   : Store(addr, MaskToWidth(bits, bytes), bytes);
    if (!s.ok()) [[unlikely]]
      return Fault(std::move(s), addr, t);
    return s;
  }

  // Top-level ld/st, scalar or v2/v4. Neither advances the pc; faults are
  // recorded via Fault().
  Status DoLd(CThread& t, std::uint64_t* regs, const CompiledInst& inst) {
    const std::size_t width = inst.width;
    const std::uint64_t addr = ReadOp(t, regs, inst.a) +
                               static_cast<std::uint64_t>(inst.mem_offset);
    if (inst.sub == 1) {
      std::uint64_t bits = 0;
      GRD_RETURN_IF_ERROR(LdScalar(t, addr, width, &bits));
      // Sign-extend signed sub-64-bit loads so later s64 arithmetic works.
      regs[inst.dst] =
          inst.is_signed ? static_cast<std::uint64_t>(SignExtend(bits, width))
                         : bits;
      return OkStatus();
    }
    if (scalar::MisalignedGlobal(addr, width * inst.sub)) [[unlikely]]
      return Fault(scalar::MisalignedAccess(addr, width * inst.sub, false),
                   addr, t);
    for (int lane = 0; lane < inst.sub; ++lane) {
      std::uint64_t bits = 0;
      Status s = Load(addr + lane * width, width, &bits);
      if (!s.ok()) return Fault(std::move(s), addr, t);
      regs[inst.vec[lane]] = bits;
    }
    return OkStatus();
  }

  Status DoSt(CThread& t, std::uint64_t* regs, const CompiledInst& inst) {
    const std::size_t width = inst.width;
    const std::uint64_t addr = ReadOp(t, regs, inst.a) +
                               static_cast<std::uint64_t>(inst.mem_offset);
    if (inst.sub == 1) return StScalar(t, addr, ReadOp(t, regs, inst.b), width);
    if (scalar::MisalignedGlobal(addr, width * inst.sub)) [[unlikely]]
      return Fault(scalar::MisalignedAccess(addr, width * inst.sub, true),
                   addr, t);
    for (int lane = 0; lane < inst.sub; ++lane) {
      Status s = Store(addr + lane * width,
                       MaskToWidth(regs[inst.vec[lane]], width), width);
      if (!s.ok()) return Fault(std::move(s), addr, t);
    }
    return OkStatus();
  }

  Status MissingArgument(const CThread& t, std::uint32_t name_string) {
    return Fault(InvalidArgument("missing argument for parameter " +
                                 prog_.strings[name_string]),
                 0, t);
  }

  Status Fault(Status status, std::uint64_t addr, const CThread& t) {
    fault_ = DeviceFault{std::move(status), addr, LinearThreadId(t),
                         prog_.name};
    return fault_.status;
  }

  Status BudgetFault(const CThread& t) {
    return Fault(DeadlineExceeded("runaway kernel " + prog_.name +
                                  " exceeded instruction budget"),
                 0, t);
  }

  std::uint64_t LinearThreadId(const CThread& t) const {
    return static_cast<std::uint64_t>(t.ctaid_x) * params_.block.Count() +
           t.tid_x;
  }

  // Polls the preemption flag, resetting the every-N-instructions countdown.
  // Called once per dispatched instruction (a superinstruction charges its
  // remaining components through SpendCountdown).
  void PollPreempt() {
    if (preempt_ != nullptr && !preempt_latched_ &&
        --preempt_countdown_ == 0) {
      preempt_countdown_ = preempt_check_interval_;
      preempt_latched_ = preempt_->load(std::memory_order_relaxed);
    }
  }

  // Charges `count` additional instructions against the poll countdown in one
  // step (components beyond a superinstruction's first are not individually
  // dispatched, but the poll cadence must not stretch).
  void SpendCountdown(std::uint64_t count) {
    if (preempt_ == nullptr || preempt_latched_ || count == 0) return;
    if (preempt_countdown_ > count) {
      preempt_countdown_ -= count;
      return;
    }
    preempt_countdown_ = preempt_check_interval_;
    preempt_latched_ = preempt_->load(std::memory_order_relaxed);
  }

  const CompiledKernel& prog_;
  const LaunchParams& params_;
  simgpu::GlobalMemory* memory_;
  simgpu::AccessPolicy* policy_;
  std::uint64_t client_;
  std::uint64_t max_instructions_;
  ExecStats* stats_;
  const std::atomic<bool>* preempt_;
  std::uint64_t preempt_check_interval_;
  std::uint64_t preempt_countdown_;
  bool preempt_latched_ = false;
  std::vector<std::uint8_t> shared_;
  std::vector<std::uint64_t> regs_;  // nthreads x reg_slots, flat
  DeviceFault fault_;
};

Status BlockExec::RunBlock(std::uint32_t bx, std::uint32_t by,
                           std::uint32_t bz) {
  const std::uint64_t nthreads = params_.block.Count();
  // Thread i's registers are regs_[i * reg_slots .. (i+1) * reg_slots).
  std::vector<CThread> threads(nthreads);
  regs_.assign(nthreads * prog_.reg_slots, 0);
  for (std::uint64_t i = 0; i < nthreads; ++i) {
    auto& t = threads[i];
    t.tid_x = static_cast<std::uint32_t>(i % params_.block.x);
    t.tid_y =
        static_cast<std::uint32_t>((i / params_.block.x) % params_.block.y);
    t.tid_z = static_cast<std::uint32_t>(
        i / (static_cast<std::uint64_t>(params_.block.x) * params_.block.y));
    t.ctaid_x = bx;
    t.ctaid_y = by;
    t.ctaid_z = bz;
  }
  stats_->threads += nthreads;

  bool all_done = false;
  while (!all_done) {
    all_done = true;
    bool progressed = false;
    for (std::uint64_t i = 0; i < nthreads; ++i) {
      auto& t = threads[i];
      if (t.done) continue;
      // Run this thread until it blocks on a barrier or finishes.
      bool thread_done = false;
      const Status s =
          RunThread(t, regs_.data() + i * prog_.reg_slots, &thread_done);
      if (!s.ok()) return s;
      progressed = true;
      if (thread_done) t.done = true;
      if (!t.done) all_done = false;
    }
    if (!all_done && !progressed) {
      fault_ = DeviceFault{Internal("barrier deadlock in " + prog_.name), 0, 0,
                           prog_.name};
      return fault_.status;
    }
  }
  return OkStatus();
}

// Per-instruction prologue of every non-fused handler: bump the instruction
// count, then skip (pc+1) when a guard predicate disagrees.
#define GRD_GUARD()                                       \
  ++stats_->instructions;                                 \
  if (ip->pred_slot != kNoPredSlot) {                     \
    const bool grd_pred = (regs[ip->pred_slot] & 1) != 0; \
    if (grd_pred == ip->pred_negated) {                   \
      ++t.pc;                                             \
      goto dispatch;                                      \
    }                                                     \
  }

// Superinstruction micro ops are threaded like the top level: each handler
// reads the next component's sources and jumps through the micro label
// table, or to fused_done after the run's last component. On the served
// sgemm and saxpy this ran 4-10% faster than one switch in a loop.
#define GRD_MICRO_DISPATCH()                    \
  va = (m->src_imm & 1) ? m->a : regs[m->a];    \
  vb = (m->src_imm & 2) ? m->b : regs[m->b];    \
  goto* kMicroLabels[static_cast<unsigned>(m->op)]
#define GRD_NEXT_MICRO()              \
  if (++m == m_end) goto fused_done; \
  GRD_MICRO_DISPATCH()
#define GRD_MICRO_C() ((m->src_imm & 4) ? m->c : regs[m->c])

Status BlockExec::RunThread(CThread& t, std::uint64_t* regs,
                            bool* thread_done) {
  const CompiledInst* const code = prog_.code.data();
  const std::uint64_t code_size = prog_.code.size();
  const CompiledInst* ip = nullptr;
  std::uint64_t budget = max_instructions_;
  // Superinstruction state: the current and end component, the sources of
  // the current one, the components that run and the pc after the run.
  const FusedComp* m = nullptr;
  const FusedComp* m_end = nullptr;
  std::uint64_t va = 0, vb = 0;
  unsigned run = 0;
  std::uint32_t next_pc = 0;

  // Indexed by COp; order must match the enum (static_assert above).
  static const void* const kLabels[] = {
      &&op_kLdParam, &&op_kLd,      &&op_kSt,     &&op_kMov,
      &&op_kCvt,     &&op_kBinary,  &&op_kMad,    &&op_kUnary,
      &&op_kSetp,    &&op_kSelp,    &&op_kBra,    &&op_kBrx,
      &&op_kBar,     &&op_kRetExit, &&op_kTrap,   &&op_kError,
      &&op_kFused};
  // Indexed by MicroOp; order must match the enum (static_assert above).
  static const void* const kMicroLabels[] = {
      &&micro_kMov,     &&micro_kMovSpecial, &&micro_kLdParam,
      &&micro_kAdd,     &&micro_kSub,        &&micro_kMulLo,
      &&micro_kMulWide, &&micro_kAnd,        &&micro_kOr,
      &&micro_kXor,     &&micro_kShl,        &&micro_kShr,
      &&micro_kMad,     &&micro_kSetp,       &&micro_kSelp,
      &&micro_kAddF32,  &&micro_kSubF32,     &&micro_kMulF32,
      &&micro_kMadF32,  &&micro_kAddF64,     &&micro_kSubF64,
      &&micro_kMulF64,  &&micro_kMadF64,     &&micro_kLd,
      &&micro_kSt,      &&micro_kBra};

dispatch:
  if (budget-- == 0) return BudgetFault(t);
  PollPreempt();
  if (t.pc >= code_size) {
    *thread_done = true;
    return OkStatus();
  }
  ip = &code[t.pc];
  goto* kLabels[static_cast<unsigned>(ip->op)];

op_kLdParam : {
  GRD_GUARD();
  if (ip->param_index >= params_.args.size())
    return MissingArgument(t, ip->target);
  regs[ip->dst] = MaskToWidth(params_.args[ip->param_index].bits, ip->width);
  ++t.pc;
  goto dispatch;
}

op_kLd : {
  GRD_GUARD();
  const Status s = DoLd(t, regs, *ip);
  if (!s.ok()) return s;
  ++t.pc;
  goto dispatch;
}

op_kSt : {
  GRD_GUARD();
  const Status s = DoSt(t, regs, *ip);
  if (!s.ok()) return s;
  ++t.pc;
  goto dispatch;
}

op_kMov : {
  GRD_GUARD();
  regs[ip->dst] = ReadOp(t, regs, ip->a);
  ++t.pc;
  goto dispatch;
}

op_kCvt : {
  GRD_GUARD();
  regs[ip->dst] = EvalCvt(ip->type, ip->src_type, ReadOp(t, regs, ip->a));
  ++t.pc;
  goto dispatch;
}

op_kBinary : {
  GRD_GUARD();
  regs[ip->dst] =
      EvalBinary(*ip, ReadOp(t, regs, ip->a), ReadOp(t, regs, ip->b));
  ++t.pc;
  goto dispatch;
}

op_kMad : {
  GRD_GUARD();
  regs[ip->dst] = EvalMad(*ip, ReadOp(t, regs, ip->a), ReadOp(t, regs, ip->b),
                          ReadOp(t, regs, ip->c));
  ++t.pc;
  goto dispatch;
}

op_kUnary : {
  GRD_GUARD();
  regs[ip->dst] = EvalUnary(*ip, ReadOp(t, regs, ip->a));
  ++t.pc;
  goto dispatch;
}

op_kSetp : {
  GRD_GUARD();
  regs[ip->dst] =
      EvalSetp(*ip, ReadOp(t, regs, ip->a), ReadOp(t, regs, ip->b)) ? 1 : 0;
  ++t.pc;
  goto dispatch;
}

op_kSelp : {
  GRD_GUARD();
  const std::uint64_t a = ReadOp(t, regs, ip->a);
  const std::uint64_t b = ReadOp(t, regs, ip->b);
  const std::uint64_t p = ReadOp(t, regs, ip->c);
  regs[ip->dst] = (p & 1) ? a : b;
  ++t.pc;
  goto dispatch;
}

op_kBra : {
  GRD_GUARD();
  t.pc = ip->target;
  goto dispatch;
}

op_kBrx : {
  // brx.idx %index, table; — the paper's unsafe indirect branch (§3):
  // out-of-range indices are modeled as a device fault; Guardian's patch
  // clamps the index so the patched kernel cannot reach it.
  GRD_GUARD();
  const std::uint64_t idx = ReadOp(t, regs, ip->a);
  const BranchTable& table = prog_.branch_tables[ip->target];
  if (idx >= table.pcs.size())
    return Fault(OutOfRange("brx.idx index " + std::to_string(idx) +
                            " outside table of " +
                            std::to_string(table.pcs.size())),
                 idx, t);
  const std::uint32_t target = table.pcs[idx];
  if (target == BranchTable::kUnresolved)
    return Fault(Status(StatusCode::kNotFound,
                        prog_.strings[table.label_strings[idx]]),
                 0, t);
  t.pc = target;
  goto dispatch;
}

op_kBar : {
  GRD_GUARD();
  ++t.pc;
  *thread_done = false;
  return OkStatus();
}

op_kRetExit : {
  GRD_GUARD();
  *thread_done = true;
  return OkStatus();
}

op_kTrap : {
  // Emitted by the address-checking instrumentation on a bounds violation.
  GRD_GUARD();
  return Fault(OutOfRange("bounds check trap in kernel " + prog_.name), 0, t);
}

op_kError : {
  GRD_GUARD();
  Status status(ip->error_code, prog_.strings[ip->target]);
  if (ip->error_is_fault) return Fault(std::move(status), 0, t);
  return status;
}

op_kFused : {
  // One dispatch retires the whole run. The preamble charged budget and poll
  // for component 0. When the budget covers the rest, the run charges it and
  // the instruction count once; otherwise only the components before the
  // trip run, and the trip is reported where an unfused run reports it. The
  // poll countdown is charged in bulk after the run. A fault mid-run ends
  // the launch and its stats are discarded, so the count charged for the
  // components after it is never read.
  const unsigned count = ip->sub;
  run = budget >= count - 1 ? count : static_cast<unsigned>(budget) + 1;
  budget -= run - 1;
  stats_->instructions += run;
  next_pc = t.pc + count;
  m = &prog_.fused_micro[ip->target];
  m_end = m + run;
  GRD_MICRO_DISPATCH();
}

fused_done:
  if (run < ip->sub) return BudgetFault(t);
  t.pc = next_pc;
  SpendCountdown(ip->sub - 1);
  goto dispatch;

micro_kMov:
  regs[m->dst] = va;
  GRD_NEXT_MICRO();

micro_kMovSpecial:
  regs[m->dst] = Special(t, static_cast<SpecialReg>(m->a));
  GRD_NEXT_MICRO();

micro_kLdParam:
  if (m->a >= params_.args.size()) [[unlikely]]
    return MissingArgument(t, m->target);
  regs[m->dst] = params_.args[m->a].bits & m->mask;
  GRD_NEXT_MICRO();

micro_kAdd:
  regs[m->dst] = (va + vb) & m->mask;
  GRD_NEXT_MICRO();

micro_kSub:
  regs[m->dst] = (va - vb) & m->mask;
  GRD_NEXT_MICRO();

micro_kMulLo:
  regs[m->dst] = (va * vb) & m->mask;
  GRD_NEXT_MICRO();

micro_kMulWide:
  regs[m->dst] = m->is_signed
                     ? static_cast<std::uint64_t>(MicroSext(va, m->sx)) *
                           static_cast<std::uint64_t>(MicroSext(vb, m->sx))
                     : (va & m->mask) * (vb & m->mask);
  GRD_NEXT_MICRO();

micro_kAnd:
  regs[m->dst] = va & vb & m->mask;
  GRD_NEXT_MICRO();

micro_kOr:
  regs[m->dst] = (va | vb) & m->mask;
  GRD_NEXT_MICRO();

micro_kXor:
  regs[m->dst] = (va ^ vb) & m->mask;
  GRD_NEXT_MICRO();

micro_kShl:
  regs[m->dst] = (va << (vb & m->shmask)) & m->mask;
  GRD_NEXT_MICRO();

micro_kShr:
  regs[m->dst] = (m->is_signed ? static_cast<std::uint64_t>(
                                     MicroSext(va, m->sx) >> (vb & m->shmask))
                               : (va & m->mask) >> (vb & m->shmask)) &
                 m->mask;
  GRD_NEXT_MICRO();

micro_kMad:
  regs[m->dst] = (va * vb + GRD_MICRO_C()) & m->mask;
  GRD_NEXT_MICRO();

micro_kSetp:
  regs[m->dst] =
      (m->is_signed ? Compare<std::int64_t>(static_cast<CmpOp>(m->cmp),
                                            MicroSext(va, m->sx),
                                            MicroSext(vb, m->sx))
                    : Compare<std::uint64_t>(static_cast<CmpOp>(m->cmp),
                                             va & m->mask, vb & m->mask))
          ? 1
          : 0;
  GRD_NEXT_MICRO();

micro_kSelp:
  regs[m->dst] = (GRD_MICRO_C() & 1) ? va : vb;
  GRD_NEXT_MICRO();

micro_kAddF32:
  regs[m->dst] = F32Bits(static_cast<float>(static_cast<double>(AsF32(va)) +
                                            static_cast<double>(AsF32(vb))));
  GRD_NEXT_MICRO();

micro_kSubF32:
  regs[m->dst] = F32Bits(static_cast<float>(static_cast<double>(AsF32(va)) -
                                            static_cast<double>(AsF32(vb))));
  GRD_NEXT_MICRO();

micro_kMulF32:
  regs[m->dst] = F32Bits(static_cast<float>(static_cast<double>(AsF32(va)) *
                                            static_cast<double>(AsF32(vb))));
  GRD_NEXT_MICRO();

micro_kMadF32:
  regs[m->dst] = F32Bits(static_cast<float>(
      static_cast<double>(AsF32(va)) * static_cast<double>(AsF32(vb)) +
      static_cast<double>(AsF32(GRD_MICRO_C()))));
  GRD_NEXT_MICRO();

micro_kAddF64:
  regs[m->dst] = F64Bits(AsF64(va) + AsF64(vb));
  GRD_NEXT_MICRO();

micro_kSubF64:
  regs[m->dst] = F64Bits(AsF64(va) - AsF64(vb));
  GRD_NEXT_MICRO();

micro_kMulF64:
  regs[m->dst] = F64Bits(AsF64(va) * AsF64(vb));
  GRD_NEXT_MICRO();

micro_kMadF64:
  regs[m->dst] = F64Bits(AsF64(va) * AsF64(vb) + AsF64(GRD_MICRO_C()));
  GRD_NEXT_MICRO();

micro_kLd : {
  std::uint64_t bits = 0;
  const Status s = LdScalar(t, va + m->c, m->width, &bits);
  if (!s.ok()) [[unlikely]]
    return s;
  regs[m->dst] =
      m->is_signed ? static_cast<std::uint64_t>(MicroSext(bits, m->sx)) : bits;
}
  GRD_NEXT_MICRO();

micro_kSt : {
  const Status s = StScalar(t, va + m->c, vb, m->width);
  if (!s.ok()) [[unlikely]]
    return s;
}
  GRD_NEXT_MICRO();

micro_kBra:
  // Only a run's terminal component; when its guard is false the branch
  // simply doesn't retire, like a skipped instruction.
  if (m->pred_slot == kNoPredSlot ||
      ((regs[m->pred_slot] & 1) != 0) != m->pred_negated)
    next_pc = m->target;
  GRD_NEXT_MICRO();
}

#undef GRD_NEXT_MICRO
#undef GRD_MICRO_DISPATCH
#undef GRD_MICRO_C
#undef GRD_GUARD

}  // namespace

Result<ExecStats> Interpreter::Execute(const CompiledKernel& kernel,
                                       const LaunchParams& params) {
  return Execute(kernel, params, ExecControls{});
}

Result<ExecStats> Interpreter::Execute(const CompiledKernel& kernel,
                                       const LaunchParams& params,
                                       const ExecControls& controls) {
  KernelCheckpoint* ckpt = controls.checkpoint;
  const std::uint64_t total_blocks = params.grid.Count();
  if (ckpt != nullptr) {
    if (ckpt->valid && ckpt->blocks_total != total_blocks)
      return Status(
          InvalidArgument("checkpoint does not match launch geometry"));
    ckpt->blocks_total = total_blocks;
  }
  // Resume accumulates into the checkpointed totals, so at completion the
  // stats cover every block exactly once regardless of how many times the
  // kernel was suspended.
  ExecStats stats =
      (ckpt != nullptr && ckpt->valid) ? ckpt->stats : ExecStats{};

  auto preempt_pending = [&]() -> bool {
    return ckpt != nullptr && controls.preempt_requested != nullptr &&
           controls.preempt_requested->load(std::memory_order_relaxed);
  };

  std::uint64_t linear = 0;
  for (std::uint32_t bz = 0; bz < params.grid.z; ++bz) {
    for (std::uint32_t by = 0; by < params.grid.y; ++by) {
      for (std::uint32_t bx = 0; bx < params.grid.x; ++bx, ++linear) {
        if (ckpt != nullptr && ckpt->valid && ckpt->Done(linear)) continue;
        const ExecStats before = stats;
        BlockExec block(kernel, params, memory_, policy_, client_,
                        max_instructions_per_thread_, &stats, controls);
        const Status s = block.RunBlock(bx, by, bz);
        if (!s.ok()) {
          // A tripped instruction budget keeps the checkpoint (every block
          // before the runaway one), so the caller may requeue instead of
          // killing; any other fault invalidates nothing the caller should
          // resume from.
          if (ckpt != nullptr && s.code() == StatusCode::kDeadlineExceeded)
            ckpt->stats = stats;
          last_fault_ = block.fault();
          return s;
        }
        ++stats.blocks;
        if (ckpt != nullptr) {
          ckpt->MarkDone(linear);
          ckpt->stats = stats;
        }
        if (controls.after_block) {
          ExecStats delta;
          delta.instructions = stats.instructions - before.instructions;
          delta.global_loads = stats.global_loads - before.global_loads;
          delta.global_stores = stats.global_stores - before.global_stores;
          delta.shared_accesses =
              stats.shared_accesses - before.shared_accesses;
          delta.threads = stats.threads - before.threads;
          delta.blocks = 1;
          controls.after_block(delta);
        }
        // Safe point: between blocks. Yield only when there is work left —
        // a fully executed kernel completes normally.
        if ((block.preempt_latched() || preempt_pending()) && ckpt != nullptr &&
            ckpt->blocks_done < total_blocks) {
          return Status(Unavailable(
              "kernel " + kernel.name + " preempted at safe point (" +
              std::to_string(ckpt->blocks_done) + "/" +
              std::to_string(total_blocks) + " blocks done)"));
        }
      }
    }
  }
  return stats;
}

Result<ExecStats> Interpreter::Execute(const ptx::Module& module,
                                       std::string_view kernel_name,
                                       const LaunchParams& params) {
  return Execute(module, kernel_name, params, ExecControls{});
}

Result<ExecStats> Interpreter::Execute(const ptx::Module& module,
                                       std::string_view kernel_name,
                                       const LaunchParams& params,
                                       const ExecControls& controls) {
  const ptx::Kernel* kernel = module.FindKernel(kernel_name);
  if (kernel == nullptr)
    return Status(NotFound("kernel " + std::string(kernel_name) +
                           " not in module"));
  GRD_ASSIGN_OR_RETURN(CompiledKernel compiled, CompileKernel(*kernel));
  return Execute(FuseKernel(std::move(compiled)), params, controls);
}

}  // namespace grd::ptxexec
