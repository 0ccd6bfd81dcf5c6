// The kernel execution engine: one block executor, one dispatch loop.
//
// Every launch — sandboxed or native, through the manager or straight off a
// module — runs a CompiledKernel here. Programs normally arrive fused
// (CompiledModule::Compile applies FuseKernel), but any CompileKernel output
// is legal too: it simply has no kFused instructions to dispatch.
//
// A block runs phase by phase (one bar.sync round each), and a phase runs
// as one lockstep group of the block's live threads: each dispatch retires
// its instruction for every lane of the group (BlockExec). A phase whose
// lockstep result could differ from thread order rolls back and replays
// one thread at a time through the same executor.
//
// The dispatch loop uses GNU labels-as-values: each handler ends in its own
// indirect goto through a per-opcode label table (GCC merges many of those
// jumps, so the branch predictor does not reliably key on opcode pairs;
// with dispatch paid once per group, that matters little). The code
// already requires GCC or Clang (`unsigned __int128` below,
// `__builtin_popcountll` in the manager), so there is no portable fallback.
//
// Everything semantic lives here exactly once and must stay bit-identical to
// the reference interpreter (reference.cpp) — the parity suite diffs
// stats, faults and full memory images:
//  - the scalar evaluators (EvalBinary/EvalMad/EvalUnary/EvalSetp/EvalCvt),
//    which encode the masking / sign-extension / div-by-zero / shift-count
//    conventions;
//  - AccessLog, what a lockstep attempt loaded and stored: its store
//    buffer and conflict check;
//  - BlockExec, the per-block machine state (slot-major register file,
//    shared segment, operand reads, the one load/store path (through the
//    access policy when one is set), fault recording, preemption-poll
//    bookkeeping), the phase loop with its rollback and replay, and the
//    dispatch loop;
//  - Interpreter::Execute, the grid walk (checkpoint skip/resume, per-block
//    stats deltas, block-boundary safe points).
// A superinstruction executes its micro ops back to back, each across the
// group's lanes. Each micro op is the bit-identical inline form of one
// evaluator or handler, and the run charges stats and instruction budget
// exactly where an unfused run would, so fusion cannot drift from the
// oracle.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.hpp"
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

// The label tables in BlockExec::RunGroup are indexed by COp and MicroOp
// and must cover the enums exactly.
static_assert(static_cast<unsigned>(COp::kFused) == 16,
              "COp changed: update the RunGroup label table");
static_assert(static_cast<unsigned>(MicroOp::kBra) == 25,
              "MicroOp changed: update the RunGroup micro label table");

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
    out = scalar::FloatToInt(v, ptx::TypeSize(dst_t), ptx::IsSigned(dst_t));
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

// ---- the phase access log ---------------------------------------------------

// What a multi-lane attempt loads and stores, global and shared alike (a
// shared address carries kSharedTag): every load's (address, size, lane) and
// every store's value, in the order the attempt made them. The stores are
// the attempt's store buffer; nothing reaches memory before Commit.
//
// Thread order runs lane 0's whole phase, then lane 1's, and so on. A
// lockstep attempt therefore leaves what thread order leaves when no lane
// loads a byte a lower lane stores:
//  - a load that meets buffered stores reads the lane's own latest bytes,
//    or memory where only higher lanes stored (thread order has not run
//    them yet); a lower lane's store stops the attempt at once;
//  - at phase end, the logged loads inside the stored address ranges are
//    checked for a lower lane's store that came after them;
//  - the commit writes lane by lane, each lane's stores in program order,
//    so a byte several lanes store ends with the highest lane's last value,
//    thread order's last write.
//
// Bounded: an attempt that logs kMaxLoads loads or kMaxStores stores, or
// whose loads compare more than kMaxScan buffered stores, stops (kLogBound),
// so a kernel can make the engine neither allocate nor scan without bound.
// One log per executor thread, reused across launches; the arrays are
// filled in order, so a launch after an idle gap touches few cold lines.
class AccessLog {
 public:
  static constexpr std::uint32_t kMaxLoads = 1u << 15;
  static constexpr std::uint32_t kMaxStores = 1u << 12;
  static constexpr std::uint64_t kMaxScan = std::uint64_t{1} << 22;
  // Stores CheckLoads' cursor steps over before it searches instead.
  static constexpr std::ptrdiff_t kCursorWalk = 8;

  AccessLog()
      : loads_(new LoggedLoad[kMaxLoads]),
        stores_(new BufferedStore[kMaxStores]),
        by_address_(new BufferedStore[kMaxStores]) {}

  void Reset() {
    n_loads_ = n_stores_ = 0;
    scanned_ = 0;
    global_ = shared_ = Range{};
  }

  // Logs `lane`'s load of [addr, addr + bytes), whose bytes in memory are
  // *value, and merges in the lane's own buffered bytes. Returns false, with
  // *cause set, when the attempt must stop. Inlined with its caller, so
  // *value stays in the caller's register.
  [[gnu::always_inline]] bool Load(std::uint32_t lane, std::uint64_t addr,
                                   std::size_t bytes, std::uint64_t* value,
                                   ReplayCause* cause) {
    if (n_loads_ == kMaxLoads) [[unlikely]]
      return Stop(ReplayCause::kLogBound, cause);
    loads_[n_loads_++] =
        LoggedLoad{addr, lane, static_cast<std::uint32_t>(bytes)};
    if (!RangeOf(addr).Overlaps(addr, bytes)) return true;
    const std::optional<std::uint64_t> merged =
        ReadStored(lane, addr, bytes, *value, cause);
    if (!merged) return false;
    *value = *merged;
    return true;
  }

  // Buffers `lane`'s store; false, with *cause set, when the buffer is full.
  [[gnu::always_inline]] bool Store(std::uint32_t lane, std::uint64_t addr,
                                    std::size_t bytes, std::uint64_t value,
                                    ReplayCause* cause) {
    if (n_stores_ == kMaxStores) [[unlikely]]
      return Stop(ReplayCause::kLogBound, cause);
    stores_[n_stores_++] =
        BufferedStore{addr, value, lane, static_cast<std::uint32_t>(bytes)};
    RangeOf(addr).Add(addr, bytes);
    return true;
  }

  // Phase end: false (kConflict) when a logged load read bytes a lower lane
  // stored after it.
  bool CheckLoads(ReplayCause* cause) {
    if (n_stores_ == 0) return true;
    const auto by_addr = [](const BufferedStore& a, const BufferedStore& b) {
      return a.addr < b.addr;
    };
    // Lanes storing in address order, the common case, need no sort.
    const BufferedStore* first = stores_.get();
    const BufferedStore* last = first + n_stores_;
    if (!std::is_sorted(first, last, by_addr)) {
      std::copy(first, last, by_address_.get());
      std::sort(by_address_.get(), by_address_.get() + n_stores_, by_addr);
      first = by_address_.get();
      last = first + n_stores_;
    }
    // `cursor` is the first store at or above `from` of the previous load
    // in the stored ranges. The loads of one instruction come in lane order,
    // usually ascending in address, so the next search starts there and
    // walks a few stores; an address that goes backwards, or a longer walk,
    // searches the whole array.
    const BufferedStore* cursor = first;
    std::uint64_t cursor_from = 0;
    for (std::uint32_t i = 0; i < n_loads_; ++i) {
      const LoggedLoad& load = loads_[i];
      if (!RangeOf(load.addr).Overlaps(load.addr, load.bytes)) continue;
      // An access is at most 8 bytes, so only stores starting within 7
      // bytes below the load can reach it.
      const std::uint64_t from =
          load.addr - std::min<std::uint64_t>(load.addr, 7);
      const BufferedStore key{from, 0, 0, 0};
      if (from < cursor_from) {
        cursor = std::lower_bound(first, last, key, by_addr);
      } else {
        const BufferedStore* const walk_end =
            cursor + std::min<std::ptrdiff_t>(kCursorWalk, last - cursor);
        while (cursor != walk_end && cursor->addr < from) ++cursor;
        if (cursor != last && cursor->addr < from)
          cursor = std::lower_bound(cursor, last, key, by_addr);
      }
      cursor_from = from;
      for (const BufferedStore* s = cursor;
           s != last && s->addr < load.addr + load.bytes; ++s) {
        if (s->addr + s->bytes > load.addr && s->lane < load.lane)
          return Stop(ReplayCause::kConflict, cause);
      }
    }
    return true;
  }

  // Calls write(address, value, bytes) for every buffered store in thread
  // order: lane by lane, each lane's stores in program order.
  template <typename Write>
  void Commit(Write&& write) {
    BufferedStore* const first = stores_.get();
    const auto by_lane = [](const BufferedStore& a, const BufferedStore& b) {
      return a.lane < b.lane;
    };
    if (!std::is_sorted(first, first + n_stores_, by_lane))
      std::stable_sort(first, first + n_stores_, by_lane);
    for (std::uint32_t i = 0; i < n_stores_; ++i)
      write(first[i].addr, first[i].value, first[i].bytes);
  }

 private:
  struct LoggedLoad {
    std::uint64_t addr;
    std::uint32_t lane;
    std::uint32_t bytes;
  };
  struct BufferedStore {
    std::uint64_t addr;
    std::uint64_t value;
    std::uint32_t lane;
    std::uint32_t bytes;
  };
  // The address range one memory space's stores cover.
  struct Range {
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    bool Overlaps(std::uint64_t addr, std::size_t bytes) const {
      return addr < hi && addr + bytes > lo;
    }
    void Add(std::uint64_t addr, std::size_t bytes) {
      lo = std::min(lo, addr);
      hi = std::max(hi, addr + bytes);
    }
  };

  static bool Stop(ReplayCause why, ReplayCause* cause) {
    *cause = why;
    return false;
  }

  Range& RangeOf(std::uint64_t addr) {
    return (addr & scalar::kSharedTag) ? shared_ : global_;
  }

  // A load inside the stored range: overlays the lane's own stores, in
  // program order, on `value`, the bytes in memory; a lower lane's store
  // conflicts. The merged value, or nothing with *cause set.
  [[gnu::noinline]] std::optional<std::uint64_t> ReadStored(
      std::uint32_t lane, std::uint64_t addr, std::size_t bytes,
      std::uint64_t value, ReplayCause* cause) {
    scanned_ += n_stores_;
    if (scanned_ > kMaxScan) {
      Stop(ReplayCause::kLogBound, cause);
      return std::nullopt;
    }
    const std::uint64_t end = addr + bytes;
    for (std::uint32_t i = 0; i < n_stores_; ++i) {
      const BufferedStore& s = stores_[i];
      if (s.addr >= end || s.addr + s.bytes <= addr || s.lane > lane) continue;
      if (s.lane < lane) {
        Stop(ReplayCause::kConflict, cause);
        return std::nullopt;
      }
      for (std::uint64_t b = std::max(addr, s.addr);
           b < std::min(end, s.addr + s.bytes); ++b) {
        const unsigned to = 8 * static_cast<unsigned>(b - addr);
        const unsigned from = 8 * static_cast<unsigned>(b - s.addr);
        value = (value & ~(std::uint64_t{0xFF} << to)) |
                (((s.value >> from) & 0xFF) << to);
      }
    }
    return value;
  }

  std::unique_ptr<LoggedLoad[]> loads_;
  std::unique_ptr<BufferedStore[]> stores_;      // in program order
  std::unique_ptr<BufferedStore[]> by_address_;  // CheckLoads' sorted copy
  std::uint32_t n_loads_ = 0, n_stores_ = 0;
  std::uint64_t scanned_ = 0;
  Range global_, shared_;
};

// ---- the lane executor --------------------------------------------------------

// Runs one block. A block executes in phases, one bar.sync round each: every
// live thread runs until it parks at a barrier or retires. The executor runs
// a phase as one group of all the live threads (lanes) sharing one pc. Each
// dispatch, top-level or micro op, retires its instruction for every active
// lane over a slot-major register file, so a block pays dispatch once per
// instruction, not once per thread.
//
// A multi-lane attempt leaves exactly what thread order (thread 0's whole
// phase, then thread 1's, ...) leaves as long as control flow stays uniform,
// no lane faults, the lanes together stay within one lane's instruction
// budget, and the access log meets no conflict; its stores wait in the log
// and commit when the phase ends clean. Otherwise the attempt rolls back to
// the phase start — registers, stats, the preemption countdown and latch,
// the recorded fault; memory and the shared segment never changed — and
// the phase replays one lane at a time, in thread order, through the same
// executor. A one-lane group is thread order by construction: it accesses
// memory directly and never rolls back.
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
        nlanes_(params.block.Count()),
        shared_(prog.shared_size, 0) {}

  // Runs the block to completion (all threads), honoring bar.sync phases.
  Status RunBlock(std::uint32_t bx, std::uint32_t by, std::uint32_t bz);

  const DeviceFault& fault() const noexcept { return fault_; }
  // A preemption request observed by the every-N-instructions poll. The
  // block still runs to completion — the safe point is its boundary.
  bool preempt_latched() const noexcept { return preempt_latched_; }

 private:
  static constexpr std::uint32_t kStop = 0xFFFF'FFFFu;

  // Runs the phase's live lanes (group_) as one attempt and commits it.
  // False when it rolled back to the phase start, cause_ saying why.
  bool Attempt(bool first_phase);

  // Runs the group act_ (ascending lanes, one pc) until every lane parked
  // at a barrier or retired. A non-OK status is the fault of a one-lane
  // group, or stops a multi-lane attempt with cause_ saying why. Cache-line
  // aligned so the handlers' layout does not depend on where the linker
  // places the function: unaligned, the same code measured up to 10% apart
  // between two binaries.
  [[gnu::aligned(64)]] Status RunGroup();

  std::uint64_t* Row(std::uint64_t slot) {
    return regs_.data() + slot * nlanes_;
  }

  bool GuardHolds(const CompiledInst& inst, std::uint32_t lane) {
    return inst.pred_slot == kNoPredSlot ||
           ((Row(inst.pred_slot)[lane] & 1) != 0) != inst.pred_negated;
  }

  std::uint64_t Special(std::uint32_t lane, SpecialReg sreg) const {
    switch (sreg) {
      case SpecialReg::kTidX: return tid_x_[lane];
      case SpecialReg::kTidY: return tid_y_[lane];
      case SpecialReg::kTidZ: return tid_z_[lane];
      case SpecialReg::kNtidX: return params_.block.x;
      case SpecialReg::kNtidY: return params_.block.y;
      case SpecialReg::kNtidZ: return params_.block.z;
      case SpecialReg::kCtaidX: return ctaid_x_;
      case SpecialReg::kCtaidY: return ctaid_y_;
      case SpecialReg::kCtaidZ: return ctaid_z_;
      case SpecialReg::kNctaidX: return params_.grid.x;
      case SpecialReg::kNctaidY: return params_.grid.y;
      case SpecialReg::kNctaidZ: return params_.grid.z;
      case SpecialReg::kLaneId: return tid_x_[lane] % 32;
      case SpecialReg::kWarpSize: return 32;
    }
    return 0;
  }

  std::uint64_t ReadOp(std::uint32_t lane, const OperandDesc& desc) {
    switch (desc.kind) {
      case OperandDesc::Kind::kReg: return Row(desc.slot)[lane];
      case OperandDesc::Kind::kImm: return desc.imm;
      case OperandDesc::Kind::kSpecial: return Special(lane, desc.sreg);
    }
    return 0;
  }

  // A top-level ALU instruction: charges it to every active lane and sets
  // dst = f(lane) where the lane's guard holds. Out of line, one copy per
  // opcode, so the evaluators' switches stay out of RunGroup and its
  // micro-op loops.
  template <typename F>
  [[gnu::noinline]] void AluLanes(const CompiledInst& inst, F f) {
    stats_->instructions += act_.size();
    std::uint64_t* const d = Row(inst.dst);
    for (const std::uint32_t lane : act_)
      if (GuardHolds(inst, lane)) d[lane] = f(lane);
  }

  // Micro-op lane loops: dst = f(sources) over the ALU lanes [lo, hi), each
  // source a register row or an immediate (FusedComp::src_imm). The range
  // covers every active lane; lanes in it that retired compute values no
  // one reads.
  template <typename F>
  [[gnu::always_inline]] void Lanes2(const FusedComp& m, std::uint32_t lo,
                                     std::uint32_t hi, F f) {
    std::uint64_t* const d = Row(m.dst);
    switch (m.src_imm & 3) {
      case 0: {
        const std::uint64_t* const a = Row(m.a);
        const std::uint64_t* const b = Row(m.b);
        for (std::uint32_t i = lo; i < hi; ++i) d[i] = f(a[i], b[i]);
        return;
      }
      case 1: {
        const std::uint64_t a = m.a;
        const std::uint64_t* const b = Row(m.b);
        for (std::uint32_t i = lo; i < hi; ++i) d[i] = f(a, b[i]);
        return;
      }
      case 2: {
        const std::uint64_t* const a = Row(m.a);
        const std::uint64_t b = m.b;
        for (std::uint32_t i = lo; i < hi; ++i) d[i] = f(a[i], b);
        return;
      }
      default: std::fill(d + lo, d + hi, f(m.a, m.b));
    }
  }

  template <typename F>
  [[gnu::always_inline]] void Lanes3(const FusedComp& m, std::uint32_t lo,
                                     std::uint32_t hi, F f) {
    std::uint64_t* const d = Row(m.dst);
    if ((m.src_imm & 7) == 0) {
      const std::uint64_t* const a = Row(m.a);
      const std::uint64_t* const b = Row(m.b);
      const std::uint64_t* const c = Row(m.c);
      for (std::uint32_t i = lo; i < hi; ++i) d[i] = f(a[i], b[i], c[i]);
      return;
    }
    for (std::uint32_t i = lo; i < hi; ++i) {
      const std::uint64_t a = (m.src_imm & 1) ? m.a : Row(m.a)[i];
      const std::uint64_t b = (m.src_imm & 2) ? m.b : Row(m.b)[i];
      const std::uint64_t c = (m.src_imm & 4) ? m.c : Row(m.c)[i];
      d[i] = f(a, b, c);
    }
  }

  // The one path every ld/st lane takes, top-level or fused: the block's
  // shared segment for a tagged address, else the tenant access policy, when
  // one is set, and GlobalMemory's word accessors. In a multi-lane attempt
  // the access log then checks the access for conflicts and buffers the
  // store. Alignment is checked by the caller, once per access. A load
  // returns its bytes zero-extended in *bits. False when the lane stops:
  // on a fault, recorded at `at` (a vector access's first byte) by a cold
  // out-of-line function, or on an access-log stop, with cause_ set; the
  // lane loop then returns Stopped(). Forced inline into the lane loops, so
  // *bits lives in a register and no Status is built while lanes succeed.
  [[gnu::always_inline]] bool Load(std::uint32_t lane, std::uint64_t addr,
                                   std::size_t bytes, std::uint64_t at,
                                   std::uint64_t* bits) {
    if (addr & scalar::kSharedTag) {
      const std::uint64_t off = addr & ~scalar::kSharedTag;
      if (off + bytes > shared_.size()) [[unlikely]]
        return SharedFault(at, lane);
      *bits = LoadWord(shared_.data() + off, bytes);
      ++stats_->shared_accesses;
    } else {
      if (policy_ != nullptr && !Permitted(lane, addr, bytes, false, at))
        return false;
      if (!memory_->ReadWord(addr, bytes, bits)) [[unlikely]]
        return RangeFault(addr, bytes, at, lane);
      ++stats_->global_loads;
    }
    return log_ == nullptr || log_->Load(lane, addr, bytes, bits, &cause_);
  }

  [[gnu::always_inline]] bool Store(std::uint32_t lane, std::uint64_t addr,
                                    std::uint64_t bits, std::size_t bytes,
                                    std::uint64_t at) {
    if (addr & scalar::kSharedTag) {
      const std::uint64_t off = addr & ~scalar::kSharedTag;
      if (off + bytes > shared_.size()) [[unlikely]]
        return SharedFault(at, lane);
      if (log_ == nullptr) StoreWord(shared_.data() + off, bytes, bits);
      ++stats_->shared_accesses;
    } else {
      if (policy_ != nullptr && !Permitted(lane, addr, bytes, true, at))
        return false;
      // A buffered store must be one the commit can write.
      if (!(log_ == nullptr ? memory_->WriteWord(addr, bytes, bits)
                            : memory_->InRange(addr, bytes))) [[unlikely]]
        return RangeFault(addr, bytes, at, lane);
      ++stats_->global_stores;
    }
    return log_ == nullptr || log_->Store(lane, addr, bytes, bits, &cause_);
  }

  // A scalar ld/st: the alignment check, then Load/Store.
  [[gnu::always_inline]] bool LdScalar(std::uint32_t lane, std::uint64_t addr,
                                       std::size_t bytes,
                                       std::uint64_t* bits) {
    if (scalar::MisalignedGlobal(addr, bytes)) [[unlikely]]
      return Misaligned(addr, bytes, false, lane);
    return Load(lane, addr, bytes, addr, bits);
  }

  [[gnu::always_inline]] bool StScalar(std::uint32_t lane, std::uint64_t addr,
                                       std::uint64_t bits, std::size_t bytes) {
    if (scalar::MisalignedGlobal(addr, bytes)) [[unlikely]]
      return Misaligned(addr, bytes, true, lane);
    return Store(lane, addr, MaskToWidth(bits, bytes), bytes, addr);
  }

  // The access paths' stops. Each records the DeviceFault the launch
  // reports and returns false. Out of line: their status strings, inlined
  // into the lane loops, cost the loops their registers.
  [[gnu::cold, gnu::noinline]] bool Misaligned(std::uint64_t addr,
                                               std::size_t bytes,
                                               bool is_store,
                                               std::uint32_t lane) {
    (void)Fault(scalar::MisalignedAccess(addr, bytes, is_store), addr, lane);
    return false;
  }

  [[gnu::cold, gnu::noinline]] bool SharedFault(std::uint64_t at,
                                                std::uint32_t lane) {
    (void)Fault(OutOfRange("shared access beyond block allocation"), at,
                lane);
    return false;
  }

  [[gnu::cold, gnu::noinline]] bool RangeFault(std::uint64_t addr,
                                               std::size_t bytes,
                                               std::uint64_t at,
                                               std::uint32_t lane) {
    (void)Fault(memory_->CheckRange(addr, bytes), at, lane);
    return false;
  }

  // The tenant policy's verdict on one access; a denial is the lane's fault.
  [[gnu::noinline]] bool Permitted(std::uint32_t lane, std::uint64_t addr,
                                   std::size_t bytes, bool is_write,
                                   std::uint64_t at) {
    Status verdict = policy_->CheckAccess(client_, addr, bytes, is_write);
    if (verdict.ok()) return true;
    (void)Fault(std::move(verdict), at, lane);
    return false;
  }

  // What RunGroup returns after a lane's access stopped: the recorded
  // fault, or kAborted for an access-log stop (which records none).
  [[gnu::cold, gnu::noinline]] Status Stopped() const {
    return fault_.status.ok() ? Status(StatusCode::kAborted) : fault_.status;
  }

  // Top-level ld/st of one lane, scalar or v2/v4.
  bool DoLd(std::uint32_t lane, const CompiledInst& inst) {
    const std::size_t width = inst.width;
    const std::uint64_t addr =
        ReadOp(lane, inst.a) + static_cast<std::uint64_t>(inst.mem_offset);
    if (inst.sub == 1) {
      std::uint64_t bits = 0;
      if (!LdScalar(lane, addr, width, &bits)) return false;
      // Sign-extend signed sub-64-bit loads so later s64 arithmetic works.
      Row(inst.dst)[lane] =
          inst.is_signed ? static_cast<std::uint64_t>(SignExtend(bits, width))
                         : bits;
      return true;
    }
    if (scalar::MisalignedGlobal(addr, width * inst.sub)) [[unlikely]]
      return Misaligned(addr, width * inst.sub, false, lane);
    for (int part = 0; part < inst.sub; ++part) {
      std::uint64_t bits = 0;
      if (!Load(lane, addr + part * width, width, addr, &bits)) return false;
      Row(inst.vec[part])[lane] = bits;
    }
    return true;
  }

  bool DoSt(std::uint32_t lane, const CompiledInst& inst) {
    const std::size_t width = inst.width;
    const std::uint64_t addr =
        ReadOp(lane, inst.a) + static_cast<std::uint64_t>(inst.mem_offset);
    if (inst.sub == 1)
      return StScalar(lane, addr, ReadOp(lane, inst.b), width);
    if (scalar::MisalignedGlobal(addr, width * inst.sub)) [[unlikely]]
      return Misaligned(addr, width * inst.sub, true, lane);
    for (int part = 0; part < inst.sub; ++part) {
      if (!Store(lane, addr + part * width,
                 MaskToWidth(Row(inst.vec[part])[lane], width), width, addr))
        return false;
    }
    return true;
  }

  // A micro ld or st component over the active lanes; false when a lane
  // stopped. Out of line, one copy per access width: inside RunGroup the
  // loop shared the registers with every handler and kept its locals on
  // the stack (about 5-10% of the served sgemm). The component's fields sit
  // in locals: a lane's register and stats writes could otherwise alias
  // them and force a reload per lane.
  template <std::size_t kWidth>
  [[gnu::noinline]] bool LdLanes(const FusedComp& m) {
    std::uint64_t* const d = Row(m.dst);
    const std::uint64_t* const base = (m.src_imm & 1) ? nullptr : Row(m.a);
    const std::uint64_t imm = m.a, disp = m.c;
    const bool is_signed = m.is_signed;
    const unsigned sx = m.sx;
    for (const std::uint32_t lane : act_) {
      const std::uint64_t addr = (base != nullptr ? base[lane] : imm) + disp;
      std::uint64_t bits = 0;
      if (!LdScalar(lane, addr, kWidth, &bits)) [[unlikely]]
        return false;
      d[lane] = is_signed ? static_cast<std::uint64_t>(MicroSext(bits, sx))
                          : bits;
    }
    return true;
  }

  template <std::size_t kWidth>
  [[gnu::noinline]] bool StLanes(const FusedComp& m) {
    const std::uint64_t* const base = (m.src_imm & 1) ? nullptr : Row(m.a);
    const std::uint64_t* const src = (m.src_imm & 2) ? nullptr : Row(m.b);
    const std::uint64_t imm = m.a, value = m.b, disp = m.c;
    for (const std::uint32_t lane : act_) {
      const std::uint64_t addr = (base != nullptr ? base[lane] : imm) + disp;
      if (!StScalar(lane, addr, src != nullptr ? src[lane] : value, kWidth))
          [[unlikely]]
        return false;
    }
    return true;
  }

  bool LdLanes(const FusedComp& m) {
    switch (m.width) {
      case 1: return LdLanes<1>(m);
      case 2: return LdLanes<2>(m);
      case 4: return LdLanes<4>(m);
      default: return LdLanes<8>(m);
    }
  }

  bool StLanes(const FusedComp& m) {
    switch (m.width) {
      case 1: return StLanes<1>(m);
      case 2: return StLanes<2>(m);
      case 4: return StLanes<4>(m);
      default: return StLanes<8>(m);
    }
  }

  // Resolves a guarded branch over the active lanes and returns the pc the
  // group continues at. Lanes that split stop a multi-lane attempt (kStop,
  // cause_ kDivergence); a one-lane group never splits.
  std::uint32_t Branch(std::uint16_t pred_slot, bool negated,
                       std::uint32_t target, std::uint32_t fallthrough) {
    if (pred_slot == kNoPredSlot) return target;
    const std::uint64_t* const pred = Row(pred_slot);
    std::size_t taken = 0;
    for (const std::uint32_t lane : act_)
      taken += ((pred[lane] & 1) != 0) != negated;
    if (taken == act_.size()) return target;
    if (taken == 0) return fallthrough;
    cause_ = ReplayCause::kDivergence;
    return kStop;
  }

  [[gnu::cold, gnu::noinline]] Status Diverged() {
    cause_ = ReplayCause::kDivergence;
    return Status(StatusCode::kAborted);
  }

  [[gnu::cold, gnu::noinline]] Status MissingArgument(std::uint32_t lane,
                                       std::uint32_t name_string) {
    return Fault(InvalidArgument("missing argument for parameter " +
                                 prog_.strings[name_string]),
                 0, lane);
  }

  [[gnu::cold, gnu::noinline]] Status Fault(Status status, std::uint64_t addr,
                             std::uint32_t lane) {
    fault_ = DeviceFault{std::move(status), addr, LinearThreadId(lane),
                         prog_.name};
    return fault_.status;
  }

  [[gnu::cold, gnu::noinline]] Status BudgetFault() {
    cause_ = ReplayCause::kBudget;
    return Fault(DeadlineExceeded("runaway kernel " + prog_.name +
                                  " exceeded instruction budget"),
                 0, act_.front());
  }

  std::uint64_t LinearThreadId(std::uint32_t lane) const {
    return static_cast<std::uint64_t>(ctaid_x_) * params_.block.Count() +
           tid_x_[lane];
  }

  // Charges `count` lane-instructions against the preemption poll countdown
  // and polls when it runs out: once per dispatch for every active lane,
  // and in bulk for a superinstruction's components beyond its first.
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
  const std::uint64_t nlanes_;
  std::uint32_t ctaid_x_ = 0, ctaid_y_ = 0, ctaid_z_ = 0;
  std::vector<std::uint32_t> tid_x_, tid_y_, tid_z_;  // per lane
  std::vector<std::uint8_t> shared_;
  // Slot-major: slot s of lane l lives at s * nlanes_ + l.
  std::vector<std::uint64_t> regs_;
  std::vector<std::uint64_t> phase_regs_;  // regs_ when an attempt began
  std::vector<std::uint32_t> pc_;          // per lane, between phases
  std::vector<std::uint8_t> done_;         // per lane
  std::vector<std::uint32_t> group_;       // the phase's live lanes
  std::vector<std::uint32_t> act_;         // the running group's lanes
  std::uint32_t lo_ = 0, hi_ = 0;          // ALU lane range, covers act_
  AccessLog* log_ = nullptr;               // set during a multi-lane attempt
  ReplayCause cause_ = ReplayCause::kFault;
  DeviceFault fault_;
};

// The executor thread's access log, made on its first multi-lane attempt.
thread_local std::unique_ptr<AccessLog> tls_access_log;

Status BlockExec::RunBlock(std::uint32_t bx, std::uint32_t by,
                           std::uint32_t bz) {
  const Dim3& block = params_.block;
  ctaid_x_ = bx;
  ctaid_y_ = by;
  ctaid_z_ = bz;
  regs_.assign(prog_.reg_slots * nlanes_, 0);
  tid_x_.resize(nlanes_);
  tid_y_.resize(nlanes_);
  tid_z_.resize(nlanes_);
  // Lane i is thread (i % x, i / x % y, i / (x * y)), counted up without
  // dividing.
  std::uint32_t x = 0, y = 0, z = 0;
  for (std::uint64_t i = 0; i < nlanes_; ++i) {
    tid_x_[i] = x;
    tid_y_[i] = y;
    tid_z_[i] = z;
    if (++x == block.x) {
      x = 0;
      if (++y == block.y) {
        y = 0;
        ++z;
      }
    }
  }
  pc_.assign(nlanes_, 0);
  done_.assign(nlanes_, 0);
  stats_->threads += nlanes_;

  for (bool first_phase = true;; first_phase = false) {
    group_.clear();
    bool split = false;
    for (std::uint32_t lane = 0; lane < nlanes_; ++lane) {
      if (done_[lane]) continue;
      split = split || (!group_.empty() && pc_[lane] != pc_[group_.front()]);
      group_.push_back(lane);
    }
    if (group_.empty()) return OkStatus();
    if (group_.size() > 1) {
      if (split) {
        cause_ = ReplayCause::kDivergence;
      } else if (Attempt(first_phase)) {
        ++stats_->lockstep_phases;
        continue;
      }
      ++stats_->replayed_phases[static_cast<std::size_t>(cause_)];
    } else {
      ++stats_->lockstep_phases;
    }
    // A one-lane phase, or the replay: each lane alone, in thread order.
    for (const std::uint32_t lane : group_) {
      act_.assign(1, lane);
      lo_ = lane;
      hi_ = lane + 1;
      GRD_RETURN_IF_ERROR(RunGroup());
    }
  }
}

bool BlockExec::Attempt(bool first_phase) {
  if (tls_access_log == nullptr) tls_access_log = std::make_unique<AccessLog>();
  AccessLog& log = *tls_access_log;
  log.Reset();
  const ExecStats stats_before = *stats_;
  const std::uint32_t pc_before = pc_[group_.front()];
  const std::uint64_t countdown_before = preempt_countdown_;
  const bool latched_before = preempt_latched_;
  if (!first_phase) phase_regs_ = regs_;  // a first phase starts from zeros
  act_ = group_;
  lo_ = group_.front();
  hi_ = group_.back() + 1;
  log_ = &log;
  cause_ = ReplayCause::kFault;
  const Status s = RunGroup();
  log_ = nullptr;
  if (s.ok() && log.CheckLoads(&cause_)) {
    // Every buffered global store passed the range check, so none fails.
    log.Commit([this](std::uint64_t addr, std::uint64_t value,
                      std::size_t bytes) {
      if (addr & scalar::kSharedTag)
        StoreWord(shared_.data() + (addr & ~scalar::kSharedTag), bytes, value);
      else
        (void)memory_->WriteWord(addr, bytes, value);
    });
    return true;
  }
  *stats_ = stats_before;
  preempt_countdown_ = countdown_before;
  preempt_latched_ = latched_before;
  fault_ = DeviceFault{};
  if (first_phase)
    std::fill(regs_.begin(), regs_.end(), 0);
  else
    regs_.swap(phase_regs_);
  for (const std::uint32_t lane : group_) {
    pc_[lane] = pc_before;
    done_[lane] = 0;
  }
  return false;
}

// GRD_LANES(body): charges the instruction to every active lane, then runs
// `body` for each lane whose guard predicate holds.
#define GRD_LANES(...)                                  \
  stats_->instructions += act_.size();                  \
  for (const std::uint32_t lane : act_) {               \
    if (!GuardHolds(*ip, lane)) continue;               \
    __VA_ARGS__                                         \
  }

// Superinstruction micro ops are threaded like the top level: each handler
// runs its lanes and jumps through the micro label table, or to fused_done
// after the run's last component.
#define GRD_NEXT_MICRO()              \
  if (++m == m_end) goto fused_done; \
  goto* kMicroLabels[static_cast<unsigned>(m->op)]

Status BlockExec::RunGroup() {
  const CompiledInst* const code = prog_.code.data();
  const std::uint64_t code_size = prog_.code.size();
  const std::uint32_t lo = lo_, hi = hi_;
  std::uint32_t pc = pc_[act_.front()];
  const CompiledInst* ip = nullptr;
  // A lane's instruction budget. A multi-lane attempt splits one lane's
  // budget among its lanes, so an attempt that trips it and replays has
  // cost at most one budget's worth of lane-instructions.
  std::uint64_t budget =
      log_ == nullptr ? max_instructions_ : max_instructions_ / act_.size();
  // Superinstruction state: the current and end component, the components
  // that run, the lanes they run on and the pc after the run.
  const FusedComp* m = nullptr;
  const FusedComp* m_end = nullptr;
  unsigned run = 0;
  std::uint64_t run_lanes = 0;
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
  if (budget-- == 0) return BudgetFault();
  SpendCountdown(act_.size());
  if (pc >= code_size) {
    for (const std::uint32_t lane : act_) done_[lane] = 1;
    return OkStatus();
  }
  ip = &code[pc];
  goto* kLabels[static_cast<unsigned>(ip->op)];

op_kLdParam:
  GRD_LANES({
    if (ip->param_index >= params_.args.size())
      return MissingArgument(lane, ip->target);
    Row(ip->dst)[lane] =
        MaskToWidth(params_.args[ip->param_index].bits, ip->width);
  })
  ++pc;
  goto dispatch;

op_kLd:
  GRD_LANES({
    if (!DoLd(lane, *ip)) return Stopped();
  })
  ++pc;
  goto dispatch;

op_kSt:
  GRD_LANES({
    if (!DoSt(lane, *ip)) return Stopped();
  })
  ++pc;
  goto dispatch;

op_kMov:
  AluLanes(*ip, [&](std::uint32_t lane) { return ReadOp(lane, ip->a); });
  ++pc;
  goto dispatch;

op_kCvt:
  AluLanes(*ip, [&](std::uint32_t lane) {
    return EvalCvt(ip->type, ip->src_type, ReadOp(lane, ip->a));
  });
  ++pc;
  goto dispatch;

op_kBinary:
  AluLanes(*ip, [&](std::uint32_t lane) {
    return EvalBinary(*ip, ReadOp(lane, ip->a), ReadOp(lane, ip->b));
  });
  ++pc;
  goto dispatch;

op_kMad:
  AluLanes(*ip, [&](std::uint32_t lane) {
    return EvalMad(*ip, ReadOp(lane, ip->a), ReadOp(lane, ip->b),
                   ReadOp(lane, ip->c));
  });
  ++pc;
  goto dispatch;

op_kUnary:
  AluLanes(*ip, [&](std::uint32_t lane) {
    return EvalUnary(*ip, ReadOp(lane, ip->a));
  });
  ++pc;
  goto dispatch;

op_kSetp:
  AluLanes(*ip, [&](std::uint32_t lane) {
    return std::uint64_t{
        EvalSetp(*ip, ReadOp(lane, ip->a), ReadOp(lane, ip->b))};
  });
  ++pc;
  goto dispatch;

op_kSelp:
  AluLanes(*ip, [&](std::uint32_t lane) {
    return (ReadOp(lane, ip->c) & 1) ? ReadOp(lane, ip->a)
                                     : ReadOp(lane, ip->b);
  });
  ++pc;
  goto dispatch;

op_kBra:
  stats_->instructions += act_.size();
  pc = Branch(ip->pred_slot, ip->pred_negated, ip->target, pc + 1);
  if (pc == kStop) return Status(StatusCode::kAborted);
  goto dispatch;

op_kBrx : {
  // brx.idx %index, table; — the paper's unsafe indirect branch (§3):
  // out-of-range indices are modeled as a device fault; Guardian's patch
  // clamps the index so the patched kernel cannot reach it. The lanes must
  // agree on where they go.
  stats_->instructions += act_.size();
  std::uint32_t next = kStop;
  for (const std::uint32_t lane : act_) {
    std::uint32_t lane_pc = pc + 1;
    if (GuardHolds(*ip, lane)) {
      const std::uint64_t idx = ReadOp(lane, ip->a);
      const BranchTable& table = prog_.branch_tables[ip->target];
      if (idx >= table.pcs.size())
        return Fault(OutOfRange("brx.idx index " + std::to_string(idx) +
                                " outside table of " +
                                std::to_string(table.pcs.size())),
                     idx, lane);
      lane_pc = table.pcs[idx];
      if (lane_pc == BranchTable::kUnresolved)
        return Fault(Status(StatusCode::kNotFound,
                            prog_.strings[table.label_strings[idx]]),
                     0, lane);
    }
    if (next != kStop && lane_pc != next) return Diverged();
    next = lane_pc;
  }
  pc = next;
  goto dispatch;
}

op_kBar : {
  stats_->instructions += act_.size();
  std::size_t parked = 0;
  for (const std::uint32_t lane : act_) parked += GuardHolds(*ip, lane);
  if (parked == 0) {
    ++pc;
    goto dispatch;
  }
  if (parked != act_.size()) return Diverged();
  for (const std::uint32_t lane : act_) pc_[lane] = pc + 1;
  return OkStatus();
}

op_kRetExit : {
  stats_->instructions += act_.size();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < act_.size(); ++k) {
    const std::uint32_t lane = act_[k];
    if (GuardHolds(*ip, lane))
      done_[lane] = 1;
    else
      act_[kept++] = lane;
  }
  act_.resize(kept);
  if (kept == 0) return OkStatus();
  ++pc;
  goto dispatch;
}

op_kTrap:
  // Emitted by the address-checking instrumentation on a bounds violation.
  GRD_LANES({
    return Fault(OutOfRange("bounds check trap in kernel " + prog_.name), 0,
                 lane);
  })
  ++pc;
  goto dispatch;

op_kError:
  GRD_LANES({
    Status status(ip->error_code, prog_.strings[ip->target]);
    if (ip->error_is_fault) return Fault(std::move(status), 0, lane);
    return status;
  })
  ++pc;
  goto dispatch;

op_kFused : {
  // One dispatch retires the whole run on every active lane. The preamble
  // charged budget and poll for component 0. When the budget covers the
  // rest, the run charges it and the instruction count once; otherwise only
  // the components before the trip run, and the trip is reported where an
  // unfused run reports it. The poll countdown is charged in bulk after the
  // run. A fault mid-run ends the launch (or the attempt) and its stats are
  // discarded, so the count charged for the components after it is never
  // read.
  const unsigned count = ip->sub;
  run = budget >= count - 1 ? count : static_cast<unsigned>(budget) + 1;
  budget -= run - 1;
  run_lanes = act_.size();
  stats_->instructions += run * run_lanes;
  next_pc = pc + count;
  m = &prog_.fused_micro[ip->target];
  m_end = m + run;
  goto* kMicroLabels[static_cast<unsigned>(m->op)];
}

fused_done:
  if (run < ip->sub) return BudgetFault();
  pc = next_pc;
  SpendCountdown((ip->sub - 1) * run_lanes);
  goto dispatch;

micro_kMov:
  Lanes2(*m, lo, hi, [](std::uint64_t a, std::uint64_t) { return a; });
  GRD_NEXT_MICRO();

micro_kMovSpecial : {
  std::uint64_t* const d = Row(m->dst);
  for (std::uint32_t i = lo; i < hi; ++i)
    d[i] = Special(i, static_cast<SpecialReg>(m->a));
}
  GRD_NEXT_MICRO();

micro_kLdParam:
  if (m->a >= params_.args.size()) [[unlikely]]
    return MissingArgument(act_.front(), m->target);
  std::fill(Row(m->dst) + lo, Row(m->dst) + hi,
            params_.args[m->a].bits & m->mask);
  GRD_NEXT_MICRO();

micro_kAdd:
  Lanes2(*m, lo, hi, [mask = m->mask](std::uint64_t a, std::uint64_t b) {
    return (a + b) & mask;
  });
  GRD_NEXT_MICRO();

micro_kSub:
  Lanes2(*m, lo, hi, [mask = m->mask](std::uint64_t a, std::uint64_t b) {
    return (a - b) & mask;
  });
  GRD_NEXT_MICRO();

micro_kMulLo:
  Lanes2(*m, lo, hi, [mask = m->mask](std::uint64_t a, std::uint64_t b) {
    return (a * b) & mask;
  });
  GRD_NEXT_MICRO();

micro_kMulWide : {
  const std::uint64_t mask = m->mask;
  const unsigned sx = m->sx;
  if (m->is_signed)
    Lanes2(*m, lo, hi, [sx](std::uint64_t a, std::uint64_t b) {
      return static_cast<std::uint64_t>(MicroSext(a, sx)) *
             static_cast<std::uint64_t>(MicroSext(b, sx));
    });
  else
    Lanes2(*m, lo, hi, [mask](std::uint64_t a, std::uint64_t b) {
      return (a & mask) * (b & mask);
    });
}
  GRD_NEXT_MICRO();

micro_kAnd:
  Lanes2(*m, lo, hi, [mask = m->mask](std::uint64_t a, std::uint64_t b) {
    return a & b & mask;
  });
  GRD_NEXT_MICRO();

micro_kOr:
  Lanes2(*m, lo, hi, [mask = m->mask](std::uint64_t a, std::uint64_t b) {
    return (a | b) & mask;
  });
  GRD_NEXT_MICRO();

micro_kXor:
  Lanes2(*m, lo, hi, [mask = m->mask](std::uint64_t a, std::uint64_t b) {
    return (a ^ b) & mask;
  });
  GRD_NEXT_MICRO();

micro_kShl:
  Lanes2(*m, lo, hi,
         [mask = m->mask, shmask = m->shmask](std::uint64_t a,
                                              std::uint64_t b) {
           return (a << (b & shmask)) & mask;
         });
  GRD_NEXT_MICRO();

micro_kShr : {
  const std::uint64_t mask = m->mask;
  const unsigned shmask = m->shmask;
  const unsigned sx = m->sx;
  if (m->is_signed)
    Lanes2(*m, lo, hi, [mask, shmask, sx](std::uint64_t a, std::uint64_t b) {
      return static_cast<std::uint64_t>(MicroSext(a, sx) >> (b & shmask)) &
             mask;
    });
  else
    Lanes2(*m, lo, hi, [mask, shmask](std::uint64_t a, std::uint64_t b) {
      return ((a & mask) >> (b & shmask)) & mask;
    });
}
  GRD_NEXT_MICRO();

micro_kMad:
  Lanes3(*m, lo, hi,
         [mask = m->mask](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
           return (a * b + c) & mask;
         });
  GRD_NEXT_MICRO();

micro_kSetp : {
  const auto cmp = static_cast<CmpOp>(m->cmp);
  const std::uint64_t mask = m->mask;
  const unsigned sx = m->sx;
  if (m->is_signed)
    Lanes2(*m, lo, hi, [cmp, sx](std::uint64_t a, std::uint64_t b) {
      return std::uint64_t{
          Compare<std::int64_t>(cmp, MicroSext(a, sx), MicroSext(b, sx))};
    });
  else
    Lanes2(*m, lo, hi, [cmp, mask](std::uint64_t a, std::uint64_t b) {
      return std::uint64_t{Compare<std::uint64_t>(cmp, a & mask, b & mask)};
    });
}
  GRD_NEXT_MICRO();

micro_kSelp:
  Lanes3(*m, lo, hi, [](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return (c & 1) ? a : b;
  });
  GRD_NEXT_MICRO();

micro_kAddF32:
  Lanes2(*m, lo, hi, [](std::uint64_t a, std::uint64_t b) {
    return F32Bits(static_cast<float>(static_cast<double>(AsF32(a)) +
                                      static_cast<double>(AsF32(b))));
  });
  GRD_NEXT_MICRO();

micro_kSubF32:
  Lanes2(*m, lo, hi, [](std::uint64_t a, std::uint64_t b) {
    return F32Bits(static_cast<float>(static_cast<double>(AsF32(a)) -
                                      static_cast<double>(AsF32(b))));
  });
  GRD_NEXT_MICRO();

micro_kMulF32:
  Lanes2(*m, lo, hi, [](std::uint64_t a, std::uint64_t b) {
    return F32Bits(static_cast<float>(static_cast<double>(AsF32(a)) *
                                      static_cast<double>(AsF32(b))));
  });
  GRD_NEXT_MICRO();

micro_kMadF32:
  Lanes3(*m, lo, hi, [](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return F32Bits(static_cast<float>(
        static_cast<double>(AsF32(a)) * static_cast<double>(AsF32(b)) +
        static_cast<double>(AsF32(c))));
  });
  GRD_NEXT_MICRO();

micro_kAddF64:
  Lanes2(*m, lo, hi, [](std::uint64_t a, std::uint64_t b) {
    return F64Bits(AsF64(a) + AsF64(b));
  });
  GRD_NEXT_MICRO();

micro_kSubF64:
  Lanes2(*m, lo, hi, [](std::uint64_t a, std::uint64_t b) {
    return F64Bits(AsF64(a) - AsF64(b));
  });
  GRD_NEXT_MICRO();

micro_kMulF64:
  Lanes2(*m, lo, hi, [](std::uint64_t a, std::uint64_t b) {
    return F64Bits(AsF64(a) * AsF64(b));
  });
  GRD_NEXT_MICRO();

micro_kMadF64:
  Lanes3(*m, lo, hi, [](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return F64Bits(AsF64(a) * AsF64(b) + AsF64(c));
  });
  GRD_NEXT_MICRO();

micro_kLd:
  if (!LdLanes(*m)) [[unlikely]]
    return Stopped();
  GRD_NEXT_MICRO();

micro_kSt:
  if (!StLanes(*m)) [[unlikely]]
    return Stopped();
  GRD_NEXT_MICRO();

micro_kBra:
  // Only a run's terminal component; a lane whose guard is false does not
  // retire the branch, like a skipped instruction.
  next_pc = Branch(m->pred_slot, m->pred_negated, m->target, next_pc);
  if (next_pc == kStop) return Status(StatusCode::kAborted);
  GRD_NEXT_MICRO();
}

#undef GRD_NEXT_MICRO
#undef GRD_LANES

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
          delta.lockstep_phases =
              stats.lockstep_phases - before.lockstep_phases;
          for (std::size_t i = 0; i < kReplayCauses; ++i)
            delta.replayed_phases[i] =
                stats.replayed_phases[i] - before.replayed_phases[i];
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
