// The REFERENCE engine: the seed string-map interpreter, kept as
// the parity oracle for the compiled bytecode engine (engine.cpp) and as
// bench_interpreter's baseline. Every std::string-keyed lookup on its step
// path bumps exec_debug's counter, which is how the regression suite proves
// the compiled path performs none. Test support only (reference.hpp); the
// manager runs the compiled engine.
#include "ptxexec/reference.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/strings.hpp"
#include "ptxexec/scalar_ops.hpp"

namespace grd::ptxexec {

namespace exec_debug {
namespace {
std::atomic<std::uint64_t> g_hot_path_string_lookups{0};
}  // namespace

std::uint64_t HotPathStringLookups() noexcept {
  return g_hot_path_string_lookups.load(std::memory_order_relaxed);
}

void BumpHotPathStringLookup() noexcept {
  g_hot_path_string_lookups.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace exec_debug

namespace {

using ptx::Instruction;
using ptx::Kernel;
using ptx::Operand;
using ptx::StateSpace;
using ptx::Type;
using scalar::AsF32;
using scalar::AsF64;
using scalar::F32Bits;
using scalar::F64Bits;
using scalar::kSharedTag;
using scalar::MaskToWidth;
using scalar::SignExtend;

// Marks one string-keyed lookup on the reference step path (see
// exec_debug::HotPathStringLookups).
void CountStringLookup() { exec_debug::BumpHotPathStringLookup(); }

// Pre-flattened kernel: instruction array plus label / branch-table / param /
// shared-variable indices, built once per launch.
struct Prepared {
  const Kernel* kernel = nullptr;
  std::vector<const Instruction*> code;
  std::unordered_map<std::string, std::size_t> labels;
  std::unordered_map<std::string, std::vector<std::string>> branch_tables;
  std::unordered_map<std::string, std::size_t> param_index;
  std::unordered_map<std::string, std::uint64_t> shared_offsets;
  std::uint64_t shared_size = 0;
};

Result<Prepared> PrepareKernel(const Kernel& kernel) {
  Prepared prep;
  prep.kernel = &kernel;
  for (std::size_t i = 0; i < kernel.params.size(); ++i) {
    prep.param_index[kernel.params[i].name] = i;
  }
  for (const auto& stmt : kernel.body) {
    if (const auto* inst = std::get_if<Instruction>(&stmt)) {
      prep.code.push_back(inst);
      continue;
    }
    if (const auto* label = std::get_if<ptx::Label>(&stmt)) {
      if (!prep.labels.emplace(label->name, prep.code.size()).second)
        return Status(InvalidArgument("duplicate label " + label->name));
      continue;
    }
    if (const auto* table = std::get_if<ptx::BranchTargetsDecl>(&stmt)) {
      prep.branch_tables[table->name] = table->labels;
      continue;
    }
    if (const auto* var = std::get_if<ptx::VarDecl>(&stmt)) {
      if (var->space == StateSpace::kShared) {
        const std::uint64_t bytes =
            (var->array_size < 0 ? 1 : var->array_size) *
            ptx::TypeSize(var->type);
        const std::uint64_t align = var->align > 0 ? var->align : 8;
        prep.shared_size = (prep.shared_size + align - 1) & ~(align - 1);
        prep.shared_offsets[var->name] = prep.shared_size;
        prep.shared_size += bytes;
      }
      continue;
    }
    // RegDecl: register files are dynamic maps; nothing to do.
  }
  return prep;
}

struct ThreadCtx {
  std::uint32_t tid_x = 0, tid_y = 0, tid_z = 0;
  std::uint32_t ctaid_x = 0, ctaid_y = 0, ctaid_z = 0;
};

struct ThreadState {
  std::unordered_map<std::string, std::uint64_t> regs;
  std::size_t pc = 0;
  bool done = false;
  bool at_barrier = false;
  ThreadCtx ctx;
};

enum class StepOutcome { kContinue, kBarrier, kDone };

class BlockExecutor {
 public:
  BlockExecutor(const Prepared& prep, const LaunchParams& params,
                simgpu::GlobalMemory* memory, simgpu::AccessPolicy* policy,
                std::uint64_t client, std::uint64_t max_instructions,
                ExecStats* stats, const std::atomic<bool>* preempt = nullptr,
                std::uint64_t preempt_check_interval = 0)
      : prep_(prep),
        params_(params),
        memory_(memory),
        policy_(policy),
        client_(client),
        max_instructions_(max_instructions),
        stats_(stats),
        preempt_(preempt),
        preempt_check_interval_(
            preempt_check_interval > 0 ? preempt_check_interval : 1),
        preempt_countdown_(preempt_check_interval_),
        shared_(prep.shared_size, 0) {}

  // Runs one block to completion (all threads), honoring bar.sync phases.
  Status RunBlock(std::uint32_t bx, std::uint32_t by, std::uint32_t bz,
                  DeviceFault* fault);

 private:
  Status Step(ThreadState& t, StepOutcome* outcome);

  Result<std::uint64_t> ReadOperand(ThreadState& t, const Operand& op,
                                    Type type);
  Result<std::uint64_t> ReadSpecialRegister(const ThreadState& t,
                                            const std::string& name);
  Result<std::uint64_t> ResolveAddress(ThreadState& t, const Operand& mem);
  Result<std::uint64_t> LoadSized(std::uint64_t addr, std::size_t bytes);
  Status StoreSized(std::uint64_t addr, std::uint64_t bits, std::size_t bytes);

  Status Fault(Status status, std::uint64_t addr, const ThreadState& t) {
    fault_ = DeviceFault{std::move(status), addr,
                         LinearThreadId(t), prep_.kernel->name};
    return fault_.status;
  }
  std::uint64_t LinearThreadId(const ThreadState& t) const {
    return static_cast<std::uint64_t>(t.ctx.ctaid_x) * params_.block.Count() +
           t.ctx.tid_x;
  }

  const Prepared& prep_;
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
  DeviceFault fault_;

 public:
  const DeviceFault& fault() const noexcept { return fault_; }
  // A preemption request observed by the every-N-instructions poll. The
  // block still runs to completion — the safe point is its boundary.
  bool preempt_latched() const noexcept { return preempt_latched_; }
};

Result<std::uint64_t> BlockExecutor::ReadSpecialRegister(
    const ThreadState& t, const std::string& name) {
  CountStringLookup();  // resolved by string compares on every read
  if (name == "%tid.x") return std::uint64_t{t.ctx.tid_x};
  if (name == "%tid.y") return std::uint64_t{t.ctx.tid_y};
  if (name == "%tid.z") return std::uint64_t{t.ctx.tid_z};
  if (name == "%ntid.x") return std::uint64_t{params_.block.x};
  if (name == "%ntid.y") return std::uint64_t{params_.block.y};
  if (name == "%ntid.z") return std::uint64_t{params_.block.z};
  if (name == "%ctaid.x") return std::uint64_t{t.ctx.ctaid_x};
  if (name == "%ctaid.y") return std::uint64_t{t.ctx.ctaid_y};
  if (name == "%ctaid.z") return std::uint64_t{t.ctx.ctaid_z};
  if (name == "%nctaid.x") return std::uint64_t{params_.grid.x};
  if (name == "%nctaid.y") return std::uint64_t{params_.grid.y};
  if (name == "%nctaid.z") return std::uint64_t{params_.grid.z};
  if (name == "%laneid") return std::uint64_t{t.ctx.tid_x % 32};
  if (name == "%warpsize" || name == "WARP_SZ") return std::uint64_t{32};
  return Status(NotFound("unknown special register " + name));
}

Result<std::uint64_t> BlockExecutor::ReadOperand(ThreadState& t,
                                                 const Operand& op,
                                                 Type type) {
  switch (op.kind) {
    case Operand::Kind::kRegister: {
      CountStringLookup();  // the '.'-scan runs on EVERY register read
      if (op.name.find('.') != std::string::npos || op.name == "%laneid" ||
          op.name == "%warpsize") {
        return ReadSpecialRegister(t, op.name);
      }
      CountStringLookup();  // hash of the register name
      const auto it = t.regs.find(op.name);
      return it == t.regs.end() ? std::uint64_t{0} : it->second;
    }
    case Operand::Kind::kImmediate:
      if (op.is_float_imm) {
        return type == Type::kF64 ? F64Bits(op.fval)
                                  : F32Bits(static_cast<float>(op.fval));
      }
      return static_cast<std::uint64_t>(op.ival);
    case Operand::Kind::kIdentifier: {
      // Address of a shared variable (e.g. `mov.u64 %rd, sdata;`).
      CountStringLookup();
      const auto it = prep_.shared_offsets.find(op.name);
      if (it != prep_.shared_offsets.end()) return kSharedTag | it->second;
      return Status(NotFound("unknown identifier operand " + op.name));
    }
    default:
      return Status(
          InvalidArgument("operand kind not readable as a value"));
  }
}

Result<std::uint64_t> BlockExecutor::ResolveAddress(ThreadState& t,
                                                    const Operand& mem) {
  if (mem.MemBaseIsRegister()) {
    GRD_ASSIGN_OR_RETURN(std::uint64_t base,
                         ReadOperand(t, Operand::Reg(mem.name), Type::kU64));
    return base + static_cast<std::uint64_t>(mem.offset);
  }
  CountStringLookup();
  const auto shared_it = prep_.shared_offsets.find(mem.name);
  if (shared_it != prep_.shared_offsets.end()) {
    return (kSharedTag | shared_it->second) +
           static_cast<std::uint64_t>(mem.offset);
  }
  return Status(NotFound("unknown memory base symbol " + mem.name));
}

Result<std::uint64_t> BlockExecutor::LoadSized(std::uint64_t addr,
                                               std::size_t bytes) {
  if (addr & kSharedTag) {
    const std::uint64_t off = addr & ~kSharedTag;
    if (off + bytes > shared_.size())
      return Status(
          OutOfRange("shared access beyond block allocation"));
    std::uint64_t bits = 0;
    std::memcpy(&bits, shared_.data() + off, bytes);
    ++stats_->shared_accesses;
    return bits;
  }
  if (policy_ != nullptr)
    GRD_RETURN_IF_ERROR(policy_->CheckAccess(client_, addr, bytes, false));
  std::uint64_t bits = 0;
  GRD_RETURN_IF_ERROR(memory_->Read(addr, &bits, bytes));
  ++stats_->global_loads;
  return bits;
}

Status BlockExecutor::StoreSized(std::uint64_t addr, std::uint64_t bits,
                                 std::size_t bytes) {
  if (addr & kSharedTag) {
    const std::uint64_t off = addr & ~kSharedTag;
    if (off + bytes > shared_.size())
      return OutOfRange("shared access beyond block allocation");
    std::memcpy(shared_.data() + off, &bits, bytes);
    ++stats_->shared_accesses;
    return OkStatus();
  }
  if (policy_ != nullptr)
    GRD_RETURN_IF_ERROR(policy_->CheckAccess(client_, addr, bytes, true));
  GRD_RETURN_IF_ERROR(memory_->Write(addr, &bits, bytes));
  ++stats_->global_stores;
  return OkStatus();
}

Status BlockExecutor::Step(ThreadState& t, StepOutcome* outcome) {
  *outcome = StepOutcome::kContinue;
  if (t.pc >= prep_.code.size()) {
    *outcome = StepOutcome::kDone;
    return OkStatus();
  }
  const Instruction& inst = *prep_.code[t.pc];
  ++stats_->instructions;

  // Guard predicate.
  if (inst.pred) {
    CountStringLookup();
    const auto it = t.regs.find(inst.pred->reg);
    const bool value = it != t.regs.end() && (it->second & 1);
    if (value == inst.pred->negated) {
      ++t.pc;
      return OkStatus();
    }
  }

  const Type type = inst.TypeModifier().value_or(Type::kU64);
  const std::size_t width = ptx::TypeSize(type);
  const auto& ops = inst.operands;

  auto read = [&](std::size_t i) { return ReadOperand(t, ops[i], type); };
  auto write_reg = [&](const Operand& dst, std::uint64_t bits) {
    CountStringLookup();
    t.regs[dst.name] = bits;
  };

  const std::string& opc = inst.opcode;

  if (opc == "ld") {
    const auto space = inst.SpaceModifier().value_or(StateSpace::kGeneric);
    if (space == StateSpace::kParam) {
      CountStringLookup();
      const auto it = prep_.param_index.find(ops[1].name);
      if (it == prep_.param_index.end())
        return Fault(NotFound("unknown kernel parameter " + ops[1].name), 0,
                     t);
      if (it->second >= params_.args.size())
        return Fault(InvalidArgument("missing argument for parameter " +
                                     ops[1].name),
                     0, t);
      write_reg(ops[0], MaskToWidth(params_.args[it->second].bits, width));
      ++t.pc;
      return OkStatus();
    }
    GRD_ASSIGN_OR_RETURN(std::uint64_t addr, ResolveAddress(t, ops[1]));
    const int lanes = inst.VectorWidth();
    if (scalar::MisalignedGlobal(addr, width * lanes))
      return Fault(scalar::MisalignedAccess(addr, width * lanes, false), addr,
                   t);
    if (lanes > 1) {
      for (int lane = 0; lane < lanes; ++lane) {
        auto bits = LoadSized(addr + lane * width, width);
        if (!bits.ok()) return Fault(bits.status(), addr, t);
        CountStringLookup();
        t.regs[ops[0].vec[lane]] = *bits;
      }
    } else {
      auto bits = LoadSized(addr, width);
      if (!bits.ok()) return Fault(bits.status(), addr, t);
      // Sign-extend signed sub-64-bit loads so later s64 arithmetic works.
      write_reg(ops[0], ptx::IsSigned(type)
                            ? static_cast<std::uint64_t>(
                                  SignExtend(*bits, width))
                            : *bits);
    }
    ++t.pc;
    return OkStatus();
  }

  if (opc == "st") {
    GRD_ASSIGN_OR_RETURN(std::uint64_t addr, ResolveAddress(t, ops[0]));
    const int lanes = inst.VectorWidth();
    if (scalar::MisalignedGlobal(addr, width * lanes))
      return Fault(scalar::MisalignedAccess(addr, width * lanes, true), addr,
                   t);
    if (lanes > 1) {
      for (int lane = 0; lane < lanes; ++lane) {
        CountStringLookup();
        const auto it = t.regs.find(ops[1].vec[lane]);
        const std::uint64_t bits = it == t.regs.end() ? 0 : it->second;
        const Status s =
            StoreSized(addr + lane * width, MaskToWidth(bits, width), width);
        if (!s.ok()) return Fault(s, addr, t);
      }
    } else {
      GRD_ASSIGN_OR_RETURN(std::uint64_t bits, read(1));
      const Status s = StoreSized(addr, MaskToWidth(bits, width), width);
      if (!s.ok()) return Fault(s, addr, t);
    }
    ++t.pc;
    return OkStatus();
  }

  if (opc == "mov" || opc == "cvta") {
    // cvta/cvta.to.global is an identity in our flat address space.
    GRD_ASSIGN_OR_RETURN(std::uint64_t bits, read(1));
    write_reg(ops[0], bits);
    ++t.pc;
    return OkStatus();
  }

  if (opc == "cvt") {
    // Modifiers: [rounding...] dst_type src_type (last two type tokens).
    std::vector<Type> types;
    for (const auto& mod : inst.modifiers) {
      if (auto mt = ptx::ParseType(mod)) types.push_back(*mt);
    }
    if (types.size() < 2)
      return Fault(InvalidArgument("cvt needs dst and src types"), 0, t);
    const Type dst_t = types[types.size() - 2];
    const Type src_t = types[types.size() - 1];
    GRD_ASSIGN_OR_RETURN(std::uint64_t raw, ReadOperand(t, ops[1], src_t));
    std::uint64_t out = 0;
    if (ptx::IsFloat(src_t) && ptx::IsFloat(dst_t)) {
      const double v = src_t == Type::kF64 ? AsF64(raw) : AsF32(raw);
      out = dst_t == Type::kF64 ? F64Bits(v) : F32Bits(static_cast<float>(v));
    } else if (ptx::IsFloat(src_t)) {
      const double v = src_t == Type::kF64 ? AsF64(raw) : AsF32(raw);
      out = scalar::FloatToInt(v, ptx::TypeSize(dst_t), ptx::IsSigned(dst_t));
    } else if (ptx::IsFloat(dst_t)) {
      const double v =
          ptx::IsSigned(src_t)
              ? static_cast<double>(SignExtend(raw, ptx::TypeSize(src_t)))
              : static_cast<double>(MaskToWidth(raw, ptx::TypeSize(src_t)));
      out = dst_t == Type::kF64 ? F64Bits(v) : F32Bits(static_cast<float>(v));
    } else {
      const std::uint64_t v =
          ptx::IsSigned(src_t)
              ? static_cast<std::uint64_t>(
                    SignExtend(raw, ptx::TypeSize(src_t)))
              : MaskToWidth(raw, ptx::TypeSize(src_t));
      out = MaskToWidth(v, ptx::TypeSize(dst_t));
    }
    write_reg(ops[0], out);
    ++t.pc;
    return OkStatus();
  }

  // Binary/ternary arithmetic.
  const bool is_float = ptx::IsFloat(type);
  auto as_f = [&](std::uint64_t bits) {
    return type == Type::kF64 ? AsF64(bits) : static_cast<double>(AsF32(bits));
  };
  auto f_bits = [&](double v) {
    return type == Type::kF64 ? F64Bits(v) : F32Bits(static_cast<float>(v));
  };
  auto as_s = [&](std::uint64_t bits) { return SignExtend(bits, width); };

  if (opc == "add" || opc == "sub" || opc == "mul" || opc == "div" ||
      opc == "rem" || opc == "min" || opc == "max" || opc == "and" ||
      opc == "or" || opc == "xor" || opc == "shl" || opc == "shr") {
    GRD_ASSIGN_OR_RETURN(std::uint64_t a, read(1));
    GRD_ASSIGN_OR_RETURN(std::uint64_t b, read(2));
    std::uint64_t out = 0;
    if (is_float) {
      const double x = as_f(a), y = as_f(b);
      double r = 0.0;
      if (opc == "add") r = x + y;
      else if (opc == "sub") r = x - y;
      else if (opc == "mul") r = x * y;
      else if (opc == "div") r = y == 0.0 ? 0.0 : x / y;
      else if (opc == "min") r = std::fmin(x, y);
      else if (opc == "max") r = std::fmax(x, y);
      else
        return Fault(Unimplemented("float " + opc), 0, t);
      out = f_bits(r);
    } else if (opc == "mul" && inst.HasModifier("wide")) {
      out = ptx::IsSigned(type)
                ? static_cast<std::uint64_t>(as_s(a)) *
                      static_cast<std::uint64_t>(as_s(b))
                : MaskToWidth(a, width) * MaskToWidth(b, width);
    } else if (opc == "mul" && inst.HasModifier("hi")) {
      const unsigned __int128 prod =
          static_cast<unsigned __int128>(MaskToWidth(a, width)) *
          MaskToWidth(b, width);
      out = MaskToWidth(static_cast<std::uint64_t>(prod >> (width * 8)),
                        width);
    } else {
      const std::uint64_t ua = MaskToWidth(a, width);
      const std::uint64_t ub = MaskToWidth(b, width);
      if (opc == "add") out = ua + ub;
      else if (opc == "sub") out = ua - ub;
      else if (opc == "mul") out = ua * ub;  // .lo
      else if (opc == "div")
        out = ub == 0 ? 0
              : ptx::IsSigned(type)
                  ? (as_s(b) == -1 ? 0 - ua  // INT_MIN / -1 wraps
                                   : static_cast<std::uint64_t>(as_s(a) /
                                                                as_s(b)))
                  : ua / ub;
      else if (opc == "rem")
        out = ub == 0 ? 0
              : ptx::IsSigned(type)
                  ? (as_s(b) == -1 ? 0
                                   : static_cast<std::uint64_t>(as_s(a) %
                                                                as_s(b)))
                  : ua % ub;
      else if (opc == "min")
        out = ptx::IsSigned(type)
                  ? static_cast<std::uint64_t>(std::min(as_s(a), as_s(b)))
                  : std::min(ua, ub);
      else if (opc == "max")
        out = ptx::IsSigned(type)
                  ? static_cast<std::uint64_t>(std::max(as_s(a), as_s(b)))
                  : std::max(ua, ub);
      else if (opc == "and") out = ua & ub;
      else if (opc == "or") out = ua | ub;
      else if (opc == "xor") out = ua ^ ub;
      else if (opc == "shl") out = ua << (ub & (width * 8 - 1));
      else if (opc == "shr")
        out = ptx::IsSigned(type)
                  ? static_cast<std::uint64_t>(as_s(a) >>
                                               (ub & (width * 8 - 1)))
                  : ua >> (ub & (width * 8 - 1));
      out = MaskToWidth(out, width);
      // mul.wide writes a double-width register: undo the mask.
      if (opc == "mul" && inst.HasModifier("wide"))
        out = static_cast<std::uint64_t>(out);
    }
    write_reg(ops[0], out);
    ++t.pc;
    return OkStatus();
  }

  if (opc == "mad" || opc == "fma") {
    GRD_ASSIGN_OR_RETURN(std::uint64_t a, read(1));
    GRD_ASSIGN_OR_RETURN(std::uint64_t b, read(2));
    GRD_ASSIGN_OR_RETURN(std::uint64_t c, read(3));
    std::uint64_t out = 0;
    if (is_float) {
      out = f_bits(as_f(a) * as_f(b) + as_f(c));
    } else if (inst.HasModifier("wide")) {
      out = static_cast<std::uint64_t>(as_s(a)) *
                static_cast<std::uint64_t>(as_s(b)) +
            c;
    } else {
      out = MaskToWidth(MaskToWidth(a, width) * MaskToWidth(b, width) +
                            MaskToWidth(c, width),
                        width);
    }
    write_reg(ops[0], out);
    ++t.pc;
    return OkStatus();
  }

  if (opc == "neg" || opc == "abs" || opc == "not" || opc == "sqrt") {
    GRD_ASSIGN_OR_RETURN(std::uint64_t a, read(1));
    std::uint64_t out = 0;
    if (is_float) {
      const double x = as_f(a);
      if (opc == "neg") out = f_bits(-x);
      else if (opc == "abs") out = f_bits(std::fabs(x));
      else if (opc == "sqrt") out = f_bits(std::sqrt(x));
      else
        return Fault(Unimplemented("float " + opc), 0, t);
    } else {
      const std::uint64_t neg = 0 - static_cast<std::uint64_t>(as_s(a));
      if (opc == "neg")
        out = MaskToWidth(neg, width);
      else if (opc == "abs")
        out = MaskToWidth(
            as_s(a) < 0 ? neg : static_cast<std::uint64_t>(as_s(a)), width);
      else if (opc == "not")
        out = MaskToWidth(~a, width);
      else
        return Fault(Unimplemented("int " + opc), 0, t);
    }
    write_reg(ops[0], out);
    ++t.pc;
    return OkStatus();
  }

  if (opc == "setp") {
    GRD_ASSIGN_OR_RETURN(std::uint64_t a, read(1));
    GRD_ASSIGN_OR_RETURN(std::uint64_t b, read(2));
    const std::string& cmp = inst.modifiers.empty() ? "" : inst.modifiers[0];
    bool r = false;
    if (is_float) {
      const double x = as_f(a), y = as_f(b);
      if (cmp == "eq") r = x == y;
      else if (cmp == "ne") r = x != y;
      else if (cmp == "lt") r = x < y;
      else if (cmp == "le") r = x <= y;
      else if (cmp == "gt") r = x > y;
      else if (cmp == "ge") r = x >= y;
      else
        return Fault(Unimplemented("setp." + cmp + " (float)"), 0, t);
    } else if (ptx::IsSigned(type)) {
      const std::int64_t x = as_s(a), y = as_s(b);
      if (cmp == "eq") r = x == y;
      else if (cmp == "ne") r = x != y;
      else if (cmp == "lt") r = x < y;
      else if (cmp == "le") r = x <= y;
      else if (cmp == "gt") r = x > y;
      else if (cmp == "ge") r = x >= y;
      else
        return Fault(Unimplemented("setp." + cmp + " (signed)"), 0, t);
    } else {
      const std::uint64_t x = MaskToWidth(a, width), y = MaskToWidth(b, width);
      if (cmp == "eq") r = x == y;
      else if (cmp == "ne") r = x != y;
      else if (cmp == "lt" || cmp == "lo") r = x < y;
      else if (cmp == "le" || cmp == "ls") r = x <= y;
      else if (cmp == "gt" || cmp == "hi") r = x > y;
      else if (cmp == "ge" || cmp == "hs") r = x >= y;
      else
        return Fault(Unimplemented("setp." + cmp + " (unsigned)"), 0, t);
    }
    write_reg(ops[0], r ? 1 : 0);
    ++t.pc;
    return OkStatus();
  }

  if (opc == "selp") {
    GRD_ASSIGN_OR_RETURN(std::uint64_t a, read(1));
    GRD_ASSIGN_OR_RETURN(std::uint64_t b, read(2));
    GRD_ASSIGN_OR_RETURN(std::uint64_t p, ReadOperand(t, ops[3], Type::kPred));
    write_reg(ops[0], (p & 1) ? a : b);
    ++t.pc;
    return OkStatus();
  }

  if (opc == "bra") {
    CountStringLookup();
    const auto it = prep_.labels.find(ops[0].name);
    if (it == prep_.labels.end())
      return Fault(NotFound("branch target " + ops[0].name), 0, t);
    t.pc = it->second;
    return OkStatus();
  }

  if (opc == "brx") {
    // brx.idx %index, table; — the paper's unsafe indirect branch (§3): on
    // real hardware an out-of-range index jumps to garbage. We model that as
    // a device fault; Guardian's patch clamps the index so the patched
    // kernel cannot reach this fault.
    GRD_ASSIGN_OR_RETURN(std::uint64_t idx, read(0));
    CountStringLookup();
    const auto table_it = prep_.branch_tables.find(ops[1].name);
    if (table_it == prep_.branch_tables.end())
      return Fault(NotFound("branch table " + ops[1].name), 0, t);
    if (idx >= table_it->second.size())
      return Fault(OutOfRange("brx.idx index " + std::to_string(idx) +
                              " outside table of " +
                              std::to_string(table_it->second.size())),
                   idx, t);
    CountStringLookup();
    const auto label_it = prep_.labels.find(table_it->second[idx]);
    if (label_it == prep_.labels.end())
      return Fault(NotFound("branch target " + table_it->second[idx]), 0, t);
    t.pc = label_it->second;
    return OkStatus();
  }

  if (opc == "bar") {
    ++t.pc;
    *outcome = StepOutcome::kBarrier;
    return OkStatus();
  }

  if (opc == "ret" || opc == "exit") {
    *outcome = StepOutcome::kDone;
    return OkStatus();
  }

  if (opc == "trap") {
    // Emitted by the address-checking instrumentation on a bounds violation.
    return Fault(OutOfRange("bounds check trap in kernel " +
                            prep_.kernel->name),
                 0, t);
  }

  return Fault(Unimplemented("opcode " + opc), 0, t);
}

Status BlockExecutor::RunBlock(std::uint32_t bx, std::uint32_t by,
                               std::uint32_t bz, DeviceFault* fault) {
  const std::uint64_t nthreads = params_.block.Count();
  std::vector<ThreadState> threads(nthreads);
  for (std::uint64_t i = 0; i < nthreads; ++i) {
    auto& t = threads[i];
    t.ctx.tid_x = static_cast<std::uint32_t>(i % params_.block.x);
    t.ctx.tid_y = static_cast<std::uint32_t>((i / params_.block.x) %
                                             params_.block.y);
    t.ctx.tid_z = static_cast<std::uint32_t>(i /
                                             (static_cast<std::uint64_t>(
                                                  params_.block.x) *
                                              params_.block.y));
    t.ctx.ctaid_x = bx;
    t.ctx.ctaid_y = by;
    t.ctx.ctaid_z = bz;
  }
  stats_->threads += nthreads;

  bool all_done = false;
  while (!all_done) {
    all_done = true;
    bool progressed = false;
    for (auto& t : threads) {
      if (t.done) continue;
      // Run this thread until it blocks on a barrier or finishes.
      std::uint64_t budget = max_instructions_;
      while (true) {
        if (budget-- == 0) {
          *fault = DeviceFault{DeadlineExceeded("runaway kernel " +
                                                prep_.kernel->name +
                                                " exceeded instruction budget"),
                               0, LinearThreadId(t), prep_.kernel->name};
          return fault->status;
        }
        if (preempt_ != nullptr && !preempt_latched_ &&
            --preempt_countdown_ == 0) {
          preempt_countdown_ = preempt_check_interval_;
          preempt_latched_ = preempt_->load(std::memory_order_relaxed);
        }
        StepOutcome outcome;
        const Status s = Step(t, &outcome);
        if (!s.ok()) {
          *fault = fault_;
          return s;
        }
        progressed = true;
        if (outcome == StepOutcome::kDone) {
          t.done = true;
          break;
        }
        if (outcome == StepOutcome::kBarrier) break;
      }
      if (!t.done) all_done = false;
    }
    if (!all_done && !progressed) {
      *fault = DeviceFault{Internal("barrier deadlock in " +
                                    prep_.kernel->name),
                           0, 0, prep_.kernel->name};
      return fault->status;
    }
  }
  return OkStatus();
}

}  // namespace

Result<ExecStats> ReferenceInterpreter::Execute(const ptx::Module& module,
                                                std::string_view kernel_name,
                                                const LaunchParams& params) {
  return Execute(module, kernel_name, params, ExecControls{});
}

Result<ExecStats> ReferenceInterpreter::Execute(const ptx::Module& module,
                                                std::string_view kernel_name,
                                                const LaunchParams& params,
                                                const ExecControls& controls) {
  const ptx::Kernel* kernel = module.FindKernel(kernel_name);
  if (kernel == nullptr)
    return Status(NotFound("kernel " + std::string(kernel_name) +
                           " not in module"));
  GRD_ASSIGN_OR_RETURN(Prepared prep, PrepareKernel(*kernel));

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
  ExecStats stats = (ckpt != nullptr && ckpt->valid) ? ckpt->stats
                                                     : ExecStats{};

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
        BlockExecutor block(prep, params, memory_, policy_, client_,
                            max_instructions_per_thread_, &stats,
                            controls.preempt_requested,
                            controls.preempt_check_interval);
        DeviceFault fault;
        const Status s = block.RunBlock(bx, by, bz, &fault);
        if (!s.ok()) {
          // A tripped instruction budget keeps the checkpoint (every block
          // before the runaway one), so the caller may requeue instead of
          // killing; any other fault invalidates nothing the caller should
          // resume from.
          if (ckpt != nullptr && s.code() == StatusCode::kDeadlineExceeded)
            ckpt->stats = stats;
          last_fault_ = fault;
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
        if ((block.preempt_latched() || preempt_pending()) &&
            ckpt != nullptr && ckpt->blocks_done < total_blocks) {
          return Status(
              Unavailable("kernel " + std::string(kernel_name) +
                          " preempted at safe point (" +
                          std::to_string(ckpt->blocks_done) + "/" +
                          std::to_string(total_blocks) + " blocks done)"));
        }
      }
    }
  }
  return stats;
}

}  // namespace grd::ptxexec
