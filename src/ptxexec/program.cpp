// CompileKernel (AST -> dense bytecode) and FuseKernel (superinstructions).
//
// The compiler mirrors the reference engine's Step() case by case; anything
// that engine raised only when an instruction was actually executed is
// lowered to a kError instruction carrying the identical status, so parity
// holds even for kernels with dead broken code.
//
// FuseKernel is a peephole pass over the compiled bytecode. It scans for
// maximal straight-line runs of unpredicated pure/memory instructions
// (optionally closed by a branch, predicated or not), stops at every branch
// target, and replaces the run's FIRST slot with a kFused instruction whose
// components live in CompiledKernel::fused_code. The covered originals stay
// in place behind the super, which buys three invariants for free:
//  - branches into the middle of a run execute the originals individually;
//  - branch tables and kBra targets never need remapping;
//  - the program length is unchanged, so checkpoints, pcs and the budget
//    accounting are identical with and without fusion.
#include "ptxexec/program.hpp"

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ptxexec/scalar_ops.hpp"

namespace grd::ptxexec {
namespace {

using ptx::Instruction;
using ptx::Kernel;
using ptx::Operand;
using ptx::StateSpace;
using ptx::Type;
using scalar::F32Bits;
using scalar::F64Bits;
using scalar::kSharedTag;

// ---- compiler -------------------------------------------------------------

// A problem the reference engine would only raise when the instruction is
// stepped on; the whole instruction compiles into kError reproducing it.
struct StepError {
  bool set = false;
  StatusCode code = StatusCode::kInternal;
  std::string message;
  bool is_fault = false;  // raised via Fault() (device-fault detail) or not
};

std::optional<SpecialReg> ParseSpecialReg(const std::string& name) {
  if (name == "%tid.x") return SpecialReg::kTidX;
  if (name == "%tid.y") return SpecialReg::kTidY;
  if (name == "%tid.z") return SpecialReg::kTidZ;
  if (name == "%ntid.x") return SpecialReg::kNtidX;
  if (name == "%ntid.y") return SpecialReg::kNtidY;
  if (name == "%ntid.z") return SpecialReg::kNtidZ;
  if (name == "%ctaid.x") return SpecialReg::kCtaidX;
  if (name == "%ctaid.y") return SpecialReg::kCtaidY;
  if (name == "%ctaid.z") return SpecialReg::kCtaidZ;
  if (name == "%nctaid.x") return SpecialReg::kNctaidX;
  if (name == "%nctaid.y") return SpecialReg::kNctaidY;
  if (name == "%nctaid.z") return SpecialReg::kNctaidZ;
  if (name == "%laneid") return SpecialReg::kLaneId;
  if (name == "%warpsize" || name == "WARP_SZ") return SpecialReg::kWarpSize;
  return std::nullopt;
}

class KernelCompiler {
 public:
  explicit KernelCompiler(const Kernel& kernel) : kernel_(kernel) {}

  Result<CompiledKernel> Compile();

 private:
  Status Flatten();
  Status Lower(const Instruction& inst, CompiledInst* out);

  Result<std::uint16_t> Intern(const std::string& name) {
    const auto it = reg_slots_.find(name);
    if (it != reg_slots_.end()) return it->second;
    if (reg_slots_.size() >= kNoPredSlot)
      return Status(InvalidArgument("kernel " + kernel_.name +
                                    " declares too many registers"));
    const auto slot = static_cast<std::uint16_t>(reg_slots_.size());
    reg_slots_.emplace(name, slot);
    return slot;
  }

  std::uint32_t AddString(std::string s) {
    out_.strings.push_back(std::move(s));
    return static_cast<std::uint32_t>(out_.strings.size() - 1);
  }

  // Compiles an operand read the reference engine performed as
  // ReadOperand(op, read_type). A reference step-time error becomes `err`.
  OperandDesc CompileValue(const Operand& op, Type read_type, StepError* err);
  // Compiles a ld/st address base (reference ResolveAddress); the memory
  // displacement lands in `offset` (folded into the imm for shared bases).
  OperandDesc CompileAddress(const Operand& mem, std::int64_t* offset,
                             StepError* err);

  const Kernel& kernel_;
  CompiledKernel out_;
  std::vector<const Instruction*> insts_;
  std::unordered_map<std::string, std::uint16_t> reg_slots_;
  std::unordered_map<std::string, std::uint32_t> labels_;
  std::unordered_map<std::string, const ptx::BranchTargetsDecl*> raw_tables_;
  std::unordered_map<std::string, std::uint16_t> param_index_;
  std::unordered_map<std::string, std::uint64_t> shared_offsets_;
};

OperandDesc KernelCompiler::CompileValue(const Operand& op, Type read_type,
                                         StepError* err) {
  OperandDesc desc;
  if (err->set) return desc;  // an earlier operand already errored
  switch (op.kind) {
    case Operand::Kind::kRegister: {
      // The reference engine routes dotted names (plus %laneid/%warpsize)
      // through the special-register scan on every read; here the
      // classification happens exactly once.
      if (op.name.find('.') != std::string::npos || op.name == "%laneid" ||
          op.name == "%warpsize") {
        if (const auto sreg = ParseSpecialReg(op.name)) {
          desc.kind = OperandDesc::Kind::kSpecial;
          desc.sreg = *sreg;
          return desc;
        }
        *err = StepError{true, StatusCode::kNotFound,
                         "unknown special register " + op.name,
                         /*is_fault=*/false};
        return desc;
      }
      auto slot = Intern(op.name);
      if (!slot.ok()) {
        *err = StepError{true, slot.status().code(),
                         std::string(slot.status().message()),
                         /*is_fault=*/false};
        return desc;
      }
      desc.kind = OperandDesc::Kind::kReg;
      desc.slot = *slot;
      return desc;
    }
    case Operand::Kind::kImmediate:
      desc.kind = OperandDesc::Kind::kImm;
      if (op.is_float_imm) {
        desc.imm = read_type == Type::kF64
                       ? F64Bits(op.fval)
                       : F32Bits(static_cast<float>(op.fval));
      } else {
        desc.imm = static_cast<std::uint64_t>(op.ival);
      }
      return desc;
    case Operand::Kind::kIdentifier: {
      // Address of a shared variable (e.g. `mov.u64 %rd, sdata;`).
      const auto it = shared_offsets_.find(op.name);
      if (it != shared_offsets_.end()) {
        desc.kind = OperandDesc::Kind::kImm;
        desc.imm = kSharedTag | it->second;
        return desc;
      }
      *err = StepError{true, StatusCode::kNotFound,
                       "unknown identifier operand " + op.name,
                       /*is_fault=*/false};
      return desc;
    }
    default:
      *err = StepError{true, StatusCode::kInvalidArgument,
                       "operand kind not readable as a value",
                       /*is_fault=*/false};
      return desc;
  }
}

OperandDesc KernelCompiler::CompileAddress(const Operand& mem,
                                           std::int64_t* offset,
                                           StepError* err) {
  *offset = 0;
  if (err->set) return OperandDesc{};
  if (mem.MemBaseIsRegister()) {
    OperandDesc desc = CompileValue(Operand::Reg(mem.name), Type::kU64, err);
    *offset = mem.offset;
    return desc;
  }
  const auto it = shared_offsets_.find(mem.name);
  if (it != shared_offsets_.end()) {
    OperandDesc desc;
    desc.kind = OperandDesc::Kind::kImm;
    desc.imm = (kSharedTag | it->second) + static_cast<std::uint64_t>(mem.offset);
    return desc;
  }
  *err = StepError{true, StatusCode::kNotFound,
                   "unknown memory base symbol " + mem.name,
                   /*is_fault=*/false};
  return OperandDesc{};
}

Status KernelCompiler::Flatten() {
  for (std::size_t i = 0; i < kernel_.params.size(); ++i)
    param_index_[kernel_.params[i].name] = static_cast<std::uint16_t>(i);
  for (const auto& stmt : kernel_.body) {
    if (const auto* inst = std::get_if<Instruction>(&stmt)) {
      insts_.push_back(inst);
      continue;
    }
    if (const auto* label = std::get_if<ptx::Label>(&stmt)) {
      if (!labels_
               .emplace(label->name, static_cast<std::uint32_t>(insts_.size()))
               .second)
        return InvalidArgument("duplicate label " + label->name);
      continue;
    }
    if (const auto* table = std::get_if<ptx::BranchTargetsDecl>(&stmt)) {
      raw_tables_[table->name] = table;
      continue;
    }
    if (const auto* var = std::get_if<ptx::VarDecl>(&stmt)) {
      if (var->space == StateSpace::kShared) {
        const std::uint64_t bytes =
            (var->array_size < 0 ? 1 : var->array_size) *
            ptx::TypeSize(var->type);
        const std::uint64_t align = var->align > 0 ? var->align : 8;
        out_.shared_size = (out_.shared_size + align - 1) & ~(align - 1);
        shared_offsets_[var->name] = out_.shared_size;
        out_.shared_size += bytes;
      }
      continue;
    }
    // RegDecl: slots are interned on first use, like the dynamic reg files.
  }
  return OkStatus();
}

Status KernelCompiler::Lower(const Instruction& inst, CompiledInst* out) {
  const Type type = inst.TypeModifier().value_or(Type::kU64);
  out->type = type;
  out->width = static_cast<std::uint8_t>(ptx::TypeSize(type));
  out->is_float = ptx::IsFloat(type);
  out->is_signed = ptx::IsSigned(type);

  if (inst.pred) {
    GRD_ASSIGN_OR_RETURN(out->pred_slot, Intern(inst.pred->reg));
    out->pred_negated = inst.pred->negated;
  }

  const auto& ops = inst.operands;
  const std::string& opc = inst.opcode;
  StepError err;

  // Emits the step-time error the reference engine produced, preserving its
  // operand evaluation order (the StepError captures the first failure).
  const auto emit_error = [&]() {
    out->op = COp::kError;
    out->error_code = err.code;
    out->error_is_fault = err.is_fault;
    out->target = AddString(std::move(err.message));
    return OkStatus();
  };
  const auto fault_error = [&](StatusCode code, std::string message) {
    err = StepError{true, code, std::move(message), /*is_fault=*/true};
    return emit_error();
  };
  // A malformed operand list would have been undefined behaviour in the
  // reference engine; the compiler degrades it to a step-time error.
  const auto need_ops = [&](std::size_t n) {
    if (ops.size() >= n) return true;
    err = StepError{true, StatusCode::kInvalidArgument,
                    "malformed " + opc + " instruction: expected " +
                        std::to_string(n) + " operands",
                    /*is_fault=*/false};
    return false;
  };

  if (opc == "ld") {
    if (!need_ops(2)) return emit_error();
    const auto space = inst.SpaceModifier().value_or(StateSpace::kGeneric);
    if (space == StateSpace::kParam) {
      const auto it = param_index_.find(ops[1].name);
      if (it == param_index_.end())
        return fault_error(StatusCode::kNotFound,
                           "unknown kernel parameter " + ops[1].name);
      out->op = COp::kLdParam;
      out->param_index = it->second;
      out->target = AddString(ops[1].name);  // for the missing-arg fault
      GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
      return OkStatus();
    }
    out->op = COp::kLd;
    out->a = CompileAddress(ops[1], &out->mem_offset, &err);
    if (err.set) return emit_error();
    const int lanes = inst.VectorWidth();
    out->sub = static_cast<std::uint8_t>(lanes);
    if (lanes > 1) {
      if (ops[0].vec.size() < static_cast<std::size_t>(lanes))
        return fault_error(StatusCode::kInvalidArgument,
                           "vector load with too few lane registers");
      for (int lane = 0; lane < lanes; ++lane) {
        GRD_ASSIGN_OR_RETURN(out->vec[lane], Intern(ops[0].vec[lane]));
      }
    } else {
      GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
    }
    return OkStatus();
  }

  if (opc == "st") {
    if (!need_ops(2)) return emit_error();
    out->op = COp::kSt;
    out->a = CompileAddress(ops[0], &out->mem_offset, &err);
    if (err.set) return emit_error();
    const int lanes = inst.VectorWidth();
    out->sub = static_cast<std::uint8_t>(lanes);
    if (lanes > 1) {
      if (ops[1].vec.size() < static_cast<std::size_t>(lanes))
        return fault_error(StatusCode::kInvalidArgument,
                           "vector store with too few lane registers");
      for (int lane = 0; lane < lanes; ++lane) {
        GRD_ASSIGN_OR_RETURN(out->vec[lane], Intern(ops[1].vec[lane]));
      }
    } else {
      out->b = CompileValue(ops[1], type, &err);
      if (err.set) return emit_error();
    }
    return OkStatus();
  }

  if (opc == "mov" || opc == "cvta") {
    if (!need_ops(2)) return emit_error();
    out->op = COp::kMov;
    out->a = CompileValue(ops[1], type, &err);
    if (err.set) return emit_error();
    GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
    return OkStatus();
  }

  if (opc == "cvt") {
    if (!need_ops(2)) return emit_error();
    std::vector<Type> types;
    for (const auto& mod : inst.modifiers)
      if (auto mt = ptx::ParseType(mod)) types.push_back(*mt);
    if (types.size() < 2)
      return fault_error(StatusCode::kInvalidArgument,
                         "cvt needs dst and src types");
    out->op = COp::kCvt;
    out->type = types[types.size() - 2];
    out->src_type = types[types.size() - 1];
    out->a = CompileValue(ops[1], out->src_type, &err);
    if (err.set) return emit_error();
    GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
    return OkStatus();
  }

  const bool is_float = out->is_float;
  const auto binary = [&](BinAlu alu) {
    out->op = COp::kBinary;
    out->sub = static_cast<std::uint8_t>(alu);
    return OkStatus();
  };

  if (opc == "add" || opc == "sub" || opc == "mul" || opc == "div" ||
      opc == "rem" || opc == "min" || opc == "max" || opc == "and" ||
      opc == "or" || opc == "xor" || opc == "shl" || opc == "shr") {
    if (!need_ops(3)) return emit_error();
    out->a = CompileValue(ops[1], type, &err);
    out->b = CompileValue(ops[2], type, &err);
    if (err.set) return emit_error();
    GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
    if (is_float) {
      if (opc == "add") return binary(BinAlu::kAdd);
      if (opc == "sub") return binary(BinAlu::kSub);
      if (opc == "mul") return binary(BinAlu::kMul);
      if (opc == "div") return binary(BinAlu::kDiv);
      if (opc == "min") return binary(BinAlu::kMin);
      if (opc == "max") return binary(BinAlu::kMax);
      return fault_error(StatusCode::kUnimplemented, "float " + opc);
    }
    if (opc == "mul" && inst.HasModifier("wide"))
      return binary(BinAlu::kMulWide);
    if (opc == "mul" && inst.HasModifier("hi")) return binary(BinAlu::kMulHi);
    if (opc == "add") return binary(BinAlu::kAdd);
    if (opc == "sub") return binary(BinAlu::kSub);
    if (opc == "mul") return binary(BinAlu::kMul);  // .lo
    if (opc == "div") return binary(BinAlu::kDiv);
    if (opc == "rem") return binary(BinAlu::kRem);
    if (opc == "min") return binary(BinAlu::kMin);
    if (opc == "max") return binary(BinAlu::kMax);
    if (opc == "and") return binary(BinAlu::kAnd);
    if (opc == "or") return binary(BinAlu::kOr);
    if (opc == "xor") return binary(BinAlu::kXor);
    if (opc == "shl") return binary(BinAlu::kShl);
    return binary(BinAlu::kShr);
  }

  if (opc == "mad" || opc == "fma") {
    if (!need_ops(4)) return emit_error();
    out->a = CompileValue(ops[1], type, &err);
    out->b = CompileValue(ops[2], type, &err);
    out->c = CompileValue(ops[3], type, &err);
    if (err.set) return emit_error();
    GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
    out->op = COp::kMad;
    out->sub = (!is_float && inst.HasModifier("wide")) ? 1 : 0;
    return OkStatus();
  }

  if (opc == "neg" || opc == "abs" || opc == "not" || opc == "sqrt") {
    if (!need_ops(2)) return emit_error();
    out->a = CompileValue(ops[1], type, &err);
    if (err.set) return emit_error();
    GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
    if (is_float && opc == "not")
      return fault_error(StatusCode::kUnimplemented, "float not");
    if (!is_float && opc == "sqrt")
      return fault_error(StatusCode::kUnimplemented, "int sqrt");
    out->op = COp::kUnary;
    out->sub = static_cast<std::uint8_t>(
        opc == "neg" ? UnAlu::kNeg
                     : opc == "abs" ? UnAlu::kAbs
                                    : opc == "not" ? UnAlu::kNot
                                                   : UnAlu::kSqrt);
    return OkStatus();
  }

  if (opc == "setp") {
    if (!need_ops(3)) return emit_error();
    out->a = CompileValue(ops[1], type, &err);
    out->b = CompileValue(ops[2], type, &err);
    if (err.set) return emit_error();
    GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
    const std::string& cmp = inst.modifiers.empty() ? "" : inst.modifiers[0];
    const bool is_unsigned = !is_float && !out->is_signed;
    CmpOp op_code;
    if (cmp == "eq") op_code = CmpOp::kEq;
    else if (cmp == "ne") op_code = CmpOp::kNe;
    else if (cmp == "lt" || (is_unsigned && cmp == "lo")) op_code = CmpOp::kLt;
    else if (cmp == "le" || (is_unsigned && cmp == "ls")) op_code = CmpOp::kLe;
    else if (cmp == "gt" || (is_unsigned && cmp == "hi")) op_code = CmpOp::kGt;
    else if (cmp == "ge" || (is_unsigned && cmp == "hs")) op_code = CmpOp::kGe;
    else
      return fault_error(StatusCode::kUnimplemented,
                         "setp." + cmp +
                             (is_float ? " (float)"
                                       : out->is_signed ? " (signed)"
                                                        : " (unsigned)"));
    out->op = COp::kSetp;
    out->sub = static_cast<std::uint8_t>(op_code);
    return OkStatus();
  }

  if (opc == "selp") {
    if (!need_ops(4)) return emit_error();
    out->a = CompileValue(ops[1], type, &err);
    out->b = CompileValue(ops[2], type, &err);
    out->c = CompileValue(ops[3], Type::kPred, &err);
    if (err.set) return emit_error();
    GRD_ASSIGN_OR_RETURN(out->dst, Intern(ops[0].name));
    out->op = COp::kSelp;
    return OkStatus();
  }

  if (opc == "bra") {
    if (!need_ops(1)) return emit_error();
    const auto it = labels_.find(ops[0].name);
    if (it == labels_.end())
      return fault_error(StatusCode::kNotFound,
                         "branch target " + ops[0].name);
    out->op = COp::kBra;
    out->target = it->second;
    return OkStatus();
  }

  if (opc == "brx") {
    if (!need_ops(2)) return emit_error();
    out->a = CompileValue(ops[0], type, &err);
    if (err.set) return emit_error();
    const auto table_it = raw_tables_.find(ops[1].name);
    if (table_it == raw_tables_.end())
      return fault_error(StatusCode::kNotFound,
                         "branch table " + ops[1].name);
    BranchTable table;
    for (const auto& label : table_it->second->labels) {
      const auto label_it = labels_.find(label);
      if (label_it == labels_.end()) {
        // Faults only if this index is actually taken, like the reference.
        table.pcs.push_back(BranchTable::kUnresolved);
        table.label_strings.push_back(AddString("branch target " + label));
      } else {
        table.pcs.push_back(label_it->second);
        table.label_strings.push_back(0);
      }
    }
    out->op = COp::kBrx;
    out->target = static_cast<std::uint32_t>(out_.branch_tables.size());
    out_.branch_tables.push_back(std::move(table));
    return OkStatus();
  }

  if (opc == "bar") {
    out->op = COp::kBar;
    return OkStatus();
  }

  if (opc == "ret" || opc == "exit") {
    out->op = COp::kRetExit;
    return OkStatus();
  }

  if (opc == "trap") {
    out->op = COp::kTrap;
    return OkStatus();
  }

  return fault_error(StatusCode::kUnimplemented, "opcode " + opc);
}

Result<CompiledKernel> KernelCompiler::Compile() {
  out_.name = kernel_.name;
  out_.param_count = kernel_.params.size();
  // strings[0] is reserved so 0 is never a live message index.
  out_.strings.emplace_back();
  GRD_RETURN_IF_ERROR(Flatten());
  if (insts_.size() >= BranchTable::kUnresolved)
    return Status(InvalidArgument("kernel " + kernel_.name +
                                  " has too many instructions"));
  out_.code.reserve(insts_.size());
  for (const Instruction* inst : insts_) {
    CompiledInst lowered;
    GRD_RETURN_IF_ERROR(Lower(*inst, &lowered));
    out_.code.push_back(lowered);
  }
  out_.reg_slots = static_cast<std::uint16_t>(reg_slots_.size());
  return std::move(out_);
}

// ---- superinstruction fusion ----------------------------------------------

// Pre-decodes one fused component into its micro op. Anything outside the
// hot integer set — floats, div/rem (trap-free zero semantics), wide/hi
// multiplies, memory ops, cvt, special-register sources — stays kGeneric
// and executes the original CompiledInst, so micro lowering can never
// change semantics, only skip decode work.
FusedComp LowerComp(const CompiledInst& inst) {
  FusedComp m;  // defaults: kGeneric, all sources immediate 0
  const std::size_t width = inst.width;
  m.mask = width >= 8 ? ~0ull : ((1ull << (width * 8)) - 1);
  m.sx = static_cast<std::uint8_t>(64 - width * 8);
  m.shmask = static_cast<std::uint8_t>(width * 8 - 1);
  m.dst = inst.dst;
  m.is_signed = inst.is_signed;
  // Resolves a source to slot-or-immediate; special registers (thread/block
  // ids) keep the component generic.
  const auto src = [&m](unsigned idx, const OperandDesc& desc,
                        std::uint64_t* out) {
    switch (desc.kind) {
      case OperandDesc::Kind::kReg:
        *out = desc.slot;
        m.src_imm = static_cast<std::uint8_t>(m.src_imm & ~(1u << idx));
        return true;
      case OperandDesc::Kind::kImm:
        *out = desc.imm;
        return true;
      case OperandDesc::Kind::kSpecial:
        return false;
    }
    return false;
  };

  // Only a run's terminal kBra may be predicated (FusableInterior).
  if (inst.pred_slot != kNoPredSlot && inst.op != COp::kBra) return m;

  switch (inst.op) {
    case COp::kMov:
      if (src(0, inst.a, &m.a)) m.op = MicroOp::kMov;
      break;
    case COp::kBinary: {
      if (inst.is_float) break;
      MicroOp op;
      switch (static_cast<BinAlu>(inst.sub)) {
        case BinAlu::kAdd: op = MicroOp::kAdd; break;
        case BinAlu::kSub: op = MicroOp::kSub; break;
        case BinAlu::kMul: op = MicroOp::kMulLo; break;
        case BinAlu::kAnd: op = MicroOp::kAnd; break;
        case BinAlu::kOr: op = MicroOp::kOr; break;
        case BinAlu::kXor: op = MicroOp::kXor; break;
        case BinAlu::kShl: op = MicroOp::kShl; break;
        case BinAlu::kShr: op = MicroOp::kShr; break;
        default: return m;  // div/rem/min/max/wide/hi: generic
      }
      if (src(0, inst.a, &m.a) && src(1, inst.b, &m.b)) m.op = op;
      break;
    }
    case COp::kMad:
      if (inst.is_float || inst.sub != 0) break;  // wide/float mad: generic
      if (src(0, inst.a, &m.a) && src(1, inst.b, &m.b) &&
          src(2, inst.c, &m.c))
        m.op = MicroOp::kMad;
      break;
    case COp::kSetp:
      if (inst.is_float) break;
      m.cmp = inst.sub;
      if (src(0, inst.a, &m.a) && src(1, inst.b, &m.b)) m.op = MicroOp::kSetp;
      break;
    case COp::kSelp:
      if (src(0, inst.a, &m.a) && src(1, inst.b, &m.b) &&
          src(2, inst.c, &m.c))
        m.op = MicroOp::kSelp;
      break;
    case COp::kBra:
      m.op = MicroOp::kBra;
      m.target = inst.target;
      m.pred_slot = inst.pred_slot;
      m.pred_negated = inst.pred_negated;
      break;
    default:
      break;  // ld/st/ldparam/cvt/unary: generic
  }
  return m;
}

// An instruction that may sit anywhere in a fused run: unpredicated, pure or
// memory, never a control transfer / barrier / trap / deferred error.
bool FusableInterior(const CompiledInst& inst) {
  if (inst.pred_slot != kNoPredSlot) return false;
  switch (inst.op) {
    case COp::kLdParam:
    case COp::kLd:
    case COp::kSt:
    case COp::kMov:
    case COp::kCvt:
    case COp::kBinary:
    case COp::kMad:
    case COp::kUnary:
    case COp::kSetp:
    case COp::kSelp:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<CompiledKernel> CompileKernel(const ptx::Kernel& kernel) {
  return KernelCompiler(kernel).Compile();
}

CompiledKernel FuseKernel(CompiledKernel out) {
  if (out.super_count > 0) return out;  // already fused
  const std::size_t n = out.code.size();
  if (n < 2) return out;

  // A fused run must never span a branch target: a kFused instruction may
  // only BEGIN at one. Targets come from kBra instructions and from every
  // resolved branch-table entry (an unresolved entry faults before jumping).
  std::vector<bool> is_target(n + 1, false);
  for (const auto& inst : out.code)
    if (inst.op == COp::kBra && inst.target <= n) is_target[inst.target] = true;
  for (const auto& table : out.branch_tables)
    for (const std::uint32_t pc : table.pcs)
      if (pc != BranchTable::kUnresolved && pc <= n) is_target[pc] = true;

  for (std::size_t pc = 0; pc < n;) {
    if (!FusableInterior(out.code[pc])) {
      ++pc;
      continue;
    }
    std::size_t end = pc + 1;
    while (end < n && end - pc < kMaxFusedRun && !is_target[end] &&
           FusableInterior(out.code[end]))
      ++end;
    // A trailing branch (predicated or not) joins the run: the setp + @%p bra
    // loop tail retires in the same dispatch, and a backward branch to the
    // run's own head re-enters the superinstruction directly — one dispatch
    // per loop iteration.
    if (end < n && end - pc < kMaxFusedRun && !is_target[end] &&
        out.code[end].op == COp::kBra)
      ++end;
    const std::size_t count = end - pc;
    if (count >= 2) {
      CompiledInst super;
      super.op = COp::kFused;
      super.sub = static_cast<std::uint8_t>(count);
      super.target = static_cast<std::uint32_t>(out.fused_code.size());
      for (std::size_t j = pc; j < end; ++j) {
        out.fused_code.push_back(out.code[j]);
        out.fused_micro.push_back(LowerComp(out.code[j]));
      }
      out.code[pc] = super;
      ++out.super_count;
      out.fused_instructions += static_cast<std::uint32_t>(count);
    }
    pc = end;  // covered originals stay in place; scan resumes after the run
  }
  return out;
}

std::shared_ptr<const CompiledModule> CompiledModule::Compile(
    const ptx::Module& module) {
  auto compiled = std::make_shared<CompiledModule>();
  compiled->entries_.reserve(module.kernels.size());
  for (const auto& kernel : module.kernels) {
    Entry entry;
    entry.name = kernel.name;
    auto result = CompileKernel(kernel);
    if (result.ok()) {
      auto fused = std::make_shared<const CompiledKernel>(
          FuseKernel(std::move(*result)));
      compiled->superinstructions_ += fused->super_count;
      entry.kernel = std::move(fused);
    } else {
      entry.error = result.status();
    }
    compiled->entries_.push_back(std::move(entry));
  }
  return compiled;
}

Result<std::shared_ptr<const CompiledKernel>> CompiledModule::Find(
    std::string_view kernel_name) const {
  for (const auto& entry : entries_) {
    if (entry.name != kernel_name) continue;
    if (entry.kernel == nullptr) return entry.error;
    return entry.kernel;
  }
  return Status(NotFound("kernel " + std::string(kernel_name) +
                         " not in module"));
}

}  // namespace grd::ptxexec
