#include "ptx/generator.hpp"

#include <utility>

namespace grd::ptx {
namespace {

using OpVec = std::vector<Operand>;
using ModVec = std::vector<std::string>;

Operand R(std::string name) { return Operand::Reg(std::move(name)); }
Operand M(std::string base, std::int64_t off = 0) {
  return Operand::Mem(std::move(base), off);
}
Operand Id(std::string name) { return Operand::Id(std::move(name)); }
Operand Imm(std::int64_t v) { return Operand::Imm(v); }

Instruction Inst(std::string opcode, ModVec mods, OpVec ops) {
  Instruction inst;
  inst.opcode = std::move(opcode);
  inst.modifiers = std::move(mods);
  inst.operands = std::move(ops);
  return inst;
}

Instruction PredInst(std::string pred_reg, bool negated, std::string opcode,
                     ModVec mods, OpVec ops) {
  Instruction inst = Inst(std::move(opcode), std::move(mods), std::move(ops));
  inst.pred = Predicate{std::move(pred_reg), negated};
  return inst;
}

RegDecl Regs(Type t, std::string prefix, int count) {
  RegDecl decl;
  decl.type = t;
  decl.is_range = true;
  decl.prefix = std::move(prefix);
  decl.count = count;
  return decl;
}

Param P(Type t, std::string name) {
  Param param;
  param.type = t;
  param.name = std::move(name);
  return param;
}

// Standard nvcc-style global-thread-index prologue:
//   %r_idx = ctaid.x * ntid.x + tid.x
void EmitGlobalIndex(Kernel& k, const std::string& idx_reg,
                     const std::string& t1, const std::string& t2,
                     const std::string& t3) {
  k.body.emplace_back(Inst("mov", {"u32"}, {R(t1), R("%ctaid.x")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R(t2), R("%ntid.x")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R(t3), R("%tid.x")}));
  k.body.emplace_back(
      Inst("mad", {"lo", "s32"}, {R(idx_reg), R(t1), R(t2), R(t3)}));
}

}  // namespace

Kernel MakeStoreTidKernel(std::string name) {
  // Verbatim structure of paper Listing 1 lines 1-12, 20-23, 30-31 (the
  // pre-instrumentation kernel): A[j] = tid where j = param1.
  Kernel k;
  k.name = std::move(name);
  k.params = {P(Type::kU64, k.name + "_param_0"),
              P(Type::kU32, k.name + "_param_1")};
  k.body.emplace_back(Regs(Type::kB32, "%r", 3));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 5));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(k.name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r1"), M(k.name + "_param_1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd2"), R("%rd1")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r2"), R("%tid.x")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "s32"}, {R("%rd3"), R("%r1"), Imm(4)}));
  k.body.emplace_back(
      Inst("add", {"s64"}, {R("%rd4"), R("%rd2"), R("%rd3")}));
  k.body.emplace_back(Inst("st", {"global", "u32"}, {M("%rd4"), R("%r2")}));
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeVecAddKernel(std::string name) {
  Kernel k;
  k.name = name;
  k.params = {P(Type::kU64, name + "_param_0"), P(Type::kU64, name + "_param_1"),
              P(Type::kU64, name + "_param_2"), P(Type::kU32, name + "_param_3")};
  k.body.emplace_back(Regs(Type::kPred, "%p", 2));
  k.body.emplace_back(Regs(Type::kF32, "%f", 4));
  k.body.emplace_back(Regs(Type::kB32, "%r", 6));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 11));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd2"), M(name + "_param_1")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd3"), M(name + "_param_2")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r2"), M(name + "_param_3")}));
  EmitGlobalIndex(k, "%r1", "%r3", "%r4", "%r5");
  k.body.emplace_back(
      Inst("setp", {"ge", "s32"}, {R("%p1"), R("%r1"), R("%r2")}));
  k.body.emplace_back(PredInst("%p1", false, "bra", {}, {Id("LBB0_2")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd4"), R("%rd1")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "s32"}, {R("%rd5"), R("%r1"), Imm(4)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd6"), R("%rd4"), R("%rd5")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd7"), R("%rd2")}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd8"), R("%rd7"), R("%rd5")}));
  k.body.emplace_back(Inst("ld", {"global", "f32"}, {R("%f1"), M("%rd8")}));
  k.body.emplace_back(Inst("ld", {"global", "f32"}, {R("%f2"), M("%rd6")}));
  k.body.emplace_back(Inst("add", {"f32"}, {R("%f3"), R("%f2"), R("%f1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd9"), R("%rd3")}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd10"), R("%rd9"), R("%rd5")}));
  k.body.emplace_back(Inst("st", {"global", "f32"}, {M("%rd10"), R("%f3")}));
  k.body.emplace_back(Label{"LBB0_2"});
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeSaxpyKernel(std::string name) {
  Kernel k;
  k.name = name;
  k.params = {P(Type::kU64, name + "_param_0"),   // x
              P(Type::kU64, name + "_param_1"),   // y
              P(Type::kF32, name + "_param_2"),   // alpha
              P(Type::kU32, name + "_param_3")};  // n
  k.body.emplace_back(Regs(Type::kPred, "%p", 2));
  k.body.emplace_back(Regs(Type::kF32, "%f", 5));
  k.body.emplace_back(Regs(Type::kB32, "%r", 6));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 8));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd2"), M(name + "_param_1")}));
  k.body.emplace_back(
      Inst("ld", {"param", "f32"}, {R("%f1"), M(name + "_param_2")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r2"), M(name + "_param_3")}));
  EmitGlobalIndex(k, "%r1", "%r3", "%r4", "%r5");
  k.body.emplace_back(
      Inst("setp", {"ge", "s32"}, {R("%p1"), R("%r1"), R("%r2")}));
  k.body.emplace_back(PredInst("%p1", false, "bra", {}, {Id("LBB0_2")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd3"), R("%rd1")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "s32"}, {R("%rd4"), R("%r1"), Imm(4)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd5"), R("%rd3"), R("%rd4")}));
  k.body.emplace_back(Inst("ld", {"global", "f32"}, {R("%f2"), M("%rd5")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd6"), R("%rd2")}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd7"), R("%rd6"), R("%rd4")}));
  k.body.emplace_back(Inst("ld", {"global", "f32"}, {R("%f3"), M("%rd7")}));
  k.body.emplace_back(
      Inst("fma", {"rn", "f32"}, {R("%f4"), R("%f1"), R("%f2"), R("%f3")}));
  k.body.emplace_back(Inst("st", {"global", "f32"}, {M("%rd7"), R("%f4")}));
  k.body.emplace_back(Label{"LBB0_2"});
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeOffsetCopyKernel(std::string name) {
  // Copies 4 consecutive u32 values per thread using [base+imm] addressing:
  // exercises the patcher's second addressing mode (temp register + fencing
  // on base+offset, §4.3).
  Kernel k;
  k.name = name;
  k.params = {P(Type::kU64, name + "_param_0"),   // in
              P(Type::kU64, name + "_param_1")};  // out
  k.body.emplace_back(Regs(Type::kB32, "%r", 9));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 8));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd2"), M(name + "_param_1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd3"), R("%rd1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd4"), R("%rd2")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r1"), R("%tid.x")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd5"), R("%r1"), Imm(16)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd6"), R("%rd3"), R("%rd5")}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd7"), R("%rd4"), R("%rd5")}));
  for (int i = 0; i < 4; ++i) {
    const std::string lr = "%r" + std::to_string(2 + i);
    k.body.emplace_back(
        Inst("ld", {"global", "u32"}, {R(lr), M("%rd6", 4 * i)}));
    k.body.emplace_back(
        Inst("st", {"global", "u32"}, {M("%rd7", 4 * i), R(lr)}));
  }
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeDotKernel(std::string name, int unroll) {
  // acc = sum_i a[tid*unroll+i] * b[tid*unroll+i]; out[tid] = acc.
  Kernel k;
  k.name = name;
  k.params = {P(Type::kU64, name + "_param_0"), P(Type::kU64, name + "_param_1"),
              P(Type::kU64, name + "_param_2")};
  k.body.emplace_back(Regs(Type::kF32, "%f", static_cast<int>(3 + 2 * unroll)));
  k.body.emplace_back(Regs(Type::kB32, "%r", 3));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 10));
  for (int p = 0; p < 3; ++p) {
    k.body.emplace_back(Inst("ld", {"param", "u64"},
                             {R("%rd" + std::to_string(p + 1)),
                              M(name + "_param_" + std::to_string(p))}));
  }
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd4"), R("%rd1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd5"), R("%rd2")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd6"), R("%rd3")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r1"), R("%tid.x")}));
  k.body.emplace_back(Inst("mul", {"wide", "u32"},
                           {R("%rd7"), R("%r1"), Imm(4 * unroll)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd8"), R("%rd4"), R("%rd7")}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd9"), R("%rd5"), R("%rd7")}));
  k.body.emplace_back(Inst("mov", {"f32"}, {R("%f1"), Operand::FImm(0.0, "0f00000000")}));
  int f = 2;
  for (int i = 0; i < unroll; ++i) {
    const std::string fa = "%f" + std::to_string(f++);
    const std::string fb = "%f" + std::to_string(f++);
    k.body.emplace_back(
        Inst("ld", {"global", "f32"}, {R(fa), M("%rd8", 4 * i)}));
    k.body.emplace_back(
        Inst("ld", {"global", "f32"}, {R(fb), M("%rd9", 4 * i)}));
    k.body.emplace_back(
        Inst("fma", {"rn", "f32"}, {R("%f1"), R(fa), R(fb), R("%f1")}));
  }
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd7"), R("%r1"), Imm(4)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd9"), R("%rd6"), R("%rd7")}));
  k.body.emplace_back(Inst("st", {"global", "f32"}, {M("%rd9"), R("%f1")}));
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeReduceKernel(std::string name) {
  // Block-level sum into out[ctaid]: shared-memory staging + bar.sync.
  // Shared-memory ld/st must survive patching untouched (paper §3).
  Kernel k;
  k.name = name;
  k.params = {P(Type::kU64, name + "_param_0"),   // in
              P(Type::kU64, name + "_param_1")};  // out
  VarDecl smem;
  smem.space = StateSpace::kShared;
  smem.type = Type::kB8;
  smem.name = "sdata";
  smem.align = 4;
  smem.array_size = 1024;  // up to 256 f32 lanes
  k.body.emplace_back(std::move(smem));
  k.body.emplace_back(Regs(Type::kPred, "%p", 3));
  k.body.emplace_back(Regs(Type::kF32, "%f", 4));
  k.body.emplace_back(Regs(Type::kB32, "%r", 8));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 12));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd2"), M(name + "_param_1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd3"), R("%rd1")}));
  EmitGlobalIndex(k, "%r1", "%r2", "%r3", "%r4");
  // sdata[tid] = in[global_idx]
  k.body.emplace_back(
      Inst("mul", {"wide", "s32"}, {R("%rd4"), R("%r1"), Imm(4)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd5"), R("%rd3"), R("%rd4")}));
  k.body.emplace_back(Inst("ld", {"global", "f32"}, {R("%f1"), M("%rd5")}));
  k.body.emplace_back(Inst("mov", {"u64"}, {R("%rd6"), Id("sdata")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd7"), R("%r4"), Imm(4)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd8"), R("%rd6"), R("%rd7")}));
  k.body.emplace_back(Inst("st", {"shared", "f32"}, {M("%rd8"), R("%f1")}));
  k.body.emplace_back(Inst("bar", {"sync"}, {Imm(0)}));
  // if (tid != 0) goto done
  k.body.emplace_back(Inst("setp", {"ne", "u32"}, {R("%p1"), R("%r4"), Imm(0)}));
  k.body.emplace_back(PredInst("%p1", false, "bra", {}, {Id("LBB1_3")}));
  // thread 0: acc = sum(sdata[0..ntid))
  k.body.emplace_back(Inst("mov", {"f32"}, {R("%f2"), Operand::FImm(0.0, "0f00000000")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r5"), Imm(0)}));
  k.body.emplace_back(Inst("mov", {"u64"}, {R("%rd9"), Id("sdata")}));
  k.body.emplace_back(Label{"LBB1_2"});
  k.body.emplace_back(Inst("ld", {"shared", "f32"}, {R("%f3"), M("%rd9")}));
  k.body.emplace_back(Inst("add", {"f32"}, {R("%f2"), R("%f2"), R("%f3")}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd9"), R("%rd9"), Imm(4)}));
  k.body.emplace_back(Inst("add", {"s32"}, {R("%r5"), R("%r5"), Imm(1)}));
  k.body.emplace_back(
      Inst("setp", {"lt", "u32"}, {R("%p2"), R("%r5"), R("%r3")}));
  k.body.emplace_back(PredInst("%p2", false, "bra", {}, {Id("LBB1_2")}));
  // out[ctaid] = acc
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd10"), R("%rd2")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd11"), R("%r2"), Imm(4)}));
  k.body.emplace_back(
      Inst("add", {"s64"}, {R("%rd10"), R("%rd10"), R("%rd11")}));
  k.body.emplace_back(Inst("st", {"global", "f32"}, {M("%rd10"), R("%f2")}));
  k.body.emplace_back(Label{"LBB1_3"});
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeFuncStoreKernel(std::string name) {
  Kernel k;
  k.name = name;
  k.is_entry = false;  // .func: instrumented like an entry (§4.3)
  k.params = {P(Type::kU64, name + "_param_0"),
              P(Type::kU32, name + "_param_1")};
  k.body.emplace_back(Regs(Type::kB32, "%r", 2));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 3));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r1"), M(name + "_param_1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd2"), R("%rd1")}));
  k.body.emplace_back(Inst("st", {"global", "u32"}, {M("%rd2"), R("%r1")}));
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeIndirectBranchKernel(std::string name) {
  Kernel k;
  k.name = name;
  k.params = {P(Type::kU64, name + "_param_0"),
              P(Type::kU32, name + "_param_1")};  // selector
  k.body.emplace_back(Regs(Type::kB32, "%r", 4));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 3));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r1"), M(name + "_param_1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd2"), R("%rd1")}));
  BranchTargetsDecl table;
  table.name = "ts";
  table.labels = {"L0", "L1", "L2"};
  k.body.emplace_back(std::move(table));
  k.body.emplace_back(Inst("brx", {"idx"}, {R("%r1"), Id("ts")}));
  k.body.emplace_back(Label{"L0"});
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r2"), Imm(10)}));
  k.body.emplace_back(Inst("bra", {}, {Id("LDone")}));
  k.body.emplace_back(Label{"L1"});
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r2"), Imm(20)}));
  k.body.emplace_back(Inst("bra", {}, {Id("LDone")}));
  k.body.emplace_back(Label{"L2"});
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r2"), Imm(30)}));
  k.body.emplace_back(Inst("bra", {}, {Id("LDone")}));
  k.body.emplace_back(Label{"LDone"});
  k.body.emplace_back(Inst("st", {"global", "u32"}, {M("%rd2"), R("%r2")}));
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeOobWriterKernel(std::string name) {
  // stores `value` to base + byte_offset: offset is attacker-controlled.
  Kernel k;
  k.name = name;
  k.params = {P(Type::kU64, name + "_param_0"),   // base pointer
              P(Type::kU64, name + "_param_1"),   // byte offset
              P(Type::kU32, name + "_param_2")};  // value
  k.body.emplace_back(Regs(Type::kB32, "%r", 2));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 5));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd2"), M(name + "_param_1")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r1"), M(name + "_param_2")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd3"), R("%rd1")}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd4"), R("%rd3"), R("%rd2")}));
  k.body.emplace_back(Inst("st", {"global", "u32"}, {M("%rd4"), R("%r1")}));
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeCopyKernel(std::string name) {
  Kernel k;
  k.name = name;
  k.params = {P(Type::kU64, name + "_param_0"), P(Type::kU64, name + "_param_1"),
              P(Type::kU32, name + "_param_2")};
  k.body.emplace_back(Regs(Type::kPred, "%p", 2));
  k.body.emplace_back(Regs(Type::kB32, "%r", 7));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 8));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd2"), M(name + "_param_1")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r2"), M(name + "_param_2")}));
  EmitGlobalIndex(k, "%r1", "%r3", "%r4", "%r5");
  k.body.emplace_back(
      Inst("setp", {"ge", "u32"}, {R("%p1"), R("%r1"), R("%r2")}));
  k.body.emplace_back(PredInst("%p1", false, "bra", {}, {Id("LBB2_2")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd3"), R("%rd1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd4"), R("%rd2")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd5"), R("%r1"), Imm(4)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd6"), R("%rd3"), R("%rd5")}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd7"), R("%rd4"), R("%rd5")}));
  k.body.emplace_back(Inst("ld", {"global", "u32"}, {R("%r6"), M("%rd6")}));
  k.body.emplace_back(Inst("st", {"global", "u32"}, {M("%rd7"), R("%r6")}));
  k.body.emplace_back(Label{"LBB2_2"});
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeRandomKernel(Rng& rng, std::string name, int ld_count,
                        int st_count, bool use_offset_mode) {
  // Straight-line kernel: addr = data + (tid & 31)*4; loads/stores stay in
  // the first 48 u32 slots of the array, so any buffer of >= 192 bytes keeps
  // the kernel in-bounds by construction.
  Kernel k;
  k.name = std::move(name);
  k.params = {P(Type::kU64, k.name + "_param_0"),
              P(Type::kU32, k.name + "_param_1")};
  // Register-pressure tail: real library kernels (gemm tiles, conv inner
  // loops) have compute phases holding many simultaneously-live values;
  // this is what gives the -O3 allocator slack to absorb Guardian's
  // fencing temporaries (Figure 9b).
  const int tail_regs = 4 + static_cast<int>(rng.NextBelow(16));
  const int nregs = 8;
  k.body.emplace_back(Regs(Type::kB32, "%r", nregs + 2));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 5));
  if (tail_regs > 0) k.body.emplace_back(Regs(Type::kB32, "%t", tail_regs + 1));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(k.name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r1"), M(k.name + "_param_1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd2"), R("%rd1")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r2"), R("%tid.x")}));
  k.body.emplace_back(Inst("and", {"b32"}, {R("%r2"), R("%r2"), Imm(31)}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd3"), R("%r2"), Imm(4)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd4"), R("%rd2"), R("%rd3")}));
  int loads_left = ld_count;
  int stores_left = st_count;
  int acc = 3;  // %r3 is the accumulator
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r3"), Imm(1)}));
  while (loads_left > 0 || stores_left > 0) {
    const bool do_load =
        loads_left > 0 && (stores_left == 0 || rng.NextBool(0.6));
    const std::int64_t elem_offset =
        use_offset_mode ? static_cast<std::int64_t>(rng.NextBelow(16)) * 4 : 0;
    if (do_load) {
      const std::string dst = "%r" + std::to_string(4 + rng.NextBelow(4));
      k.body.emplace_back(
          Inst("ld", {"global", "u32"}, {R(dst), M("%rd4", elem_offset)}));
      k.body.emplace_back(Inst(rng.NextBool(0.5) ? "add" : "xor",
                               {rng.NextBool(0.5) ? "s32" : "b32"},
                               {R("%r" + std::to_string(acc)),
                                R("%r" + std::to_string(acc)), R(dst)}));
      --loads_left;
    } else {
      k.body.emplace_back(Inst("st", {"global", "u32"},
                               {M("%rd4", elem_offset),
                                R("%r" + std::to_string(acc))}));
      --stores_left;
    }
  }
  // Compute tail: define tail_regs values, then consume them all at once so
  // they are simultaneously live (a reduction over a register tile).
  for (int i = 1; i <= tail_regs; ++i) {
    k.body.emplace_back(Inst("mov", {"u32"},
                             {R("%t" + std::to_string(i)),
                              Imm(static_cast<std::int64_t>(i * 3 + 1))}));
  }
  for (int i = 1; i <= tail_regs; ++i) {
    k.body.emplace_back(Inst("add", {"s32"},
                             {R("%r" + std::to_string(acc)),
                              R("%r" + std::to_string(acc)),
                              R("%t" + std::to_string(i))}));
  }
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakePointerWalkKernel(std::string name, int rmw_pairs) {
  // Do-while pointer walk:
  //   p    = data + tid*8            (8-byte lane inside the 256B stripe)
  //   pend = p + iters*256
  //   do { rmw [p+0] (, [p+4]); p += 256; } while (p < pend);
  // Threads of a 32-wide block touch disjoint lanes, so the kernel is
  // race-free.
  if (rmw_pairs < 1) rmw_pairs = 1;
  if (rmw_pairs > 2) rmw_pairs = 2;  // lane is 8 bytes -> offsets 0 and 4
  Kernel k;
  k.name = std::move(name);
  k.params = {P(Type::kU64, k.name + "_param_0"),
              P(Type::kU32, k.name + "_param_1")};
  k.body.emplace_back(Regs(Type::kPred, "%p", 2));
  k.body.emplace_back(Regs(Type::kB32, "%r", 4));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 7));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(k.name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r1"), M(k.name + "_param_1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd2"), R("%rd1")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r2"), R("%tid.x")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd3"), R("%r2"), Imm(8)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd4"), R("%rd2"), R("%rd3")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd5"), R("%r1"), Imm(256)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd6"), R("%rd4"), R("%rd5")}));
  k.body.emplace_back(Label{"WALK_TOP"});
  for (int i = 0; i < rmw_pairs; ++i) {
    const std::int64_t off = i * 4;
    k.body.emplace_back(
        Inst("ld", {"global", "u32"}, {R("%r3"), M("%rd4", off)}));
    k.body.emplace_back(Inst("add", {"s32"}, {R("%r3"), R("%r3"), Imm(1)}));
    k.body.emplace_back(
        Inst("st", {"global", "u32"}, {M("%rd4", off), R("%r3")}));
  }
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd4"), R("%rd4"), Imm(256)}));
  k.body.emplace_back(
      Inst("setp", {"lt", "u64"}, {R("%p1"), R("%rd4"), R("%rd6")}));
  k.body.emplace_back(PredInst("%p1", false, "bra", {}, {Id("WALK_TOP")}));
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeRepeatedRmwKernel(std::string name, int pairs) {
  // Straight line: addr = data + (tid & 31)*16; then `pairs` ld/add/st
  // round-trips at offsets cycling over {0, 4, 8}. Every fence after the
  // first per offset repeats an earlier one on the same register with no
  // redefinition in between, so guard elision reuses it.
  if (pairs < 1) pairs = 1;
  Kernel k;
  k.name = std::move(name);
  k.params = {P(Type::kU64, k.name + "_param_0")};
  k.body.emplace_back(Regs(Type::kB32, "%r", 4));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 5));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(k.name + "_param_0")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd2"), R("%rd1")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r1"), R("%tid.x")}));
  k.body.emplace_back(Inst("and", {"b32"}, {R("%r1"), R("%r1"), Imm(31)}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd3"), R("%r1"), Imm(16)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd4"), R("%rd2"), R("%rd3")}));
  for (int i = 0; i < pairs; ++i) {
    const std::int64_t off = (i % 3) * 4;
    k.body.emplace_back(
        Inst("ld", {"global", "u32"}, {R("%r2"), M("%rd4", off)}));
    k.body.emplace_back(Inst("add", {"s32"}, {R("%r2"), R("%r2"), Imm(1)}));
    k.body.emplace_back(
        Inst("st", {"global", "u32"}, {M("%rd4", off), R("%r2")}));
  }
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Kernel MakeRandomLoopKernel(Rng& rng, std::string name) {
  // Randomized pointer-walk do-while loop (see header). The lane base is
  // %ctaid.x * 32, so single-thread blocks never race within a block; blocks
  // execute deterministically in every engine, so even overlapping strides
  // across blocks stay parity-safe.
  const std::int64_t stride =
      static_cast<std::int64_t>(4 + rng.NextBelow(4) * 4);  // 4/8/12/16
  const int naccess = 1 + static_cast<int>(rng.NextBelow(3));
  const bool invariant_access = rng.NextBool(0.5);
  Kernel k;
  k.name = std::move(name);
  k.params = {P(Type::kU64, k.name + "_param_0"),
              P(Type::kU32, k.name + "_param_1")};
  k.body.emplace_back(Regs(Type::kPred, "%p", 2));
  k.body.emplace_back(Regs(Type::kB32, "%r", 9));
  k.body.emplace_back(Regs(Type::kB64, "%rd", 7));
  k.body.emplace_back(
      Inst("ld", {"param", "u64"}, {R("%rd1"), M(k.name + "_param_0")}));
  k.body.emplace_back(
      Inst("ld", {"param", "u32"}, {R("%r1"), M(k.name + "_param_1")}));
  k.body.emplace_back(
      Inst("cvta", {"to", "global", "u64"}, {R("%rd2"), R("%rd1")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r2"), R("%ctaid.x")}));
  k.body.emplace_back(
      Inst("mul", {"wide", "u32"}, {R("%rd3"), R("%r2"), Imm(32)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd4"), R("%rd2"), R("%rd3")}));
  k.body.emplace_back(Inst("mul", {"wide", "u32"},
                           {R("%rd5"), R("%r1"), Imm(stride)}));
  k.body.emplace_back(Inst("add", {"s64"}, {R("%rd6"), R("%rd4"), R("%rd5")}));
  k.body.emplace_back(Inst("mov", {"u32"}, {R("%r3"), Imm(1)}));  // acc
  k.body.emplace_back(Label{"RLOOP_TOP"});
  for (int i = 0; i < naccess; ++i) {
    const std::int64_t off = static_cast<std::int64_t>(rng.NextBelow(3)) * 4;
    if (rng.NextBool(0.6)) {
      const std::string dst = "%r" + std::to_string(4 + rng.NextBelow(4));
      k.body.emplace_back(
          Inst("ld", {"global", "u32"}, {R(dst), M("%rd4", off)}));
      k.body.emplace_back(Inst("add", {"s32"}, {R("%r3"), R("%r3"), R(dst)}));
    } else {
      k.body.emplace_back(
          Inst("st", {"global", "u32"}, {M("%rd4", off), R("%r3")}));
    }
  }
  if (invariant_access) {
    // Loop-invariant base (%rd2): still fenced on every iteration, since
    // the loop header's label ends every fence's reuse.
    const std::int64_t off = static_cast<std::int64_t>(rng.NextBelow(2)) * 4;
    if (rng.NextBool(0.5)) {
      k.body.emplace_back(
          Inst("ld", {"global", "u32"}, {R("%r8"), M("%rd2", off)}));
      k.body.emplace_back(Inst("add", {"s32"}, {R("%r3"), R("%r3"), R("%r8")}));
    } else {
      k.body.emplace_back(
          Inst("st", {"global", "u32"}, {M("%rd2", off), R("%r3")}));
    }
  }
  k.body.emplace_back(
      Inst("add", {"s64"}, {R("%rd4"), R("%rd4"), Imm(stride)}));
  k.body.emplace_back(
      Inst("setp", {"lt", "u64"}, {R("%p1"), R("%rd4"), R("%rd6")}));
  k.body.emplace_back(PredInst("%p1", false, "bra", {}, {Id("RLOOP_TOP")}));
  k.body.emplace_back(Inst("st", {"global", "u32"}, {M("%rd2"), R("%r3")}));
  k.body.emplace_back(Inst("ret", {}, {}));
  return k;
}

Module MakeSampleModule() {
  Module m;
  m.kernels.push_back(MakeStoreTidKernel());
  m.kernels.push_back(MakeVecAddKernel());
  m.kernels.push_back(MakeSaxpyKernel());
  m.kernels.push_back(MakeOffsetCopyKernel());
  m.kernels.push_back(MakeDotKernel());
  m.kernels.push_back(MakeReduceKernel());
  m.kernels.push_back(MakeFuncStoreKernel());
  m.kernels.push_back(MakeIndirectBranchKernel());
  m.kernels.push_back(MakeOobWriterKernel());
  m.kernels.push_back(MakeCopyKernel());
  return m;
}

const std::vector<LibraryCorpusSpec>& Table3Corpora() {
  static const std::vector<LibraryCorpusSpec> kCorpora = {
      {"cuBlas (v11)", 4115, 0, 341249, 106399},
      {"cuFFT (v10)", 5173, 4, 175256, 371932},
      {"cuRAND (v10)", 204, 0, 4949, 3610},
      {"cuSPARSE (v11)", 4335, 0, 334694, 101792},
      {"Rodinia", 23, 7, 544, 285},
      {"Caffe", 1294, 4, 87267, 32946},
      {"PyTorch", 27987, 319, 2083978, 857987},
  };
  return kCorpora;
}

void GenerateCorpus(const LibraryCorpusSpec& spec, std::uint64_t seed,
                    const std::function<void(const Kernel&)>& fn) {
  Rng rng(seed);
  const std::size_t total_units = spec.kernels + spec.funcs;
  if (total_units == 0) return;
  std::size_t loads_left = spec.total_loads;
  std::size_t stores_left = spec.total_stores;
  for (std::size_t i = 0; i < total_units; ++i) {
    const std::size_t units_left = total_units - i;
    // Deterministic even split with remainder spread over the first units.
    const std::size_t ld = loads_left / units_left +
                           (loads_left % units_left != 0 ? 1 : 0);
    const std::size_t st = stores_left / units_left +
                           (stores_left % units_left != 0 ? 1 : 0);
    loads_left -= ld;
    stores_left -= st;
    Kernel k = MakeRandomKernel(rng, "k" + std::to_string(i),
                                static_cast<int>(ld), static_cast<int>(st),
                                /*use_offset_mode=*/rng.NextBool(0.3));
    if (i >= spec.kernels) k.is_entry = false;  // the .func units
    fn(k);
  }
}

}  // namespace grd::ptx
