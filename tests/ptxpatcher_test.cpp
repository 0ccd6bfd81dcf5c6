#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxpatcher/patcher.hpp"
#include "ptxpatcher/regmodel.hpp"

namespace grd::ptxpatcher {
namespace {

using ptx::ComputeStats;
using ptx::Kernel;
using ptx::KernelStats;
using ptxexec::Interpreter;
using ptxexec::KernelArg;
using ptxexec::LaunchParams;

PatchedKernel MustPatch(const Kernel& kernel,
                        BoundsCheckMode mode = BoundsCheckMode::kFencingBitwise) {
  PatchOptions options;
  options.mode = mode;
  auto result = PatchKernel(kernel, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(*result) : PatchedKernel{};
}

TEST(Patcher, AppendsTwoParams) {
  const auto patched = MustPatch(ptx::MakeStoreTidKernel());
  ASSERT_EQ(patched.kernel.params.size(), 4u);
  EXPECT_EQ(patched.kernel.params[2].name, "kernel_grd_base");
  EXPECT_EQ(patched.kernel.params[3].name, "kernel_grd_bound");
  EXPECT_EQ(patched.kernel.params[2].type, ptx::Type::kU64);
  EXPECT_EQ(patched.stats.extra_params, 2);
}

TEST(Patcher, CountsMatchKernelStats) {
  for (const Kernel& k : ptx::MakeSampleModule().kernels) {
    const KernelStats stats = ComputeStats(k);
    const auto patched = MustPatch(k);
    EXPECT_EQ(patched.stats.patched_loads, stats.loads) << k.name;
    EXPECT_EQ(patched.stats.patched_stores, stats.stores) << k.name;
  }
}

TEST(Patcher, BitwiseInsertsTwoInstructionsPerDirectAccess) {
  // Listing 1: exactly two bitwise instructions per load/store (plus the two
  // ld.param at entry).
  const auto patched = MustPatch(ptx::MakeStoreTidKernel());
  // 1 store, direct addressing: 2 (ld.param) + 2 (and/or) = 4.
  EXPECT_EQ(patched.stats.inserted_instructions, 4u);
  EXPECT_EQ(patched.stats.patched_offset_accesses, 0u);
}

TEST(Patcher, OffsetModeAddsTempMaterialization) {
  const auto patched = MustPatch(ptx::MakeOffsetCopyKernel());
  // 8 accesses; 6 have non-zero immediate offsets (i=1..3 for ld and st).
  EXPECT_EQ(patched.stats.patched_offset_accesses, 6u);
  // 2 ld.param + per zero-offset access 2, per offset access 3.
  EXPECT_EQ(patched.stats.inserted_instructions, 2u + 2 * 2u + 6 * 3u);
}

TEST(Patcher, PatchedPtxContainsAndOrSequence) {
  const auto patched = MustPatch(ptx::MakeStoreTidKernel());
  const std::string text = ptx::Print(patched.kernel);
  EXPECT_NE(text.find("and.b64 %grdtmp1, %rd4, %grdreg2;"), std::string::npos)
      << text;
  EXPECT_NE(text.find("or.b64 %grdtmp1, %grdtmp1, %grdreg1;"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ld.param.u64 %grdreg1, [kernel_grd_base];"),
            std::string::npos)
      << text;
}

TEST(Patcher, PatchedKernelReparses) {
  for (const Kernel& k : ptx::MakeSampleModule().kernels) {
    for (const auto mode :
         {BoundsCheckMode::kFencingBitwise, BoundsCheckMode::kFencingModulo,
          BoundsCheckMode::kChecking}) {
      const auto patched = MustPatch(k, mode);
      ptx::Module m;
      m.kernels.push_back(patched.kernel);
      auto reparsed = ptx::Parse(ptx::Print(m));
      ASSERT_TRUE(reparsed.ok())
          << k.name << " " << BoundsCheckModeName(mode) << ": "
          << reparsed.status();
      EXPECT_EQ(reparsed->kernels[0], patched.kernel);
    }
  }
}

TEST(Patcher, SharedAccessesUntouched) {
  const auto patched = MustPatch(ptx::MakeReduceKernel());
  // Only 1 global load + 1 global store are protected; shared ld/st keep
  // their original operands.
  EXPECT_EQ(patched.stats.patched_loads, 1u);
  EXPECT_EQ(patched.stats.patched_stores, 1u);
  const std::string text = ptx::Print(patched.kernel);
  EXPECT_NE(text.find("st.shared.f32 [%rd8], %f1;"), std::string::npos);
}

TEST(Patcher, FuncInstrumentedLikeEntry) {
  const auto patched = MustPatch(ptx::MakeFuncStoreKernel());
  EXPECT_FALSE(patched.kernel.is_entry);
  EXPECT_EQ(patched.stats.patched_stores, 1u);
  EXPECT_EQ(patched.stats.extra_params, 2);
}

TEST(Patcher, BrxIdxClamped) {
  const auto patched = MustPatch(ptx::MakeIndirectBranchKernel());
  EXPECT_EQ(patched.stats.patched_indirect_branches, 1u);
  const std::string text = ptx::Print(patched.kernel);
  EXPECT_NE(text.find("min.u32 %grdidx1, %r1, 2;"), std::string::npos)
      << text;
  EXPECT_NE(text.find("brx.idx %grdidx1, ts;"), std::string::npos) << text;
}

TEST(Patcher, RejectsReservedParamCollision) {
  Kernel k = ptx::MakeStoreTidKernel();
  ptx::Param fake;
  fake.type = ptx::Type::kU64;
  fake.name = GrdParam0Name(k.name);
  k.params.push_back(fake);
  PatchOptions options;
  EXPECT_EQ(PatchKernel(k, options).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(Patcher, ModuleAggregation) {
  PatchStats aggregate;
  PatchOptions options;
  auto patched = PatchModule(ptx::MakeSampleModule(), options, &aggregate);
  ASSERT_TRUE(patched.ok()) << patched.status();
  std::size_t loads = 0, stores = 0;
  for (const Kernel& k : ptx::MakeSampleModule().kernels) {
    const KernelStats stats = ComputeStats(k);
    loads += stats.loads;
    stores += stats.stores;
  }
  EXPECT_EQ(aggregate.patched_loads, loads);
  EXPECT_EQ(aggregate.patched_stores, stores);
}

TEST(Patcher, GrdArgsPerMode) {
  const std::uint64_t base = 0x7fa2d0000000ull;
  const std::uint64_t size = 16ull << 20;
  const auto bitwise =
      ComputeGrdArgs(BoundsCheckMode::kFencingBitwise, base, size);
  EXPECT_EQ(bitwise.arg0, base);
  EXPECT_EQ(bitwise.arg1, 0x000000FFFFFFull);  // Figure 4 mask
  const auto modulo =
      ComputeGrdArgs(BoundsCheckMode::kFencingModulo, base, size);
  EXPECT_EQ(modulo.arg1, size);
  const auto checking = ComputeGrdArgs(BoundsCheckMode::kChecking, base, size);
  EXPECT_EQ(checking.arg1, base + size);
}

// ---- Functional properties: run the patched PTX through the interpreter --

class PatchedExecution : public ::testing::Test {
 protected:
  PatchedExecution() : memory_(64ull << 20), interp_(&memory_, nullptr, 1) {}

  // Launches `kernel` patched with `mode`, over partition [base, base+size).
  Status RunPatched(const Kernel& kernel, BoundsCheckMode mode,
                    std::uint64_t base, std::uint64_t size,
                    std::vector<KernelArg> args, ptxexec::Dim3 block = {1, 1, 1}) {
    PatchOptions options;
    options.mode = mode;
    auto patched = PatchKernel(kernel, options);
    if (!patched.ok()) return patched.status();
    ptx::Module m;
    m.kernels.push_back(patched->kernel);
    const GrdArgs grd = ComputeGrdArgs(mode, base, size);
    args.push_back(KernelArg::U64(grd.arg0));
    args.push_back(KernelArg::U64(grd.arg1));
    LaunchParams params;
    params.block = block;
    params.args = std::move(args);
    auto stats = interp_.Execute(m, kernel.name, params);
    return stats.ok() ? OkStatus() : stats.status();
  }

  simgpu::GlobalMemory memory_;
  Interpreter interp_;
};

TEST_F(PatchedExecution, InBoundsStoreUnchanged) {
  // A[5] = tid inside the partition: patched kernel behaves identically.
  const std::uint64_t base = 1ull << 20, size = 1ull << 20;
  ASSERT_TRUE(RunPatched(ptx::MakeStoreTidKernel(),
                         BoundsCheckMode::kFencingBitwise, base, size,
                         {KernelArg::U64(base), KernelArg::U32(5)},
                         {4, 1, 1})
                  .ok());
  auto v = memory_.Load<std::uint32_t>(base + 20);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 3u);
}

TEST_F(PatchedExecution, OobWriteWrapsIntoOwnPartition) {
  // Figure 4: the attack store lands inside the attacker's own partition;
  // the victim's data survives.
  const std::uint64_t attacker = 2ull << 20;  // [2 MiB, 3 MiB)
  const std::uint64_t size = 1ull << 20;
  const std::uint64_t victim = 8ull << 20;
  ASSERT_TRUE(memory_.Store<std::uint32_t>(victim, 777).ok());

  ASSERT_TRUE(RunPatched(ptx::MakeOobWriterKernel(),
                         BoundsCheckMode::kFencingBitwise, attacker, size,
                         {KernelArg::U64(attacker),
                          KernelArg::U64(victim - attacker),
                          KernelArg::U32(666)})
                  .ok());

  auto untouched = memory_.Load<std::uint32_t>(victim);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(*untouched, 777u);  // victim intact
  // The wrapped store landed at (victim & mask) | attacker_base.
  const std::uint64_t wrapped =
      FenceAddress(victim, attacker, PartitionMask(size));
  ASSERT_GE(wrapped, attacker);
  ASSERT_LT(wrapped, attacker + size);
  auto wrapped_value = memory_.Load<std::uint32_t>(wrapped);
  ASSERT_TRUE(wrapped_value.ok());
  EXPECT_EQ(*wrapped_value, 666u);
}

TEST_F(PatchedExecution, ModuloFencingAlsoWraps) {
  const std::uint64_t attacker = 2ull << 20;
  const std::uint64_t size = 1ull << 20;
  const std::uint64_t victim = 8ull << 20;
  ASSERT_TRUE(memory_.Store<std::uint32_t>(victim, 777).ok());
  ASSERT_TRUE(RunPatched(ptx::MakeOobWriterKernel(),
                         BoundsCheckMode::kFencingModulo, attacker, size,
                         {KernelArg::U64(attacker),
                          KernelArg::U64(victim - attacker),
                          KernelArg::U32(666)})
                  .ok());
  auto untouched = memory_.Load<std::uint32_t>(victim);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(*untouched, 777u);
}

TEST_F(PatchedExecution, ModuloWorksForNonPowerOfTwoPartitions) {
  // §4.4: modulo fencing does not require power-of-two alignment.
  const std::uint64_t base = 3ull << 20;
  const std::uint64_t size = (1ull << 20) + 4096;  // not a power of two
  const std::uint64_t victim = 16ull << 20;
  ASSERT_TRUE(memory_.Store<std::uint32_t>(victim, 777).ok());
  ASSERT_TRUE(RunPatched(ptx::MakeOobWriterKernel(),
                         BoundsCheckMode::kFencingModulo, base, size,
                         {KernelArg::U64(base), KernelArg::U64(victim - base),
                          KernelArg::U32(666)})
                  .ok());
  auto untouched = memory_.Load<std::uint32_t>(victim);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(*untouched, 777u);
}

TEST_F(PatchedExecution, CheckingModeTrapsOnOob) {
  const std::uint64_t base = 2ull << 20, size = 1ull << 20;
  const std::uint64_t victim = 8ull << 20;
  const Status s = RunPatched(ptx::MakeOobWriterKernel(),
                              BoundsCheckMode::kChecking, base, size,
                              {KernelArg::U64(base),
                               KernelArg::U64(victim - base),
                               KernelArg::U32(666)});
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  // Victim untouched.
  auto v = memory_.Load<std::uint32_t>(victim);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0u);
}

TEST_F(PatchedExecution, CheckingModeAllowsInBounds) {
  const std::uint64_t base = 2ull << 20, size = 1ull << 20;
  EXPECT_TRUE(RunPatched(ptx::MakeOobWriterKernel(),
                         BoundsCheckMode::kChecking, base, size,
                         {KernelArg::U64(base), KernelArg::U64(64),
                          KernelArg::U32(5)})
                  .ok());
  auto v = memory_.Load<std::uint32_t>(base + 64);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 5u);
}

TEST_F(PatchedExecution, BrxClampPreventsFault) {
  // Out-of-table selector 7 on a 3-entry table: native faults (covered in
  // ptxexec tests); the patched kernel clamps to arm 2 and completes.
  const std::uint64_t base = 1ull << 20, size = 1ull << 20;
  ASSERT_TRUE(RunPatched(ptx::MakeIndirectBranchKernel(),
                         BoundsCheckMode::kFencingBitwise, base, size,
                         {KernelArg::U64(base), KernelArg::U32(7)})
                  .ok());
  auto v = memory_.Load<std::uint32_t>(base);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 30u);  // clamped to last arm
}

TEST_F(PatchedExecution, VecAddEquivalentWhenInBounds) {
  // Equivalence property: for in-bounds data the patched kernel computes
  // exactly what the native kernel computes.
  const std::uint64_t base = 4ull << 20, size = 1ull << 20;
  const std::uint64_t a = base, b = base + 0x10000, c = base + 0x20000;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(memory_.Store<float>(a + i * 4, static_cast<float>(i)).ok());
    ASSERT_TRUE(memory_.Store<float>(b + i * 4, 1.0f).ok());
  }
  ASSERT_TRUE(RunPatched(ptx::MakeVecAddKernel(),
                         BoundsCheckMode::kFencingBitwise, base, size,
                         {KernelArg::U64(a), KernelArg::U64(b),
                          KernelArg::U64(c), KernelArg::U32(n)},
                         {64, 1, 1})
                  .ok());
  for (int i = 0; i < n; ++i) {
    auto v = memory_.Load<float>(c + i * 4);
    ASSERT_TRUE(v.ok());
    EXPECT_FLOAT_EQ(*v, static_cast<float>(i + 1));
  }
}

// Isolation oracle: every global access the engine makes on behalf of a
// patched kernel must land inside [base, base+size). The policy records any
// access outside it (and refuses it, so the run stops there).
class EscapeRecorder final : public simgpu::AccessPolicy {
 public:
  EscapeRecorder(std::uint64_t base, std::uint64_t size)
      : base_(base), size_(size) {}

  Status CheckAccess(std::uint64_t, std::uint64_t addr, std::uint64_t bytes,
                     bool is_write) override {
    ++accesses_;
    if (addr >= base_ && bytes <= size_ && addr - base_ <= size_ - bytes)
      return OkStatus();
    if (escapes_++ == 0) {
      std::ostringstream first;
      first << (is_write ? "store" : "load") << " of " << bytes
            << " bytes at 0x" << std::hex << addr;
      first_escape_ = first.str();
    }
    return PermissionDenied("access escaped the partition");
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t escapes() const { return escapes_; }
  const std::string& first_escape() const { return first_escape_; }

 private:
  std::uint64_t base_, size_;
  std::uint64_t accesses_ = 0, escapes_ = 0;
  std::string first_escape_;
};

// The sweep: random straight-line and loop kernels, all three modes, guard
// elision on and off, and eleven setups of the data pointer, the access
// offsets and the partition. The fencing modes must complete (their fences
// wrap every address into the partition); checking mode may stop, but only
// with its bounds-check trap. A misaligned data pointer may stop every mode,
// but only with the engine's misaligned-access fault (or checking mode's
// trap). No mode may ever touch memory outside the partition.
class PatchedRandomKernels
    : public ::testing::TestWithParam<std::tuple<int, int, bool, bool, int>> {
};

TEST_P(PatchedRandomKernels, NeverEscapesPartition) {
  const auto [seed, mode_index, elision, loop_shape, setup_index] =
      GetParam();
  Rng rng(seed * 104729 + 7);
  const auto mode = static_cast<BoundsCheckMode>(mode_index);

  struct Setup {
    std::uint64_t data;          // the kernel's data pointer
    std::int64_t displacement;   // added to every access's immediate offset
    std::uint64_t size;          // the partition's size
  };
  const std::uint64_t base = 1ull << 20;
  const std::uint64_t mib = 1ull << 20;
  // Honest, then hostile pointers: the last word, one past the end, another
  // tenant's memory, a pointer whose offsets wrap around zero, null, and a
  // misaligned pointer whose fenced 4-byte accesses would straddle the
  // partition end. Then the honest pointer with every access displaced 2^32
  // and 2^40 bytes past it and 4096 bytes below the partition, and with a
  // 64-byte partition, smaller than the 192 bytes a random kernel touches.
  const Setup kSetups[] = {
      {base, 0, mib},
      {base + mib - 4, 0, mib},
      {base + mib, 0, mib},
      {4ull << 20, 0, mib},
      {0xFFFFFFFFFFFFFFF0ull, 0, mib},
      {0, 0, mib},
      {base + mib - 2, 0, mib},
      {base, std::int64_t{1} << 32, mib},
      {base, std::int64_t{1} << 40, mib},
      {base, -4096, mib},
      {base, 0, 64}};
  const Setup& setup = kSetups[setup_index];
  const std::uint64_t data = setup.data;
  const std::uint64_t size = setup.size;

  Kernel kernel =
      loop_shape ? ptx::MakeRandomLoopKernel(rng, "rk")
                 : ptx::MakeRandomKernel(
                       rng, "rk", static_cast<int>(rng.NextInRange(1, 24)),
                       static_cast<int>(rng.NextInRange(1, 12)),
                       rng.NextBool(0.5));
  for (ptx::Statement& stmt : kernel.body) {
    auto* inst = std::get_if<ptx::Instruction>(&stmt);
    if (inst != nullptr && inst->IsProtectedMemoryAccess())
      inst->operands[inst->IsLoad() ? 1 : 0].offset += setup.displacement;
  }
  PatchOptions options;
  options.mode = mode;
  options.elision_enabled = elision;
  auto patched = PatchKernel(kernel, options);
  ASSERT_TRUE(patched.ok()) << patched.status();
  ptx::Module m;
  m.kernels.push_back(patched->kernel);

  const GrdArgs grd = ComputeGrdArgs(mode, base, size);
  LaunchParams params;
  std::uint32_t count = 0;
  if (loop_shape) {
    params.grid = {2, 1, 1};
    params.block = {1, 1, 1};
    count = static_cast<std::uint32_t>(rng.NextInRange(1, 6));  // iterations
  } else {
    params.block = {32, 1, 1};
  }
  params.args = {KernelArg::U64(data), KernelArg::U32(count),
                 KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};

  simgpu::GlobalMemory memory(32ull << 20);
  EscapeRecorder policy(base, size);
  Interpreter interp(&memory, &policy, 1);
  auto stats = interp.Execute(m, "rk", params);

  EXPECT_EQ(policy.escapes(), 0u) << "first escape: " << policy.first_escape();
  if (data % 4 != 0) {
    if (!stats.ok()) {
      const Status& status = stats.status();
      const bool misaligned =
          status.code() == StatusCode::kInvalidArgument &&
          status.message().find("misaligned 4-byte") != std::string::npos;
      const bool trap =
          mode == BoundsCheckMode::kChecking &&
          status.code() == StatusCode::kOutOfRange &&
          status.message().find("bounds check trap") != std::string::npos;
      EXPECT_TRUE(misaligned || trap) << status;
    }
    return;
  }
  // Every setup but the honest first one may trip checking mode's trap.
  if (mode == BoundsCheckMode::kChecking && setup_index != 0) {
    if (!stats.ok()) {
      EXPECT_EQ(stats.status().code(), StatusCode::kOutOfRange);
      EXPECT_NE(stats.status().message().find("bounds check trap"),
                std::string::npos)
          << stats.status();
    }
    return;
  }
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(policy.accesses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PatchedRandomKernels,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Range(0, 11)));

// ---- Register model (Figure 9) ----------------------------------------

TEST(RegModel, NoOptCountsDistinctRegisters) {
  const Kernel k = ptx::MakeStoreTidKernel();
  const RegisterUsage native = EstimateRegisterUsage(k);
  // %rd1..4, %r1..2 -> 6 distinct virtual registers actually used.
  EXPECT_EQ(native.no_opt, 6u);
  EXPECT_LE(native.optimized, native.no_opt);
}

TEST(RegModel, PatchedAddsFewRegistersNoOpt) {
  const Kernel k = ptx::MakeStoreTidKernel();
  const auto patched = MustPatch(k);
  const RegisterUsage native = EstimateRegisterUsage(k);
  const RegisterUsage sandboxed = EstimateRegisterUsage(patched.kernel);
  const std::size_t delta = sandboxed.no_opt - native.no_opt;
  EXPECT_GE(delta, 2u);  // at least base+mask
  EXPECT_LE(delta, 4u);  // Figure 9a: up to 4 extra registers
}

TEST(RegModel, OptimizedDeltaSmallerThanNoOptDelta) {
  // Figure 9b: with -O3 most kernels pay nothing because the fencing temps
  // have short live ranges.
  std::size_t sum_noopt_delta = 0, sum_opt_delta = 0, n = 0;
  for (const Kernel& k : ptx::MakeSampleModule().kernels) {
    const auto patched = MustPatch(k);
    const RegisterUsage native = EstimateRegisterUsage(k);
    const RegisterUsage sandboxed = EstimateRegisterUsage(patched.kernel);
    sum_noopt_delta += sandboxed.no_opt - native.no_opt;
    sum_opt_delta += sandboxed.optimized >= native.optimized
                         ? sandboxed.optimized - native.optimized
                         : 0;
    ++n;
  }
  EXPECT_LT(sum_opt_delta, sum_noopt_delta);
}

// ---- Guard elision --------------------------------------------------------

std::size_t BodyInstructionCount(const Kernel& k) {
  std::size_t n = 0;
  for (const auto& stmt : k.body)
    if (std::holds_alternative<ptx::Instruction>(stmt)) ++n;
  return n;
}

// Counter loop over a loop-invariant pointer: the only in-loop access reads
// [%rd2+4] where %rd2 never changes. The loop header's label ends every
// fence's reuse, so the load is fenced inside the loop on every iteration.
Kernel MakeHoistKernel(std::string name = "hoistk") {
  using ptx::Operand;
  auto inst = [](std::string op, std::vector<std::string> mods,
                 std::vector<Operand> ops) {
    ptx::Instruction i;
    i.opcode = std::move(op);
    i.modifiers = std::move(mods);
    i.operands = std::move(ops);
    return i;
  };
  auto regs = [](ptx::Type t, std::string prefix, int count) {
    ptx::RegDecl d;
    d.type = t;
    d.is_range = true;
    d.prefix = std::move(prefix);
    d.count = count;
    return d;
  };
  Kernel k;
  k.name = std::move(name);
  ptx::Param p0, p1;
  p0.type = ptx::Type::kU64;
  p0.name = k.name + "_param_0";
  p1.type = ptx::Type::kU32;
  p1.name = k.name + "_param_1";
  k.params = {p0, p1};
  k.body.emplace_back(regs(ptx::Type::kPred, "%p", 2));
  k.body.emplace_back(regs(ptx::Type::kB32, "%r", 5));
  k.body.emplace_back(regs(ptx::Type::kB64, "%rd", 3));
  k.body.emplace_back(inst("ld", {"param", "u64"},
                           {Operand::Reg("%rd1"), Operand::Mem(p0.name)}));
  k.body.emplace_back(inst("ld", {"param", "u32"},
                           {Operand::Reg("%r1"), Operand::Mem(p1.name)}));
  k.body.emplace_back(inst("cvta", {"to", "global", "u64"},
                           {Operand::Reg("%rd2"), Operand::Reg("%rd1")}));
  k.body.emplace_back(
      inst("mov", {"u32"}, {Operand::Reg("%r2"), Operand::Imm(0)}));
  k.body.emplace_back(ptx::Label{"HLOOP"});
  k.body.emplace_back(inst("ld", {"global", "u32"},
                           {Operand::Reg("%r3"), Operand::Mem("%rd2", 4)}));
  k.body.emplace_back(inst("add", {"s32"}, {Operand::Reg("%r2"),
                                            Operand::Reg("%r2"),
                                            Operand::Reg("%r3")}));
  k.body.emplace_back(inst(
      "add", {"s32"},
      {Operand::Reg("%r2"), Operand::Reg("%r2"), Operand::Imm(1)}));
  k.body.emplace_back(inst("setp", {"lt", "u32"},
                           {Operand::Reg("%p1"), Operand::Reg("%r2"),
                            Operand::Reg("%r1")}));
  ptx::Instruction backedge =
      inst("bra", {}, {Operand::Id("HLOOP")});
  backedge.pred = ptx::Predicate{"%p1", false};
  k.body.emplace_back(std::move(backedge));
  k.body.emplace_back(inst("st", {"global", "u32"},
                           {Operand::Mem("%rd2"), Operand::Reg("%r2")}));
  k.body.emplace_back(inst("ret", {}, {}));
  return k;
}

std::vector<Kernel> ElisionCorpus() {
  std::vector<Kernel> kernels = ptx::MakeSampleModule().kernels;
  kernels.push_back(ptx::MakePointerWalkKernel("walk", 2));
  kernels.push_back(ptx::MakeRepeatedRmwKernel("rmw", 4));
  kernels.push_back(MakeHoistKernel());
  return kernels;
}

// inserted_instructions must equal the exact emitted-body delta for every
// kernel, every mode, elision on and off — including base+offset
// materialization temporaries.
TEST(GuardElision, InsertedInstructionsAreExactBodyDelta) {
  for (const Kernel& k : ElisionCorpus()) {
    for (const auto mode :
         {BoundsCheckMode::kFencingBitwise, BoundsCheckMode::kFencingModulo,
          BoundsCheckMode::kChecking}) {
      for (const bool elision : {false, true}) {
        PatchOptions options;
        options.mode = mode;
        options.elision_enabled = elision;
        auto patched = PatchKernel(k, options);
        ASSERT_TRUE(patched.ok()) << k.name << ": " << patched.status();
        EXPECT_EQ(patched->stats.inserted_instructions,
                  BodyInstructionCount(patched->kernel) -
                      BodyInstructionCount(k))
            << k.name << " " << BoundsCheckModeName(mode)
            << " elision=" << elision;
      }
    }
  }
}

TEST(GuardElision, OffByDefaultMatchesLegacyOutput) {
  // PatchOptions{} must still produce the legacy full-patch body.
  for (const Kernel& k : ElisionCorpus()) {
    PatchOptions legacy;
    auto patched = PatchKernel(k, legacy);
    ASSERT_TRUE(patched.ok()) << patched.status();
    EXPECT_EQ(patched->stats.guards_elided, 0u);
  }
}

TEST(GuardElision, DominatedFencesElided) {
  // rmw: 4 ld/st pairs over offsets 0,4,8,0 -> three distinct fence
  // expressions, so 3 fences survive and the other 5 are elided.
  PatchOptions options;
  options.elision_enabled = true;
  auto patched = PatchKernel(ptx::MakeRepeatedRmwKernel("rmw", 4), options);
  ASSERT_TRUE(patched.ok()) << patched.status();
  EXPECT_EQ(patched->stats.guards_elided, 5u);
  EXPECT_EQ(patched->stats.patched_loads, 4u);
  EXPECT_EQ(patched->stats.patched_stores, 4u);
  // 2 ld.param + fence(+0)=2 + fence(+4)=3 + fence(+8)=3.
  EXPECT_EQ(patched->stats.inserted_instructions, 10u);
  // Full patching pays 2 + 2*(2) + 6*(3) = 24... (offsets 4/8 occur twice
  // each as ld+st; offset 0 occurs four times): 4*2 + 4*3 = 20, +2 = 22.
  PatchOptions full;
  auto unopt = PatchKernel(ptx::MakeRepeatedRmwKernel("rmw", 4), full);
  ASSERT_TRUE(unopt.ok());
  EXPECT_EQ(unopt->stats.inserted_instructions, 22u);
  // Elided consumers read the provider's dedicated slot register.
  const std::string text = ptx::Print(patched->kernel);
  EXPECT_NE(text.find("%grdtmp4"), std::string::npos) << text;
}

TEST(GuardElision, ElidedKernelsReparse) {
  for (const Kernel& k : ElisionCorpus()) {
    for (const auto mode :
         {BoundsCheckMode::kFencingBitwise, BoundsCheckMode::kFencingModulo,
          BoundsCheckMode::kChecking}) {
      PatchOptions options;
      options.mode = mode;
      options.elision_enabled = true;
      auto patched = PatchKernel(k, options);
      ASSERT_TRUE(patched.ok()) << k.name << ": " << patched.status();
      ptx::Module m;
      m.kernels.push_back(patched->kernel);
      auto reparsed = ptx::Parse(ptx::Print(m));
      ASSERT_TRUE(reparsed.ok())
          << k.name << " " << BoundsCheckModeName(mode) << ": "
          << reparsed.status();
      EXPECT_EQ(reparsed->kernels[0], patched->kernel);
    }
  }
}

// Elided and full patching must be observationally identical — including the
// wrap-around (bitwise/modulo) and trap (checking) OOB semantics — both when
// the walk fits the partition and when it exceeds it.
TEST(GuardElision, WrapParityFullVsElided) {
  const Kernel kernel = ptx::MakePointerWalkKernel("walk", 2);
  const std::uint64_t base = 1ull << 20;
  const std::uint64_t size = 4096;

  struct Run {
    Status status = OkStatus();
    std::vector<std::uint32_t> partition;
  };
  auto run = [&](BoundsCheckMode mode, bool elision,
                 std::uint32_t iters) -> Run {
    PatchOptions options;
    options.mode = mode;
    options.elision_enabled = elision;
    auto patched = PatchKernel(kernel, options);
    EXPECT_TRUE(patched.ok()) << patched.status();
    ptx::Module m;
    m.kernels.push_back(patched->kernel);
    simgpu::GlobalMemory memory(16ull << 20);
    Interpreter interp(&memory, nullptr, 1);
    const GrdArgs grd = ComputeGrdArgs(mode, base, size);
    LaunchParams params;
    params.block = {32, 1, 1};
    params.args = {KernelArg::U64(base), KernelArg::U32(iters),
                   KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};
    Run result;
    auto stats = interp.Execute(m, kernel.name, params);
    if (!stats.ok()) result.status = stats.status();
    for (std::uint64_t a = base; a < base + size; a += 4) {
      auto v = memory.Load<std::uint32_t>(a);
      EXPECT_TRUE(v.ok());
      result.partition.push_back(v.ok() ? *v : 0);
    }
    return result;
  };

  for (const auto mode :
       {BoundsCheckMode::kFencingBitwise, BoundsCheckMode::kFencingModulo,
        BoundsCheckMode::kChecking}) {
    // 4 iterations spans 1 KiB (in bounds); 32 spans 8 KiB (OOB: wrap-around
    // for the fencing modes, trap for checking).
    for (const std::uint32_t iters : {4u, 32u}) {
      const Run full = run(mode, false, iters);
      const Run elided = run(mode, true, iters);
      EXPECT_EQ(full.status.code(), elided.status.code())
          << BoundsCheckModeName(mode) << " iters=" << iters;
      EXPECT_EQ(full.partition, elided.partition)
          << BoundsCheckModeName(mode) << " iters=" << iters;
    }
  }
}

// guardbench's library is the cuRAND row of Table 3 at seed 1, loaded as
// printed PTX; pin what elision removes from it in each mode.
TEST(GuardElision, ServedLibraryYield) {
  ptx::Module library;
  for (const ptx::LibraryCorpusSpec& spec : ptx::Table3Corpora())
    if (spec.name.rfind("cuRAND", 0) == 0)
      ptx::GenerateCorpus(spec, 1, [&library](const Kernel& kernel) {
        library.kernels.push_back(kernel);
      });
  auto served = ptx::Parse(ptx::Print(library));
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_EQ(served->kernels.size(), 204u);

  const std::pair<BoundsCheckMode, std::size_t> kInserted[] = {
      {BoundsCheckMode::kFencingBitwise, 3414},
      {BoundsCheckMode::kFencingModulo, 4483},
      {BoundsCheckMode::kChecking, 5753}};
  for (const auto& [mode, inserted] : kInserted) {
    PatchOptions options;
    options.mode = mode;
    options.elision_enabled = true;
    PatchStats stats;
    ASSERT_TRUE(PatchModule(*served, options, &stats).ok());
    EXPECT_EQ(stats.inserted_instructions, inserted)
        << BoundsCheckModeName(mode);
    EXPECT_EQ(stats.guards_elided, 7490u) << BoundsCheckModeName(mode);
  }
}

// A fence is available on the edge into RLOOP from above but not on the back
// edge, which advanced %rd2: the load after the label must fence again, and
// only the store after it reuses a fence.
TEST(GuardElision, ReuseStopsAtLabels) {
  auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry relabel(.param .u64 relabel_param_0,
                        .param .u32 relabel_param_1)
{
    .reg .pred %p<2>;
    .reg .b32 %r<5>;
    .reg .b64 %rd<3>;
    ld.param.u64 %rd1, [relabel_param_0];
    ld.param.u32 %r1, [relabel_param_1];
    cvta.to.global.u64 %rd2, %rd1;
    ld.global.u32 %r2, [%rd2];
    mov.u32 %r3, 0;
RLOOP:
    ld.global.u32 %r4, [%rd2];
    add.s32 %r4, %r4, %r2;
    st.global.u32 [%rd2], %r4;
    add.s64 %rd2, %rd2, 4;
    add.s32 %r3, %r3, 1;
    setp.lt.u32 %p1, %r3, %r1;
    @%p1 bra RLOOP;
    ret;
}
)");
  ASSERT_TRUE(module.ok()) << module.status();
  const Kernel& kernel = module->kernels[0];
  const std::uint64_t base = 1ull << 20;
  const std::uint64_t size = 64;

  auto run = [&](BoundsCheckMode mode, bool elision, std::uint32_t iters,
                 Status* status) {
    PatchOptions options;
    options.mode = mode;
    options.elision_enabled = elision;
    std::vector<std::uint32_t> partition;
    auto patched = PatchKernel(kernel, options);
    if (!patched.ok()) {
      ADD_FAILURE() << patched.status();
      return partition;
    }
    if (elision) {
      EXPECT_EQ(patched->stats.guards_elided, 1u) << BoundsCheckModeName(mode);
    }
    ptx::Module m;
    m.kernels.push_back(patched->kernel);
    simgpu::GlobalMemory memory(4ull << 20);
    for (std::uint64_t i = 0; i < size / 4; ++i)
      EXPECT_TRUE(memory.Store<std::uint32_t>(base + 4 * i, 100 + 7 * i).ok());
    Interpreter interp(&memory, nullptr, 1);
    const GrdArgs grd = ComputeGrdArgs(mode, base, size);
    LaunchParams params;
    params.args = {KernelArg::U64(base), KernelArg::U32(iters),
                   KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};
    auto stats = interp.Execute(m, kernel.name, params);
    *status = stats.ok() ? OkStatus() : stats.status();
    for (std::uint64_t a = base; a < base + size; a += 4) {
      auto v = memory.Load<std::uint32_t>(a);
      EXPECT_TRUE(v.ok());
      partition.push_back(v.ok() ? *v : 0);
    }
    return partition;
  };

  for (const auto mode :
       {BoundsCheckMode::kFencingBitwise, BoundsCheckMode::kFencingModulo,
        BoundsCheckMode::kChecking}) {
    // 8 iterations stay in the 16-word partition; 40 wrap around it (the
    // fencing modes) or trap (checking).
    for (const std::uint32_t iters : {8u, 40u}) {
      Status full_status, elided_status;
      const auto full = run(mode, false, iters, &full_status);
      const auto elided = run(mode, true, iters, &elided_status);
      EXPECT_EQ(full_status.code(), elided_status.code())
          << BoundsCheckModeName(mode) << " iters=" << iters;
      EXPECT_EQ(full, elided)
          << BoundsCheckModeName(mode) << " iters=" << iters;
    }
  }

  PatchOptions options;
  options.elision_enabled = true;
  auto patched = PatchKernel(kernel, options);
  ASSERT_TRUE(patched.ok()) << patched.status();
  const std::string text = ptx::Print(patched->kernel);
  EXPECT_NE(text.find("RLOOP:\n    and.b64 %grdtmp4, %rd2, %grdreg2;"),
            std::string::npos)
      << text;
}

// Golden corpus: the exact elided output for a fixed kernel set is committed
// as text; any change to the rewrite rules shows up as a reviewable diff.
// Regenerate with GRD_UPDATE_GOLDEN=1.
TEST(GuardElision, GoldenCorpusStable) {
  std::string text;
  const auto append_mode = [&](BoundsCheckMode mode,
                               const std::vector<Kernel>& kernels) {
    ptx::Module m;
    PatchOptions options;
    options.mode = mode;
    options.elision_enabled = true;
    for (const Kernel& k : kernels) {
      auto patched = PatchKernel(k, options);
      ASSERT_TRUE(patched.ok()) << k.name << ": " << patched.status();
      m.kernels.push_back(patched->kernel);
    }
    text += "// ---- mode: ";
    text += BoundsCheckModeName(mode);
    text += " ----\n";
    text += ptx::Print(m);
  };
  append_mode(BoundsCheckMode::kFencingBitwise,
              {ptx::MakeStoreTidKernel(), ptx::MakeOffsetCopyKernel(),
               ptx::MakeIndirectBranchKernel(),
               ptx::MakePointerWalkKernel("walk", 2),
               ptx::MakeRepeatedRmwKernel("rmw", 4), MakeHoistKernel()});
  append_mode(BoundsCheckMode::kFencingModulo,
              {ptx::MakePointerWalkKernel("walk", 2),
               ptx::MakeRepeatedRmwKernel("rmw", 4)});
  append_mode(BoundsCheckMode::kChecking,
              {ptx::MakePointerWalkKernel("walk", 2),
               ptx::MakeRepeatedRmwKernel("rmw", 4)});

  const std::string path =
      std::string(GRD_REPO_DIR) + "/tests/golden/guard_elision.golden.ptx";
  if (std::getenv("GRD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << text;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with GRD_UPDATE_GOLDEN=1 to create)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), text)
      << "golden PTX drifted; rerun with GRD_UPDATE_GOLDEN=1 and review the "
         "diff";
}

}  // namespace
}  // namespace grd::ptxpatcher
