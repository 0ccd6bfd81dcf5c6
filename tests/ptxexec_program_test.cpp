// Parity suite for the kernel execution engine (engine.cpp) against the
// seed string-map interpreter (Interpreter::ExecuteReference): every kernel
// family the ptxexec tests exercise — plus patched kernels, faults,
// checkpoints and random fuzz — must produce identical ExecStats, statuses,
// fault details and memory images on the reference and on the engine, fed
// both CompileKernel output and FuseKernel output. Also holds the
// no-string-lookups-per-step regression guard and the fusion structure
// tests.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxpatcher/patcher.hpp"

namespace grd::ptxexec {
namespace {

using ptx::MakeSampleModule;

constexpr std::uint64_t kMemBytes = 8ull << 20;

// Initial memory image: (address, u32 value) pairs stored before the run.
using MemInit = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

class RangePolicy final : public simgpu::AccessPolicy {
 public:
  RangePolicy(std::uint64_t base, std::uint64_t size)
      : base_(base), size_(size) {}
  Status CheckAccess(std::uint64_t, std::uint64_t addr, std::uint64_t size,
                     bool) override {
    if (addr < base_ || addr + size > base_ + size_)
      return PermissionDenied("access outside allowed range");
    return OkStatus();
  }

 private:
  std::uint64_t base_, size_;
};

struct EngineRun {
  Result<ExecStats> result = ExecStats{};
  DeviceFault fault;
  std::vector<std::uint8_t> memory;
};

// Runs `kernel` once per engine on identical fresh memory images and
// returns both outcomes for comparison.
template <typename RunFn>
EngineRun RunEngine(const ptx::Module& module, const std::string& kernel,
                    const LaunchParams& params, const MemInit& init,
                    simgpu::AccessPolicy* policy, RunFn&& run) {
  EngineRun out;
  simgpu::GlobalMemory memory(kMemBytes);
  simgpu::AllowAllPolicy allow_all;
  for (const auto& [addr, value] : init)
    EXPECT_TRUE(memory.Store<std::uint32_t>(addr, value).ok());
  Interpreter interp(&memory, policy != nullptr ? policy : &allow_all, 1);
  out.result = run(interp, module, kernel, params);
  out.fault = interp.last_fault();
  out.memory.resize(kMemBytes);
  EXPECT_TRUE(memory.Read(0, out.memory.data(), kMemBytes).ok());
  return out;
}

// Compares one engine's outcome (stats/status/fault/memory) against the
// reference run; `engine` labels the failure.
void ExpectSameOutcome(const EngineRun& reference, const EngineRun& other,
                       const std::string& kernel, const char* engine) {
  SCOPED_TRACE(std::string("engine=") + engine);
  ASSERT_EQ(reference.result.ok(), other.result.ok())
      << "kernel " << kernel << ": reference="
      << (reference.result.ok() ? "ok" : reference.result.status().ToString())
      << " " << engine << "="
      << (other.result.ok() ? "ok" : other.result.status().ToString());
  if (reference.result.ok()) {
    const ExecStats& a = *reference.result;
    const ExecStats& b = *other.result;
    EXPECT_EQ(a.instructions, b.instructions) << kernel;
    EXPECT_EQ(a.global_loads, b.global_loads) << kernel;
    EXPECT_EQ(a.global_stores, b.global_stores) << kernel;
    EXPECT_EQ(a.shared_accesses, b.shared_accesses) << kernel;
    EXPECT_EQ(a.threads, b.threads) << kernel;
    EXPECT_EQ(a.blocks, b.blocks) << kernel;
  } else {
    EXPECT_EQ(reference.result.status().code(), other.result.status().code())
        << kernel;
    EXPECT_EQ(reference.result.status().message(),
              other.result.status().message())
        << kernel;
    EXPECT_EQ(reference.fault.status.code(), other.fault.status.code())
        << kernel;
    EXPECT_EQ(reference.fault.address, other.fault.address) << kernel;
    EXPECT_EQ(reference.fault.thread_linear_id, other.fault.thread_linear_id)
        << kernel;
    EXPECT_EQ(reference.fault.kernel, other.fault.kernel) << kernel;
  }
  EXPECT_EQ(reference.memory, other.memory)
      << "kernel " << kernel << ": engines diverged in memory effects";
}

// The program the engine runs for `kernel`: CompileKernel output, then
// FuseKernel output when `fuse` is set. Errors match the module overload's.
Result<CompiledKernel> EngineProgram(const ptx::Module& module,
                                     const std::string& kernel, bool fuse) {
  const ptx::Kernel* k = module.FindKernel(kernel);
  if (k == nullptr)
    return Status(NotFound("kernel " + kernel + " not in module"));
  GRD_ASSIGN_OR_RETURN(CompiledKernel compiled, CompileKernel(*k));
  if (!fuse) return compiled;
  return FuseKernel(std::move(compiled));
}

// Every kernel every parity test runs goes through the reference oracle and
// through the engine twice: on the unfused and on the fused program.
void ExpectParity(const ptx::Module& module, const std::string& kernel,
                  const LaunchParams& params, const MemInit& init = {},
                  simgpu::AccessPolicy* ref_policy = nullptr,
                  simgpu::AccessPolicy* engine_policy = nullptr) {
  const EngineRun reference = RunEngine(
      module, kernel, params, init, ref_policy,
      [](Interpreter& interp, const ptx::Module& m, const std::string& k,
         const LaunchParams& p) { return interp.ExecuteReference(m, k, p); });
  for (const bool fuse : {false, true}) {
    const EngineRun engine = RunEngine(
        module, kernel, params, init, engine_policy,
        [fuse](Interpreter& interp, const ptx::Module& m,
               const std::string& k,
               const LaunchParams& p) -> Result<ExecStats> {
          auto program = EngineProgram(m, k, fuse);
          if (!program.ok()) return program.status();
          return interp.Execute(*program, p);
        });
    ExpectSameOutcome(reference, engine, kernel, fuse ? "fused" : "unfused");
  }
}

// ---- sample-module kernels (the ptxexec_test corpus) ----------------------

TEST(ProgramParity, StoreTid) {
  LaunchParams params;
  params.block = {8, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U32(5)};
  ExpectParity(MakeSampleModule(), "kernel", params);
}

TEST(ProgramParity, VecAddMultiBlockGuardedTail) {
  MemInit init;
  for (int i = 0; i < 500; ++i) {
    init.push_back({0x10000 + i * 4, 0x3FC00000});  // 1.5f
    init.push_back({0x20000 + i * 4, 0x40200000});  // 2.5f
  }
  LaunchParams params;
  params.grid = {4, 1, 1};
  params.block = {128, 1, 1};
  params.args = {KernelArg::U64(0x10000), KernelArg::U64(0x20000),
                 KernelArg::U64(0x30000), KernelArg::U32(500)};
  ExpectParity(MakeSampleModule(), "vecadd", params, init);
}

TEST(ProgramParity, SaxpyFma) {
  MemInit init;
  for (int i = 0; i < 32; ++i) {
    init.push_back({0x1000 + i * 4, 0x40000000});  // 2.0f
    init.push_back({0x2000 + i * 4, 0x3F800000});  // 1.0f
  }
  LaunchParams params;
  params.block = {32, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U64(0x2000),
                 KernelArg::F32(3.0f), KernelArg::U32(32)};
  ExpectParity(MakeSampleModule(), "saxpy", params, init);
}

TEST(ProgramParity, OffsetCopy) {
  MemInit init;
  for (int i = 0; i < 64; ++i) init.push_back({0x4000 + i * 4, 100u + i});
  LaunchParams params;
  params.block = {16, 1, 1};
  params.args = {KernelArg::U64(0x4000), KernelArg::U64(0x8000)};
  ExpectParity(MakeSampleModule(), "offset_copy", params, init);
}

TEST(ProgramParity, DotUnrolled) {
  MemInit init;
  for (int i = 0; i < 16; ++i) {
    init.push_back({0x1000 + i * 4, 0x40000000});  // 2.0f
    init.push_back({0x2000 + i * 4, 0x40400000});  // 3.0f
  }
  LaunchParams params;
  params.block = {4, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U64(0x2000),
                 KernelArg::U64(0x3000)};
  ExpectParity(MakeSampleModule(), "dot", params, init);
}

TEST(ProgramParity, ReduceSharedMemoryBarriers) {
  MemInit init;
  for (int i = 0; i < 64; ++i) init.push_back({0x1000 + i * 4, 0x3F800000});
  LaunchParams params;
  params.block = {64, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U64(0x2000)};
  ExpectParity(MakeSampleModule(), "reduce", params, init);
}

TEST(ProgramParity, IndirectBranchAllArmsAndFault) {
  LaunchParams params;
  params.block = {1, 1, 1};
  for (std::uint32_t sel : {0u, 1u, 2u, 7u}) {  // 7 faults (table size 3)
    params.args = {KernelArg::U64(0x100), KernelArg::U32(sel)};
    ExpectParity(MakeSampleModule(), "brx_kernel", params);
  }
}

TEST(ProgramParity, OobWriterUnprotectedAndPolicyFault) {
  LaunchParams params;
  params.block = {1, 1, 1};
  params.args = {KernelArg::U64(0x10000), KernelArg::U64(0x10000),
                 KernelArg::U32(666)};
  // Unprotected: the write lands (Figure 1 scenario).
  ExpectParity(MakeSampleModule(), "oob_writer", params,
               {{0x20000, 777u}});
  // Under a range policy both engines must fault identically.
  RangePolicy ref_policy(0x10000, 0x1000);
  RangePolicy engine_policy(0x10000, 0x1000);
  ExpectParity(MakeSampleModule(), "oob_writer", params, {{0x20000, 777u}},
               &ref_policy, &engine_policy);
}

TEST(ProgramParity, MissingKernelArgumentFaults) {
  LaunchParams params;
  params.block = {4, 1, 1};
  params.args = {KernelArg::U64(0x1000)};  // second param missing
  ExpectParity(MakeSampleModule(), "kernel", params);
}

TEST(ProgramParity, UnknownKernelNameSameError) {
  LaunchParams params;
  simgpu::GlobalMemory memory(1 << 20);
  simgpu::AllowAllPolicy allow;
  Interpreter interp(&memory, &allow, 1);
  const ptx::Module module = MakeSampleModule();
  auto reference = interp.ExecuteReference(module, "nope", params);
  auto engine = interp.Execute(module, "nope", params);
  ASSERT_FALSE(reference.ok());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(reference.status().code(), engine.status().code());
  EXPECT_EQ(reference.status().message(), engine.status().message());
}

// ---- patched (sandboxed) kernels ------------------------------------------

TEST(ProgramParity, PatchedKernelsAllModes) {
  using ptxpatcher::BoundsCheckMode;
  for (const auto mode :
       {BoundsCheckMode::kFencingBitwise, BoundsCheckMode::kFencingModulo,
        BoundsCheckMode::kChecking}) {
    ptxpatcher::PatchOptions options;
    options.mode = mode;
    auto patched = ptxpatcher::PatchModule(MakeSampleModule(), options);
    ASSERT_TRUE(patched.ok()) << patched.status();
    const std::uint64_t base = 1ull << 20;
    const auto grd = ptxpatcher::ComputeGrdArgs(mode, base, 1ull << 20);
    MemInit init;
    for (int i = 0; i < 256; ++i) init.push_back({base + i * 4, 7u * i});
    LaunchParams params;
    params.grid = {2, 1, 1};
    params.block = {128, 1, 1};
    params.args = {KernelArg::U64(base), KernelArg::U64(base + 0x8000),
                   KernelArg::U32(256), KernelArg::U64(grd.arg0),
                   KernelArg::U64(grd.arg1)};
    ExpectParity(*patched, "copyk", params, init);
  }
}

// ---- arithmetic / control snippets ----------------------------------------

class SnippetParity : public ::testing::Test {
 protected:
  // The ptxexec_arith_test harness shape: %rd1 = out pointer, %rd2/%rd3 =
  // u64 args a/b.
  void Check(const std::string& body, std::uint64_t a = 0,
             std::uint64_t b = 0) {
    const std::string src = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry t(.param .u64 p_out, .param .u64 p_a, .param .u64 p_b)
{
    .reg .pred %p<4>;
    .reg .f32 %f<8>;
    .reg .f64 %fd<8>;
    .reg .b32 %r<16>;
    .reg .b64 %rd<16>;
    .shared .align 8 .b8 scratch[64];
    ld.param.u64 %rd1, [p_out];
    ld.param.u64 %rd2, [p_a];
    ld.param.u64 %rd3, [p_b];
    cvta.to.global.u64 %rd1, %rd1;
)" + body + R"(
    ret;
}
)";
    auto module = ptx::Parse(src);
    ASSERT_TRUE(module.ok()) << module.status() << "\n" << body;
    LaunchParams params;
    params.args = {KernelArg::U64(0x1000), KernelArg::U64(a),
                   KernelArg::U64(b)};
    ExpectParity(*module, "t", params);
  }
};

TEST_F(SnippetParity, IntegerArithmetic) {
  Check("div.s32 %r1, %rd2, %rd3; st.global.u32 [%rd1], %r1;",
        static_cast<std::uint64_t>(-7), 2);
  Check("rem.u64 %rd4, %rd2, %rd3; st.global.u64 [%rd1], %rd4;", 1000003, 97);
  Check("div.u32 %r1, %rd2, %rd3; st.global.u32 [%rd1], %r1;", 42, 0);
  Check("rem.s32 %r1, %rd2, %rd3; st.global.u32 [%rd1], %r1;",
        static_cast<std::uint64_t>(-9), 4);
  Check("mul.hi.u32 %r1, %rd2, %rd3; st.global.u32 [%rd1], %r1;", 0xFFFFFFFF,
        0xFFFFFFFF);
  Check("mul.wide.s32 %rd4, %rd2, %rd3; st.global.u64 [%rd1], %rd4;",
        static_cast<std::uint32_t>(-3), 5);
  Check("mad.lo.u32 %r1, %rd2, %rd3, 17; st.global.u32 [%rd1], %r1;", 6, 9);
  Check("mad.wide.s32 %rd4, %rd2, %rd3, 1000; st.global.u64 [%rd1], %rd4;",
        static_cast<std::uint32_t>(-20), 3);
  Check("min.s32 %r1, %rd2, %rd3; max.s32 %r2, %rd2, %rd3; "
        "add.s32 %r3, %r1, %r2; st.global.u32 [%rd1], %r3;",
        static_cast<std::uint64_t>(-10), 3);
  Check("shr.s32 %r1, %rd2, 2; st.global.u32 [%rd1], %r1;",
        static_cast<std::uint32_t>(-16), 0);
  Check("shl.b32 %r1, %rd2, 35; st.global.u32 [%rd1], %r1;", 3, 0);
  Check("neg.s32 %r1, %rd2; abs.s32 %r2, %r1; xor.b32 %r3, %r1, %r2; "
        "not.b32 %r4, %r3; st.global.u32 [%rd1], %r4;",
        12345, 0);
}

TEST_F(SnippetParity, FloatArithmetic) {
  Check("mov.f32 %f1, 0f40490FDB; sqrt.f32 %f2, %f1; "
        "st.global.f32 [%rd1], %f2;");
  Check("mov.f32 %f1, 3.5; mov.f32 %f2, 0f3F800000; div.f32 %f3, %f1, %f2; "
        "min.f32 %f4, %f3, %f1; max.f32 %f5, %f4, %f2; "
        "st.global.f32 [%rd1], %f5;");
  Check("mov.f64 %fd1, 2.25; mov.f64 %fd2, 0.5; fma.rn.f64 %fd3, %fd1, %fd2, "
        "%fd1; neg.f64 %fd4, %fd3; abs.f64 %fd5, %fd4; "
        "st.global.f64 [%rd1], %fd5;");
  Check("mov.f32 %f1, 1.5; mov.f32 %f2, 0.0; div.f32 %f3, %f1, %f2; "
        "st.global.f32 [%rd1], %f3;");  // div-by-zero convention
}

TEST_F(SnippetParity, Conversions) {
  Check("cvt.f64.s32 %fd1, %rd2; st.global.f64 [%rd1], %fd1;",
        static_cast<std::uint64_t>(-42), 0);
  Check("mov.f64 %fd1, 7.75; cvt.rzi.s32.f64 %r1, %fd1; "
        "st.global.u32 [%rd1], %r1;");
  Check("mov.f32 %f1, 0f4479C000; cvt.f64.f32 %fd1, %f1; "
        "st.global.f64 [%rd1], %fd1;");
  Check("cvt.u16.u64 %r1, %rd2; st.global.u32 [%rd1], %r1;", 0x12345678, 0);
  Check("cvt.s64.s8 %rd4, %rd2; st.global.u64 [%rd1], %rd4;", 0x80, 0);
}

TEST_F(SnippetParity, PredicatesAndSelp) {
  Check("setp.lt.s32 %p1, %rd2, %rd3; selp.b32 %r1, 11, 22, %p1; "
        "st.global.u32 [%rd1], %r1;",
        static_cast<std::uint64_t>(-1), 1);
  Check("setp.hi.u32 %p1, %rd2, %rd3; @%p1 st.global.u32 [%rd1], 1; "
        "@!%p1 st.global.u32 [%rd1], 2;",
        10, 3);
  Check("setp.ls.u64 %p1, %rd2, %rd3; selp.b64 %rd4, %rd2, %rd3, %p1; "
        "st.global.u64 [%rd1], %rd4;",
        5, 5);
  Check("setp.ge.f32 %p1, %f1, %f2; selp.b32 %r1, 7, 8, %p1; "
        "st.global.u32 [%rd1], %r1;");
}

TEST_F(SnippetParity, VectorLoadsStores) {
  Check("mov.u32 %r1, 0x11; mov.u32 %r2, 0x22; mov.u32 %r3, 0x33; "
        "mov.u32 %r4, 0x44; st.global.v4.u32 [%rd1], {%r1, %r2, %r3, %r4}; "
        "ld.global.v2.u32 {%r5, %r6}, [%rd1+4]; add.u32 %r7, %r5, %r6; "
        "st.global.u32 [%rd1+16], %r7;");
}

TEST_F(SnippetParity, SharedMemoryViaIdentifier) {
  Check("mov.u64 %rd4, scratch; st.shared.u64 [%rd4+8], %rd2; "
        "ld.shared.u64 %rd5, [scratch+8]; st.global.u64 [%rd1], %rd5;",
        0xDEADBEEFCAFEull, 0);
}

TEST_F(SnippetParity, SpecialRegistersEveryRead) {
  Check("mov.u32 %r1, %tid.x; mov.u32 %r2, %ntid.x; mov.u32 %r3, %ctaid.x; "
        "mov.u32 %r4, %nctaid.x; mov.u32 %r5, %laneid; mov.u32 %r6, "
        "%warpsize; add.u32 %r7, %r1, %r2; add.u32 %r7, %r7, %r3; "
        "add.u32 %r7, %r7, %r4; add.u32 %r7, %r7, %r5; add.u32 %r7, %r7, "
        "%r6; st.global.u32 [%rd1], %r7;");
}

TEST_F(SnippetParity, UnimplementedOpcodeFaultsIdentically) {
  Check("atom.global.add.u32 %r1, [%rd1], 1; st.global.u32 [%rd1], %r1;");
}

TEST_F(SnippetParity, DeadUnimplementedOpcodeIsHarmless) {
  // The reference engine only faults when the instruction is stepped on;
  // the compiler must preserve that by deferring the error to execution.
  Check("bra SKIP; atom.global.add.u32 %r1, [%rd1], 1; SKIP: "
        "st.global.u32 [%rd1], 9;");
}

TEST_F(SnippetParity, TrapFaultsIdentically) {
  Check("setp.eq.u32 %p1, %rd2, 1; @%p1 trap; st.global.u32 [%rd1], 3;", 1,
        0);
}

// ---- randomized fuzz parity ------------------------------------------------

TEST(ProgramParity, RandomKernelFuzz) {
  // Deterministic by default; override with GRD_FUZZ_SEED=<n> to reproduce
  // a red run (the effective seed is printed with any failure below).
  const std::uint64_t seed = SeedFromEnv("GRD_FUZZ_SEED", 0xC0FFEE);
  SCOPED_TRACE("reproduce with GRD_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  for (int round = 0; round < 25; ++round) {
    ptx::Module module;
    module.kernels.push_back(ptx::MakeRandomKernel(
        rng, "rk", static_cast<int>(rng.NextInRange(1, 24)),
        static_cast<int>(rng.NextInRange(1, 12)), rng.NextBool(0.5)));
    MemInit init;
    for (int i = 0; i < 128; ++i)
      init.push_back({0x40000 + i * 4,
                      static_cast<std::uint32_t>(rng.NextInRange(0, 1u << 30))});
    LaunchParams params;
    params.grid = {static_cast<std::uint32_t>(rng.NextInRange(1, 3)), 1, 1};
    params.block = {32, 1, 1};
    params.args = {KernelArg::U64(0x40000), KernelArg::U32(0)};
    ExpectParity(module, "rk", params, init);
  }
}

// Elision-vs-full oracle: the CFG/loop guard-elision rewrite must be
// observationally identical to full per-access patching. Each round patches
// one random kernel both ways, proves each flavor self-consistent across the
// reference and both engine programs, then diffs the two flavors against
// each other on memory,
// faults and access counts (executed-instruction counts are excluded —
// shrinking them is the whole point of elision). Rounds mix loop and
// straight-line shapes, all three bounds-check modes, and generous vs
// undersized partitions, so both the unfenced fast clone and the fully
// fenced slow clone run — including wrap-around (fencing modes) and traps
// (checking mode).
TEST(ProgramParity, GuardElisionFuzzParity) {
  using ptxpatcher::BoundsCheckMode;
  const std::uint64_t seed = SeedFromEnv("GRD_FUZZ_SEED", 0xE11DE);
  SCOPED_TRACE("reproduce with GRD_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  ptxpatcher::PatchStats elision_totals;
  for (int round = 0; round < 18; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto mode = static_cast<BoundsCheckMode>(round % 3);
    const bool loop_shape = rng.NextBool(0.6);
    const bool tight = rng.NextBool(0.4);  // undersized partition: slow path

    const std::uint64_t base = 0x40000;
    const std::uint64_t size = tight ? 64 : 4096;
    const auto grd = ptxpatcher::ComputeGrdArgs(mode, base, size);
    ptx::Module native;
    LaunchParams params;
    if (loop_shape) {
      native.kernels.push_back(ptx::MakeRandomLoopKernel(rng, "fz"));
      params.grid = {2, 1, 1};
      params.block = {1, 1, 1};
      params.args = {
          KernelArg::U64(base),
          KernelArg::U32(static_cast<std::uint32_t>(rng.NextInRange(1, 6))),
          KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};
    } else {
      native.kernels.push_back(ptx::MakeRandomKernel(
          rng, "fz", static_cast<int>(rng.NextInRange(1, 12)),
          static_cast<int>(rng.NextInRange(1, 8)), rng.NextBool(0.5)));
      params.grid = {static_cast<std::uint32_t>(rng.NextInRange(1, 2)), 1, 1};
      params.block = {32, 1, 1};
      params.args = {KernelArg::U64(base), KernelArg::U32(0),
                     KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};
    }

    ptxpatcher::PatchOptions options;
    options.mode = mode;
    auto full = ptxpatcher::PatchModule(native, options);
    ASSERT_TRUE(full.ok()) << full.status();
    options.elision_enabled = true;
    ptxpatcher::PatchStats stats;
    auto elided = ptxpatcher::PatchModule(native, options, &stats);
    ASSERT_TRUE(elided.ok()) << elided.status();
    elision_totals += stats;

    MemInit init;
    for (int i = 0; i < 128; ++i)
      init.push_back({base + i * 4, static_cast<std::uint32_t>(
                                        rng.NextInRange(0, 1u << 30))});

    // Each flavor must first agree with itself on the reference and engine.
    ExpectParity(*full, "fz", params, init);
    ExpectParity(*elided, "fz", params, init);

    // Cross-flavor diff on the engine.
    const auto run = [](Interpreter& interp, const ptx::Module& m,
                        const std::string& k, const LaunchParams& p) {
      return interp.Execute(m, k, p);
    };
    const EngineRun a = RunEngine(*full, "fz", params, init, nullptr, run);
    const EngineRun b = RunEngine(*elided, "fz", params, init, nullptr, run);
    ASSERT_EQ(a.result.ok(), b.result.ok())
        << "full=" << (a.result.ok() ? "ok" : a.result.status().ToString())
        << " elided="
        << (b.result.ok() ? "ok" : b.result.status().ToString());
    if (a.result.ok()) {
      EXPECT_EQ(a.result->global_loads, b.result->global_loads);
      EXPECT_EQ(a.result->global_stores, b.result->global_stores);
      EXPECT_EQ(a.result->shared_accesses, b.result->shared_accesses);
      EXPECT_EQ(a.result->threads, b.result->threads);
      EXPECT_EQ(a.result->blocks, b.result->blocks);
    } else {
      EXPECT_EQ(a.result.status().code(), b.result.status().code());
      EXPECT_EQ(a.fault.status.code(), b.fault.status.code());
      EXPECT_EQ(a.fault.address, b.fault.address);
      EXPECT_EQ(a.fault.thread_linear_id, b.fault.thread_linear_id);
      EXPECT_EQ(a.fault.kernel, b.fault.kernel);
    }
    EXPECT_EQ(a.memory, b.memory)
        << "guard-elision flavors diverged in memory effects";
  }
  // The run must actually exercise the rewrite, or the parity proof above is
  // vacuous.
  EXPECT_GT(elision_totals.guards_elided, 0u);
  EXPECT_GT(elision_totals.loop_range_checks, 0u);
}

// ---- instruction budget / checkpoint / preemption --------------------------

TEST(ProgramParity, InstructionBudgetTripsIdentically) {
  const ptx::Module module = MakeSampleModule();
  LaunchParams params;
  params.grid = {2, 1, 1};
  params.block = {64, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U64(0x2000),
                 KernelArg::U64(0x3000), KernelArg::U32(128)};
  simgpu::GlobalMemory mem_a(kMemBytes);
  simgpu::AllowAllPolicy allow;
  Interpreter ref(&mem_a, &allow, 1);
  ref.set_max_instructions_per_thread(10);
  auto a = ref.ExecuteReference(module, "vecadd", params);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kDeadlineExceeded);

  // The budget is charged per component inside superinstructions too, so the
  // trip point (and its message) is identical with and without fusion.
  for (const bool fuse : {false, true}) {
    SCOPED_TRACE(fuse ? "fused" : "unfused");
    auto program = EngineProgram(module, "vecadd", fuse);
    ASSERT_TRUE(program.ok()) << program.status();
    if (fuse) {
      ASSERT_GT(program->super_count, 0u) << "vecadd should fuse";
    }
    simgpu::GlobalMemory mem(kMemBytes);
    Interpreter engine(&mem, &allow, 1);
    engine.set_max_instructions_per_thread(10);
    auto b = engine.Execute(*program, params);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(a.status().code(), b.status().code());
    EXPECT_EQ(a.status().message(), b.status().message());
  }
}

TEST(ProgramParity, PreemptCheckpointResumeMatchesReference) {
  const ptx::Module module = MakeSampleModule();
  MemInit init;
  for (int i = 0; i < 512; ++i) init.push_back({0x10000 + i * 4, 5u * i});

  // Reference and engine (unfused and fused): run with an always-on
  // revocation flag, collecting one block per segment, resuming until done;
  // the output must match a plain run and the totals the reference's.
  enum class Engine { kReference, kUnfused, kFused };
  ExecStats reference;
  for (const Engine engine :
       {Engine::kReference, Engine::kUnfused, Engine::kFused}) {
    SCOPED_TRACE("engine=" + std::to_string(static_cast<int>(engine)));
    simgpu::GlobalMemory memory(kMemBytes);
    simgpu::AllowAllPolicy allow;
    for (const auto& [addr, value] : init)
      ASSERT_TRUE(memory.Store<std::uint32_t>(addr, value).ok());
    Interpreter interp(&memory, &allow, 1);
    LaunchParams params;
    params.grid = {4, 1, 1};
    params.block = {128, 1, 1};
    params.args = {KernelArg::U64(0x10000), KernelArg::U64(0x20000),
                   KernelArg::U32(512)};

    std::atomic<bool> revoke{true};
    KernelCheckpoint ckpt;
    ExecControls controls;
    controls.preempt_requested = &revoke;
    controls.preempt_check_interval = 100;
    controls.checkpoint = &ckpt;

    auto program = EngineProgram(module, "copyk", engine == Engine::kFused);
    ASSERT_TRUE(program.ok()) << program.status();

    int segments = 0;
    Result<ExecStats> run = ExecStats{};
    while (true) {
      run = engine == Engine::kReference
                ? interp.ExecuteReference(module, "copyk", params, controls)
                : interp.Execute(*program, params, controls);
      if (run.ok()) break;
      ASSERT_TRUE(IsPreempted(run.status())) << run.status();
      ++segments;
      ASSERT_LT(segments, 16);
    }
    EXPECT_EQ(segments, 3) << "one block per segment over a 4-block grid";
    EXPECT_EQ(run->blocks, 4u);
    EXPECT_EQ(ckpt.blocks_done, 4u);
    if (engine == Engine::kReference) reference = *run;
    EXPECT_EQ(run->instructions, reference.instructions);
    EXPECT_EQ(run->global_loads, reference.global_loads);
    EXPECT_EQ(run->global_stores, reference.global_stores);
    EXPECT_EQ(run->threads, reference.threads);
    for (int i = 0; i < 512; ++i) {
      auto v = memory.Load<std::uint32_t>(0x20000 + i * 4);
      ASSERT_TRUE(v.ok());
      ASSERT_EQ(*v, 5u * i) << " i=" << i;
    }
  }
}

// A kernel revoked while executing inside a fused loop body must still stop
// exactly at the block boundary: the checkpoint's completed-block count
// advances one block per segment and no block is replayed, and the totals
// match the reference. The loop body fuses into a single superinstruction,
// so every preemption poll on the fused program happens between
// superinstruction dispatches; the unfused program runs the same sequence
// one instruction per dispatch.
TEST(ProgramParity, RevokedMidFusedBlockExactAccounting) {
  const std::string src = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry loopk(.param .u64 p_out, .param .u32 p_n)
{
    .reg .pred %p<2>;
    .reg .b32 %r<8>;
    .reg .b64 %rd<8>;
    ld.param.u64 %rd1, [p_out];
    ld.param.u32 %r1, [p_n];
    mov.u32 %r2, %tid.x;
    mov.u32 %r3, %ctaid.x;
    mad.lo.u32 %r4, %r3, 32, %r2;
    mov.u32 %r5, 0;
    mov.u32 %r6, 0;
LOOP:
    add.u32 %r5, %r5, %r6;
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p1, %r6, %r1;
    @%p1 bra LOOP;
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r5;
    ret;
}
)";
  auto module = ptx::Parse(src);
  ASSERT_TRUE(module.ok()) << module.status();

  constexpr std::uint32_t kIters = 200;
  const std::uint32_t expect = kIters * (kIters - 1) / 2;  // sum 0..n-1
  LaunchParams params;
  params.grid = {4, 1, 1};
  params.block = {32, 1, 1};
  params.args = {KernelArg::U64(0x8000), KernelArg::U32(kIters)};

  // The reference gives the exact instruction total.
  std::uint64_t reference_instructions = 0;
  {
    simgpu::GlobalMemory memory(kMemBytes);
    simgpu::AllowAllPolicy allow;
    Interpreter interp(&memory, &allow, 1);
    auto run = interp.ExecuteReference(*module, "loopk", params);
    ASSERT_TRUE(run.ok()) << run.status();
    reference_instructions = run->instructions;
  }

  for (const bool fuse : {false, true}) {
    SCOPED_TRACE(fuse ? "fused" : "unfused");
    auto program = EngineProgram(*module, "loopk", fuse);
    ASSERT_TRUE(program.ok()) << program.status();
    if (fuse) {
      ASSERT_GT(program->super_count, 0u) << "the loop body must fuse";
    }
    simgpu::GlobalMemory memory(kMemBytes);
    simgpu::AllowAllPolicy allow;
    Interpreter interp(&memory, &allow, 1);

    std::atomic<bool> revoke{true};
    KernelCheckpoint ckpt;
    ExecControls controls;
    controls.preempt_requested = &revoke;
    // Poll lands mid-loop — i.e. between fused-block dispatches — every time.
    controls.preempt_check_interval = 37;
    controls.checkpoint = &ckpt;

    int segments = 0;
    Result<ExecStats> run = ExecStats{};
    while (true) {
      run = interp.Execute(*program, params, controls);
      if (run.ok()) break;
      ASSERT_TRUE(IsPreempted(run.status())) << run.status();
      ++segments;
      // One block per segment, never replayed: blocks_done is exact.
      EXPECT_EQ(ckpt.blocks_done, static_cast<std::uint64_t>(segments));
      ASSERT_LT(segments, 16);
    }
    EXPECT_EQ(segments, 3);
    EXPECT_EQ(run->blocks, 4u);
    EXPECT_EQ(ckpt.blocks_done, 4u);
    EXPECT_EQ(run->instructions, reference_instructions)
        << "per-component accounting must match the reference across "
           "preemptions";
    for (std::uint32_t i = 0; i < 128; ++i) {
      auto v = memory.Load<std::uint32_t>(0x8000 + i * 4);
      ASSERT_TRUE(v.ok());
      ASSERT_EQ(*v, expect) << " i=" << i;
    }
  }
}

// ---- the no-string-work regression guard -----------------------------------

TEST(ProgramHotPath, EnginePerformsNoStringLookups) {
  const ptx::Module module = MakeSampleModule();
  LaunchParams params;
  params.grid = {2, 1, 1};
  params.block = {128, 1, 1};
  params.args = {KernelArg::U64(0x10000), KernelArg::U64(0x20000),
                 KernelArg::U64(0x30000), KernelArg::U32(200)};

  for (const bool fuse : {false, true}) {
    SCOPED_TRACE(fuse ? "fused" : "unfused");
    // Compile outside the measured window (compilation itself may hash).
    auto program = EngineProgram(module, "vecadd", fuse);
    ASSERT_TRUE(program.ok()) << program.status();
    simgpu::GlobalMemory memory(kMemBytes);
    simgpu::AllowAllPolicy allow;
    Interpreter interp(&memory, &allow, 1);
    const std::uint64_t before = exec_debug::HotPathStringLookups();
    auto run = interp.Execute(*program, params);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(exec_debug::HotPathStringLookups() - before, 0u)
        << "a std::string lookup crept back onto the engine's step path";

    // Sanity: the counter is live — the reference engine must bump it
    // heavily (several lookups per executed instruction).
    auto ref = interp.ExecuteReference(module, "vecadd", params);
    ASSERT_TRUE(ref.ok());
    EXPECT_GT(exec_debug::HotPathStringLookups() - before, ref->instructions);
  }
}

// The special-register scan is a compile-time operand kind now: reading
// %tid/%ctaid etc. every step must not touch the counter either.
TEST(ProgramHotPath, SpecialRegisterReadsAreStringFree) {
  const std::string src = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry t(.param .u64 p_out)
{
    .reg .b32 %r<8>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [p_out];
    mov.u32 %r1, %tid.x;
    mov.u32 %r2, %ctaid.x;
    mad.lo.u32 %r3, %r2, 64, %r1;
    mul.wide.u32 %rd2, %r3, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    ret;
}
)";
  auto module = ptx::Parse(src);
  ASSERT_TRUE(module.ok()) << module.status();
  auto compiled = CompileKernel(module->kernels[0]);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  simgpu::GlobalMemory memory(1 << 20);
  simgpu::AllowAllPolicy allow;
  Interpreter interp(&memory, &allow, 1);
  LaunchParams params;
  params.grid = {4, 1, 1};
  params.block = {64, 1, 1};
  params.args = {KernelArg::U64(0x1000)};

  const std::uint64_t before = exec_debug::HotPathStringLookups();
  auto run = interp.Execute(*compiled, params);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(exec_debug::HotPathStringLookups() - before, 0u);
  for (std::uint32_t i = 0; i < 256; ++i) {
    auto v = memory.Load<std::uint32_t>(0x1000 + i * 4);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, i);
  }
}

// ---- compile-time structure ------------------------------------------------

TEST(CompileKernel, DuplicateLabelFailsLikePrepare) {
  const std::string src = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry t()
{
L: ret;
L: ret;
}
)";
  auto module = ptx::Parse(src);
  ASSERT_TRUE(module.ok()) << module.status();
  auto compiled = CompileKernel(module->kernels[0]);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);

  // CompiledModule defers the error to Find, matching launch-time surfacing.
  auto cm = CompiledModule::Compile(*module);
  auto find = cm->Find("t");
  ASSERT_FALSE(find.ok());
  EXPECT_EQ(find.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompileKernel, DenseLayoutBakesStructure) {
  const ptx::Module module = MakeSampleModule();
  const ptx::Kernel* reduce = module.FindKernel("reduce");
  ASSERT_NE(reduce, nullptr);
  auto compiled = CompileKernel(*reduce);
  ASSERT_TRUE(compiled.ok());
  EXPECT_GT(compiled->reg_slots, 0);
  EXPECT_GT(compiled->shared_size, 0u);  // .shared decl baked into layout
  EXPECT_FALSE(compiled->code.empty());

  const ptx::Kernel* brx = module.FindKernel("brx_kernel");
  ASSERT_NE(brx, nullptr);
  auto brx_compiled = CompileKernel(*brx);
  ASSERT_TRUE(brx_compiled.ok());
  ASSERT_EQ(brx_compiled->branch_tables.size(), 1u);
  EXPECT_EQ(brx_compiled->branch_tables[0].pcs.size(), 3u);
  for (const std::uint32_t pc : brx_compiled->branch_tables[0].pcs) {
    ASSERT_NE(pc, BranchTable::kUnresolved);
    EXPECT_LT(pc, brx_compiled->code.size());
  }
}

// ---- fusion structure -------------------------------------------------------

TEST(FuseKernel, StructuralInvariants) {
  const ptx::Module module = MakeSampleModule();
  for (const char* name : {"vecadd", "copyk", "reduce", "brx_kernel"}) {
    SCOPED_TRACE(name);
    const ptx::Kernel* kernel = module.FindKernel(name);
    ASSERT_NE(kernel, nullptr);
    auto compiled = CompileKernel(*kernel);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const CompiledKernel fused = FuseKernel(*compiled);

    // Fusion never changes program length, branch tables or register layout.
    ASSERT_EQ(fused.code.size(), compiled->code.size());
    EXPECT_EQ(fused.branch_tables.size(), compiled->branch_tables.size());
    EXPECT_EQ(fused.reg_slots, compiled->reg_slots);
    EXPECT_EQ(fused.fused_code.size(), fused.fused_instructions);
    EXPECT_EQ(fused.fused_micro.size(), fused.fused_code.size());

    // Collect branch targets exactly as the fuser does.
    const std::size_t n = fused.code.size();
    std::vector<bool> is_target(n + 1, false);
    for (const auto& inst : fused.code)
      if (inst.op == COp::kBra && inst.target <= n) is_target[inst.target] = true;
    for (const auto& table : fused.branch_tables)
      for (const std::uint32_t pc : table.pcs)
        if (pc != BranchTable::kUnresolved && pc <= n) is_target[pc] = true;

    std::uint32_t supers = 0, covered = 0;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (fused.code[pc].op != COp::kFused) {
        // Non-fused slots are untouched.
        EXPECT_EQ(static_cast<int>(fused.code[pc].op),
                  static_cast<int>(compiled->code[pc].op))
            << "pc=" << pc;
        continue;
      }
      ++supers;
      const unsigned count = fused.code[pc].sub;
      const std::uint32_t base = fused.code[pc].target;
      covered += count;
      ASSERT_GE(count, 2u) << "pc=" << pc;
      ASSERT_LE(count, kMaxFusedRun) << "pc=" << pc;
      ASSERT_LE(base + count, fused.fused_code.size()) << "pc=" << pc;
      ASSERT_LE(pc + count, n) << "pc=" << pc;
      for (unsigned j = 0; j < count; ++j) {
        // Components are verbatim copies of the originals, which stay in
        // place behind the super (a branch into the middle executes them).
        EXPECT_EQ(static_cast<int>(fused.fused_code[base + j].op),
                  static_cast<int>(compiled->code[pc + j].op))
            << "pc=" << pc << " j=" << j;
        if (j > 0) {
          EXPECT_EQ(static_cast<int>(fused.code[pc + j].op),
                    static_cast<int>(compiled->code[pc + j].op))
              << "pc=" << pc << " j=" << j;
          // A run never SPANS a branch target — it may only begin at one.
          EXPECT_FALSE(is_target[pc + j])
              << "fused run at pc=" << pc << " spans branch target " << pc + j;
        }
      }
    }
    EXPECT_EQ(supers, fused.super_count);
    EXPECT_EQ(covered, fused.fused_instructions);

    // Re-fusing an already-fused program is the identity.
    const CompiledKernel refused = FuseKernel(fused);
    EXPECT_EQ(refused.super_count, fused.super_count);
    EXPECT_EQ(refused.fused_code.size(), fused.fused_code.size());
  }
}

TEST(FuseKernel, HotLoopBodyFusesIntoOneSuperinstruction) {
  // The canonical loop head: add+add+setp+@bra collapses into a single
  // superinstruction whose terminal branch re-enters it — one dispatch per
  // loop iteration.
  const std::string src = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry t(.param .u32 p_n)
{
    .reg .pred %p<2>;
    .reg .b32 %r<4>;
    ld.param.u32 %r1, [p_n];
    mov.u32 %r2, 0;
LOOP:
    add.u32 %r2, %r2, 1;
    setp.lt.u32 %p1, %r2, %r1;
    @%p1 bra LOOP;
    ret;
}
)";
  auto module = ptx::Parse(src);
  ASSERT_TRUE(module.ok()) << module.status();
  auto compiled = CompileKernel(module->kernels[0]);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const CompiledKernel fused = FuseKernel(*compiled);
  ASSERT_GE(fused.super_count, 1u);
  // The loop-body super begins at the branch target and covers the whole
  // add / setp / @bra tail, all lowered to non-generic micro ops.
  bool found_loop = false;
  for (std::size_t pc = 0; pc < fused.code.size(); ++pc) {
    if (fused.code[pc].op != COp::kFused) continue;
    const std::uint32_t base = fused.code[pc].target;
    const unsigned count = fused.code[pc].sub;
    if (fused.fused_micro[base + count - 1].op == MicroOp::kBra &&
        fused.fused_micro[base + count - 1].target == pc) {
      found_loop = true;
      EXPECT_EQ(count, 3u) << "add + setp + @bra";
      for (unsigned j = 0; j < count; ++j)
        EXPECT_NE(static_cast<int>(fused.fused_micro[base + j].op),
                  static_cast<int>(MicroOp::kGeneric))
            << "hot integer component " << j << " fell back to generic";
    }
  }
  EXPECT_TRUE(found_loop) << "no superinstruction closes the loop";
}

}  // namespace
}  // namespace grd::ptxexec
