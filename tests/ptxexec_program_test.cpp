// Parity suite for the kernel execution engine (engine.cpp) against the
// seed string-map interpreter (ReferenceInterpreter): every kernel
// family the ptxexec tests exercise — plus patched kernels, faults,
// checkpoints and random fuzz — must produce identical ExecStats, statuses,
// fault details and memory images on the reference and on the engine, fed
// both CompileKernel output and FuseKernel output. Also holds the
// no-string-lookups-per-step regression guard and the fusion structure
// tests.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxexec/reference.hpp"
#include "ptxpatcher/patcher.hpp"
#include "simlibs/kernels_ptx.hpp"

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

// Runs `kernel` on engine `Engine` (Interpreter or ReferenceInterpreter)
// over a fresh memory image and returns the outcome for comparison.
template <typename Engine, typename RunFn>
EngineRun RunEngine(const ptx::Module& module, const std::string& kernel,
                    const LaunchParams& params, const MemInit& init,
                    simgpu::AccessPolicy* policy, RunFn&& run) {
  EngineRun out;
  simgpu::GlobalMemory memory(kMemBytes);
  for (const auto& [addr, value] : init)
    EXPECT_TRUE(memory.Store<std::uint32_t>(addr, value).ok());
  Engine interp(&memory, policy, 1);
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
    EXPECT_EQ(reference.fault.status.message(), other.fault.status.message())
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
  const EngineRun reference = RunEngine<ReferenceInterpreter>(
      module, kernel, params, init, ref_policy,
      [](ReferenceInterpreter& interp, const ptx::Module& m,
         const std::string& k,
         const LaunchParams& p) { return interp.Execute(m, k, p); });
  for (const bool fuse : {false, true}) {
    const EngineRun engine = RunEngine<Interpreter>(
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
  Interpreter interp(&memory, nullptr, 1);
  ReferenceInterpreter ref(&memory, nullptr, 1);
  const ptx::Module module = MakeSampleModule();
  auto reference = ref.Execute(module, "nope", params);
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
  static std::string Source(const std::string& body) {
    return R"(
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
  }

  static LaunchParams Params(std::uint64_t a = 0, std::uint64_t b = 0) {
    LaunchParams params;
    params.args = {KernelArg::U64(kOut), KernelArg::U64(a), KernelArg::U64(b)};
    return params;
  }

  void Check(const std::string& body, std::uint64_t a = 0,
             std::uint64_t b = 0) {
    CheckWith(body, Params(a, b));
  }

  void CheckWith(const std::string& body, const LaunchParams& params) {
    auto module = ptx::Parse(Source(body));
    ASSERT_TRUE(module.ok()) << module.status() << "\n" << body;
    ExpectParity(*module, "t", params);
  }

  // Asserts that the fused program runs `op` as a micro op, so a case meant
  // for the superinstruction path cannot drift to the top-level handlers.
  static void ExpectFusedMicro(const std::string& body, MicroOp op) {
    auto module = ptx::Parse(Source(body));
    ASSERT_TRUE(module.ok()) << module.status();
    auto compiled = CompileKernel(module->kernels[0]);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const CompiledKernel fused = FuseKernel(std::move(*compiled));
    bool found = false;
    for (const FusedComp& m : fused.fused_micro) found = found || m.op == op;
    EXPECT_TRUE(found) << "micro op " << static_cast<int>(op)
                       << " not fused in: " << body;
  }

  // The body on the engine's fused program, with what it left at kOut.
  struct FusedRun {
    Result<ExecStats> result = ExecStats{};
    DeviceFault fault;
    std::uint64_t out[5] = {};  // the u64 words at kOut .. kOut+32
  };
  static FusedRun RunFused(const std::string& body,
                           const LaunchParams& params) {
    FusedRun run;
    auto module = ptx::Parse(Source(body));
    EXPECT_TRUE(module.ok()) << module.status();
    if (!module.ok()) return run;
    simgpu::GlobalMemory memory(kMemBytes);
    Interpreter interp(&memory, nullptr, 1);
    run.result = interp.Execute(*module, "t", params);
    run.fault = interp.last_fault();
    EXPECT_TRUE(memory.Read(kOut, run.out, sizeof(run.out)).ok());
    return run;
  }

  static constexpr std::uint64_t kOut = 0x1000;  // %rd1
  static constexpr std::uint64_t kMin64 = 0x8000'0000'0000'0000ull;
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

// PTX saturates a float-to-integer cvt to the destination's range and maps
// NaN to 0; neither engine may cast an out-of-range double (undefined
// behaviour a tenant kernel could reach).
TEST_F(SnippetParity, FloatToIntegerConversionsSaturate) {
  const std::string body =
      "mov.b64 %fd1, %rd2; cvt.rzi.s32.f64 %r1, %fd1; "
      "cvt.rzi.u32.f64 %r2, %fd1; cvt.rzi.s64.f64 %rd4, %fd1; "
      "cvt.rzi.u64.f64 %rd5, %fd1; st.global.u32 [%rd1], %r1; "
      "st.global.u32 [%rd1+4], %r2; st.global.u64 [%rd1+8], %rd4; "
      "st.global.u64 [%rd1+16], %rd5;";
  struct Case {
    double value;
    std::uint32_t s32, u32;
    std::uint64_t s64, u64;
  };
  const Case kCases[] = {
      {1e30, 0x7FFF'FFFF, 0xFFFF'FFFF, 0x7FFF'FFFF'FFFF'FFFF, ~0ull},
      {-1e30, 0x8000'0000, 0, kMin64, 0},
      {std::nan(""), 0, 0, 0, 0},
      {3e9, 0x7FFF'FFFF, 3'000'000'000u, 3'000'000'000u, 3'000'000'000u},
      {-1.0, 0xFFFF'FFFF, 0, ~0ull, 0},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE("value " + std::to_string(c.value));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.value, sizeof(bits));
    Check(body, bits);
    const FusedRun run = RunFused(body, Params(bits));
    ASSERT_TRUE(run.result.ok()) << run.result.status();
    EXPECT_EQ(run.out[0], (std::uint64_t{c.u32} << 32) | c.s32);
    EXPECT_EQ(run.out[1], c.s64);
    EXPECT_EQ(run.out[2], c.u64);
  }
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
        "ld.global.v2.u32 {%r5, %r6}, [%rd1+8]; add.u32 %r7, %r5, %r6; "
        "st.global.u32 [%rd1+16], %r7;");
}

TEST_F(SnippetParity, MisalignedGlobalAccessFaultsIdentically) {
  // A global access must be aligned to its full size (width x lanes), as on
  // a GPU: both engines fault before the access, with one status and the
  // same fault address, and memory stays untouched.
  struct Case {
    const char* body;
    std::uint64_t address;
    const char* what;
  };
  const Case cases[] = {
      {"ld.global.u32 %r1, [%rd1+2]; st.global.u32 [%rd1], %r1;", kOut + 2,
       "misaligned 4-byte load"},
      {"mov.u32 %r1, 7; st.global.u32 [%rd1+6], %r1;", kOut + 6,
       "misaligned 4-byte store"},
      // 4-byte aligned, but a v4.u32 access is 16 bytes wide.
      {"mov.u32 %r1, 1; mov.u32 %r2, 2; mov.u32 %r3, 3; mov.u32 %r4, 4; "
       "st.global.v4.u32 [%rd1+4], {%r1, %r2, %r3, %r4};",
       kOut + 4, "misaligned 16-byte store"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    Check(c.body);
    auto module = ptx::Parse(Source(c.body));
    ASSERT_TRUE(module.ok()) << module.status();
    simgpu::GlobalMemory memory(kMemBytes);
    Interpreter interp(&memory, nullptr, 1);
    auto run = interp.Execute(*module, "t", Params());
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().message().find(c.what), std::string::npos)
        << run.status();
    EXPECT_EQ(interp.last_fault().address, c.address);
    // No lane of a faulting access reaches memory.
    std::uint8_t bytes[32] = {};
    ASSERT_TRUE(memory.Read(kOut, bytes, sizeof(bytes)).ok());
    for (const std::uint8_t byte : bytes) EXPECT_EQ(byte, 0u);
  }
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

// INT64_MIN / -1 traps on the host's divide instruction; a GPU wraps it.
// Both engines give the 32-bit case's wrap: quotient INT64_MIN, remainder 0.
TEST_F(SnippetParity, SignedDivisionByMinusOneWraps) {
  const char* div = "div.s64 %rd4, %rd2, %rd3; st.global.u64 [%rd1], %rd4;";
  const char* rem = "rem.s64 %rd4, %rd2, %rd3; st.global.u64 [%rd1], %rd4;";
  Check(div, kMin64, ~0ull);
  Check(rem, kMin64, ~0ull);
  Check("div.s32 %r1, %rd2, %rd3; rem.s32 %r2, %rd2, %rd3; "
        "st.global.u32 [%rd1], %r1; st.global.u32 [%rd1+4], %r2;",
        0x8000'0000u, 0xFFFF'FFFFu);
  const FusedRun quotient = RunFused(div, Params(kMin64, ~0ull));
  ASSERT_TRUE(quotient.result.ok()) << quotient.result.status();
  EXPECT_EQ(quotient.out[0], kMin64);
  const FusedRun remainder = RunFused(rem, Params(kMin64, ~0ull));
  ASSERT_TRUE(remainder.result.ok()) << remainder.result.status();
  EXPECT_EQ(remainder.out[0], 0u);
}

// The most negative operand of neg/abs and a 64-bit wide product overflow
// int64; both engines compute them in unsigned arithmetic, with the bits a
// GPU gives.
TEST_F(SnippetParity, MostNegativeOperandsWrap) {
  Check("neg.s64 %rd4, %rd2; st.global.u64 [%rd1], %rd4;", kMin64);
  Check("abs.s64 %rd4, %rd2; st.global.u64 [%rd1], %rd4;", kMin64);
  Check("neg.s32 %r1, %rd2; abs.s32 %r2, %rd2; st.global.u32 [%rd1], %r1; "
        "st.global.u32 [%rd1+4], %r2;",
        0x8000'0000u);
  Check("mul.wide.s64 %rd4, %rd2, %rd3; st.global.u64 [%rd1], %rd4;", kMin64,
        ~0ull);
  Check("mad.wide.s64 %rd4, %rd2, %rd3, 5; st.global.u64 [%rd1], %rd4;",
        kMin64, 3);
  const FusedRun neg =
      RunFused("neg.s64 %rd4, %rd2; abs.s64 %rd5, %rd2; "
               "st.global.u64 [%rd1], %rd4; st.global.u64 [%rd1+8], %rd5;",
               Params(kMin64));
  ASSERT_TRUE(neg.result.ok()) << neg.result.status();
  EXPECT_EQ(neg.out[0], kMin64);
  EXPECT_EQ(neg.out[1], kMin64);
}

// A fused access at the last aligned word of device memory completes; one
// word past it faults with GlobalMemory's status, at the same address and
// thread on every engine.
TEST_F(SnippetParity, FusedAccessAtDeviceMemoryEnd) {
  const char* rmw =
      "ld.global.u64 %rd4, [%rd2]; add.u64 %rd4, %rd4, 7; "
      "st.global.u64 [%rd2], %rd4; st.global.u64 [%rd1], %rd4;";
  const char* store = "st.global.u32 [%rd2], 9; st.global.u32 [%rd1], 1;";
  ExpectFusedMicro(rmw, MicroOp::kLd);
  ExpectFusedMicro(rmw, MicroOp::kSt);
  Check(rmw, kMemBytes - 8);
  Check(rmw, kMemBytes);
  Check(store, kMemBytes - 4);
  Check(store, kMemBytes);
  const FusedRun last = RunFused(rmw, Params(kMemBytes - 8));
  ASSERT_TRUE(last.result.ok()) << last.result.status();
  EXPECT_EQ(last.out[0], 7u);
  for (const char* body : {rmw, store}) {
    SCOPED_TRACE(body);
    const FusedRun past = RunFused(body, Params(kMemBytes));
    ASSERT_FALSE(past.result.ok());
    EXPECT_EQ(past.result.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(past.fault.address, kMemBytes);
    EXPECT_EQ(past.out[0], 0u) << "the faulting run stored nothing";
  }
}

// The first store to a never-touched page takes GlobalMemory's slow path
// (it installs the page); the load after it reads the value back.
TEST_F(SnippetParity, FusedFirstStoreToUntouchedPage) {
  const char* body =
      "st.global.u32 [%rd2+12], %rd3; ld.global.u32 %r1, [%rd2+12]; "
      "st.global.u32 [%rd1], %r1;";
  Check(body, 0x50'0000, 0xABCD'1234);
  const FusedRun run = RunFused(body, Params(0x50'0000, 0xABCD'1234));
  ASSERT_TRUE(run.result.ok()) << run.result.status();
  EXPECT_EQ(run.out[0] & 0xFFFF'FFFFu, 0xABCD'1234u);
}

TEST_F(SnippetParity, FusedSignedLoadsSignExtend) {
  // Bytes 80 00 00 80 00 00 00 80: s8 -128, s16 -32768, s32 INT32_MIN.
  const char* body =
      "st.global.u64 [%rd1+8], %rd2; ld.global.s8 %rd4, [%rd1+8]; "
      "ld.global.s16 %rd5, [%rd1+10]; ld.global.s32 %rd6, [%rd1+12]; "
      "st.global.u64 [%rd1+16], %rd4; st.global.u64 [%rd1+24], %rd5; "
      "st.global.u64 [%rd1+32], %rd6;";
  ExpectFusedMicro(body, MicroOp::kLd);
  Check(body, 0x8000'0000'8000'0080ull);
  const FusedRun run = RunFused(body, Params(0x8000'0000'8000'0080ull));
  ASSERT_TRUE(run.result.ok()) << run.result.status();
  EXPECT_EQ(run.out[2], static_cast<std::uint64_t>(-128));
  EXPECT_EQ(run.out[3], static_cast<std::uint64_t>(-32768));
  EXPECT_EQ(run.out[4], static_cast<std::uint64_t>(-2147483648ll));
}

TEST_F(SnippetParity, FusedSharedAccesses) {
  const char* body =
      "mov.u64 %rd4, scratch; st.shared.u64 [%rd4+8], %rd2; "
      "ld.shared.s16 %rd5, [scratch+8]; ld.shared.u64 %rd6, [%rd4+8]; "
      "st.global.u64 [%rd1], %rd5; st.global.u64 [%rd1+8], %rd6;";
  ExpectFusedMicro(body, MicroOp::kLd);
  ExpectFusedMicro(body, MicroOp::kSt);
  Check(body, 0xDEAD'BEEF'CAFE'8001ull);
  // Past the 64-byte segment: the block's bounds fault, mid-run.
  Check("st.shared.u32 [scratch+64], %rd2; st.global.u32 [%rd1], 1;", 5);
  Check("ld.shared.u32 %r1, [scratch+62]; st.global.u32 [%rd1], %r1;");
  const FusedRun run = RunFused(body, Params(0xDEAD'BEEF'CAFE'8001ull));
  ASSERT_TRUE(run.result.ok()) << run.result.status();
  EXPECT_EQ(run.out[0], static_cast<std::uint64_t>(-32767));
  EXPECT_EQ(run.out[1], 0xDEAD'BEEF'CAFE'8001ull);
}

TEST_F(SnippetParity, FusedLdParamMissingArgumentFaults) {
  const char* body = "st.global.u32 [%rd1], 1;";
  ExpectFusedMicro(body, MicroOp::kLdParam);
  LaunchParams params = Params();
  params.args.pop_back();  // p_b
  CheckWith(body, params);
  const FusedRun run = RunFused(body, params);
  ASSERT_FALSE(run.result.ok());
  EXPECT_EQ(run.result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(run.result.status().message(),
            "missing argument for parameter p_b");
  EXPECT_EQ(run.out[0], 0u);
}

TEST_F(SnippetParity, FusedMisalignedAccessFaults) {
  const char* load =
      "add.u64 %rd4, %rd1, 2; ld.global.u32 %r1, [%rd4]; "
      "st.global.u32 [%rd1], %r1;";
  ExpectFusedMicro(load, MicroOp::kLd);
  Check(load);
  Check("st.global.u64 [%rd1+4], %rd2; st.global.u32 [%rd1], 1;", 7);
  Check("ld.global.s16 %rd4, [%rd1+1]; st.global.u64 [%rd1], %rd4;");
  const FusedRun run = RunFused(load, Params());
  ASSERT_FALSE(run.result.ok());
  EXPECT_NE(run.result.status().message().find("misaligned 4-byte load"),
            std::string::npos)
      << run.result.status();
  EXPECT_EQ(run.fault.address, kOut + 2);
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

// Elision-vs-full oracle: guard elision must be observationally identical to
// full per-access patching. Each round patches one random kernel both ways,
// proves each flavor self-consistent across the reference and both engine
// programs, then diffs the two flavors against each other on memory, faults
// and access counts (executed-instruction counts are excluded — shrinking
// them is the whole point of elision). Rounds mix loop and straight-line
// shapes, all three bounds-check modes, and generous vs undersized
// partitions, so reused fences meet wrap-around (fencing modes) and traps
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
    const bool tight = rng.NextBool(0.4);  // undersized partition

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
    const EngineRun a =
        RunEngine<Interpreter>(*full, "fz", params, init, nullptr, run);
    const EngineRun b =
        RunEngine<Interpreter>(*elided, "fz", params, init, nullptr, run);
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
}

// ---- instruction budget / checkpoint / preemption --------------------------

// Runs vecadd under a per-thread instruction budget with a checkpoint
// attached, on the reference or on the engine's (un)fused program.
// `*retired` gets the instructions the launch retired: the checkpoint's
// count when the budget tripped.
template <typename Engine>
EngineRun RunUnderBudget(const ptx::Module& module, const LaunchParams& params,
                         const MemInit& init, std::uint64_t budget, bool fuse,
                         std::uint64_t* retired) {
  KernelCheckpoint ckpt;
  ExecControls controls;
  controls.checkpoint = &ckpt;
  EngineRun out = RunEngine<Engine>(
      module, "vecadd", params, init, nullptr,
      [&](Engine& interp, const ptx::Module& m, const std::string& k,
          const LaunchParams& p) -> Result<ExecStats> {
        interp.set_max_instructions_per_thread(budget);
        if constexpr (std::is_same_v<Engine, ReferenceInterpreter>) {
          return interp.Execute(m, k, p, controls);
        } else {
          auto program = EngineProgram(m, k, fuse);
          if (!program.ok()) return program.status();
          return interp.Execute(*program, p, controls);
        }
      });
  *retired =
      out.result.ok() ? out.result->instructions : ckpt.stats.instructions;
  return out;
}

// Sweeps the per-thread instruction budget across every instruction of one
// vecadd thread. At each budget the trip must land on the same instruction
// on the reference and on both programs: same status, faulting thread and
// memory image, and — through the checkpoint, which keeps the stats of a
// tripped launch — the same count of retired instructions. A
// superinstruction that charges its run in bulk may therefore trip neither
// early nor late.
TEST(ProgramParity, InstructionBudgetTripsIdentically) {
  const ptx::Module module = MakeSampleModule();
  LaunchParams params;
  params.grid = {2, 1, 1};
  params.block = {64, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U64(0x2000),
                 KernelArg::U64(0x3000), KernelArg::U32(128)};
  MemInit init;
  for (int i = 0; i < 128; ++i) {
    init.push_back({0x1000 + i * 4, 0x3F800000});  // 1.0f
    init.push_back({0x2000 + i * 4, 0x40000000});  // 2.0f
  }
  for (const bool fuse : {false, true}) {
    auto program = EngineProgram(module, "vecadd", fuse);
    ASSERT_TRUE(program.ok()) << program.status();
    if (fuse) {
      ASSERT_GT(program->super_count, 0u) << "vecadd should fuse";
    }
  }

  // Instructions one thread retires untripped (every thread takes the same
  // path: n covers the grid).
  std::uint64_t per_thread = 0;
  {
    simgpu::GlobalMemory memory(kMemBytes);
    ReferenceInterpreter ref(&memory, nullptr, 1);
    auto run = ref.Execute(module, "vecadd", params);
    ASSERT_TRUE(run.ok()) << run.status();
    per_thread = run->instructions / run->threads;
    ASSERT_EQ(per_thread * run->threads, run->instructions);
  }

  for (std::uint64_t budget = 0; budget <= per_thread; ++budget) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    std::uint64_t ref_retired = 0;
    const EngineRun reference = RunUnderBudget<ReferenceInterpreter>(
        module, params, init, budget, false, &ref_retired);
    ASSERT_EQ(reference.result.ok(), budget == per_thread);
    if (!reference.result.ok()) {
      ASSERT_EQ(reference.result.status().code(),
                StatusCode::kDeadlineExceeded);
    }
    for (const bool fuse : {false, true}) {
      std::uint64_t retired = 0;
      const EngineRun engine = RunUnderBudget<Interpreter>(
          module, params, init, budget, fuse, &retired);
      ExpectSameOutcome(reference, engine, "vecadd",
                        fuse ? "fused" : "unfused");
      EXPECT_EQ(retired, ref_retired) << (fuse ? "fused" : "unfused");
    }
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
    for (const auto& [addr, value] : init)
      ASSERT_TRUE(memory.Store<std::uint32_t>(addr, value).ok());
    Interpreter interp(&memory, nullptr, 1);
    ReferenceInterpreter ref(&memory, nullptr, 1);
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
                ? ref.Execute(module, "copyk", params, controls)
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
    ReferenceInterpreter ref(&memory, nullptr, 1);
    auto run = ref.Execute(*module, "loopk", params);
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
    Interpreter interp(&memory, nullptr, 1);

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

// Every global access of a launch reaches the tenant access policy when one
// is set: saxpy, patched as the manager patches it, calls CheckAccess
// exactly once per global load and store, on the unfused program (every
// access top-level) and on the fused one, where both loads and the store
// run as micro ops.
TEST(ProgramParity, FusedLaunchConsultsPolicyOnEveryAccess) {
  class CountingPolicy final : public simgpu::AccessPolicy {
   public:
    Status CheckAccess(std::uint64_t, std::uint64_t, std::uint64_t,
                       bool) override {
      ++calls;
      return OkStatus();
    }
    std::uint64_t calls = 0;
  };
  ptx::Module native;
  native.kernels.push_back(ptx::MakeSaxpyKernel("saxpy"));
  ptxpatcher::PatchOptions options;
  options.elision_enabled = true;
  auto patched = ptxpatcher::PatchModule(native, options);
  ASSERT_TRUE(patched.ok()) << patched.status();
  const std::uint64_t base = 1ull << 20;
  const auto grd = ptxpatcher::ComputeGrdArgs(options.mode, base, 1ull << 20);
  LaunchParams params;
  params.grid = {4, 1, 1};
  params.block = {256, 1, 1};
  params.args = {KernelArg::U64(base), KernelArg::U64(base + 0x1000),
                 KernelArg::F32(2.0f), KernelArg::U32(1024),
                 KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};

  for (const bool fuse : {false, true}) {
    SCOPED_TRACE(fuse ? "fused" : "unfused");
    auto program = EngineProgram(*patched, "saxpy", fuse);
    ASSERT_TRUE(program.ok()) << program.status();
    int fused_loads = 0, fused_stores = 0;
    for (const FusedComp& m : program->fused_micro) {
      fused_loads += m.op == MicroOp::kLd;
      fused_stores += m.op == MicroOp::kSt;
    }
    EXPECT_EQ(fused_loads, fuse ? 2 : 0) << "both saxpy loads are micro ops";
    EXPECT_EQ(fused_stores, fuse ? 1 : 0) << "saxpy's store is a micro op";

    simgpu::GlobalMemory memory(kMemBytes);
    CountingPolicy policy;
    Interpreter interp(&memory, &policy, 1);
    auto run = interp.Execute(*program, params);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->global_loads, 2048u);
    EXPECT_EQ(run->global_stores, 1024u);
    EXPECT_EQ(policy.calls, run->global_loads + run->global_stores);
  }
}

// ---- lockstep phases and their replays -------------------------------------

// Runs `kernel` on the reference and on both engine programs under a
// per-thread instruction budget, expects the same outcome everywhere, and
// returns the engine's stats for the unfused and the fused program (from
// the checkpoint when the budget tripped: it keeps the partial block's
// phase counters).
std::array<ExecStats, 2> ExpectParityUnderBudget(const ptx::Module& module,
                                                 const std::string& kernel,
                                                 const LaunchParams& params,
                                                 const MemInit& init,
                                                 std::uint64_t budget) {
  const EngineRun reference = RunEngine<ReferenceInterpreter>(
      module, kernel, params, init, nullptr,
      [budget](ReferenceInterpreter& interp, const ptx::Module& m,
               const std::string& k, const LaunchParams& p) {
        interp.set_max_instructions_per_thread(budget);
        return interp.Execute(m, k, p);
      });
  std::array<ExecStats, 2> out;
  for (const bool fuse : {false, true}) {
    KernelCheckpoint ckpt;
    ExecControls controls;
    controls.checkpoint = &ckpt;
    const EngineRun engine = RunEngine<Interpreter>(
        module, kernel, params, init, nullptr,
        [&](Interpreter& interp, const ptx::Module& m, const std::string& k,
            const LaunchParams& p) -> Result<ExecStats> {
          interp.set_max_instructions_per_thread(budget);
          auto program = EngineProgram(m, k, fuse);
          if (!program.ok()) return program.status();
          return interp.Execute(*program, p, controls);
        });
    ExpectSameOutcome(reference, engine, kernel, fuse ? "fused" : "unfused");
    out[fuse] = engine.result.ok() ? *engine.result : ckpt.stats;
  }
  return out;
}

std::uint64_t Replays(const ExecStats& stats) {
  std::uint64_t total = 0;
  for (const std::uint64_t n : stats.replayed_phases) total += n;
  return total;
}

// Each case runs one block on the reference and on both engine programs,
// expects parity, and asserts which path the engine took: every phase in
// lockstep, or a replay for the expected cause.
class LockstepParity : public ::testing::Test {
 protected:
  // %r1 = tid.x and %r9 = p_n. %rd3 / %rd5: the lane's own global / shared
  // word; %rd7 / %rd8: the global / shared word of lane (tid - 1) mod 32.
  static std::string Source(const std::string& body) {
    return R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry t(.param .u64 p_data, .param .u32 p_n)
{
    .reg .pred %p<4>;
    .reg .b32 %r<16>;
    .reg .b64 %rd<16>;
    .shared .align 8 .b8 sh[512];
    ld.param.u64 %rd1, [p_data];
    ld.param.u32 %r9, [p_n];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    mov.u64 %rd4, sh;
    add.u64 %rd5, %rd4, %rd2;
    add.u32 %r2, %r1, 31;
    and.b32 %r2, %r2, 31;
    mul.wide.u32 %rd6, %r2, 4;
    add.u64 %rd7, %rd1, %rd6;
    add.u64 %rd8, %rd4, %rd6;
)" + body + R"(
    ret;
}
)";
  }

  static std::array<ExecStats, 2> Check(
      const std::string& body, std::optional<ReplayCause> cause,
      std::uint32_t threads = 32, std::uint32_t n = 0,
      std::uint64_t budget = 10'000'000) {
    auto module = ptx::Parse(Source(body));
    EXPECT_TRUE(module.ok()) << module.status() << "\n" << body;
    if (!module.ok()) return {};
    LaunchParams params;
    params.block = {threads, 1, 1};
    params.args = {KernelArg::U64(kData), KernelArg::U32(n)};
    MemInit init;
    for (std::uint32_t i = 0; i < 256; ++i)
      init.push_back({kData + 4 * i, 1000 + i});
    const auto stats =
        ExpectParityUnderBudget(*module, "t", params, init, budget);
    for (const ExecStats& s : stats) {
      if (!cause.has_value()) {
        EXPECT_EQ(Replays(s), 0u) << body;
        EXPECT_GT(s.lockstep_phases, 0u) << body;
      } else {
        EXPECT_GT(s.replayed_phases[static_cast<std::size_t>(*cause)], 0u)
            << body;
      }
    }
    return stats;
  }

  static constexpr std::uint64_t kData = 0x1000;
};

// Cross-lane traffic with no barrier, through global and shared memory.
TEST_F(LockstepParity, LaneLoadsWordThePreviousLaneStored) {
  Check("st.global.u32 [%rd3], %r1; ld.global.u32 %r3, [%rd7]; "
        "st.global.u32 [%rd3+128], %r3;",
        ReplayCause::kConflict);
  // The load first: the lower lane's store comes after a higher lane read.
  Check("ld.global.u32 %r3, [%rd7]; st.global.u32 [%rd3], %r1; "
        "st.global.u32 [%rd3+128], %r3;",
        ReplayCause::kConflict);
  Check("st.shared.u32 [%rd5], %r1; ld.shared.u32 %r3, [%rd8]; "
        "st.global.u32 [%rd3], %r3;",
        ReplayCause::kConflict);
}

// Each lane stores the one word in turn: the commit writes lane by lane,
// so the phase stays in lockstep and the highest lane's value lands, as in
// thread order. Incrementing it loads what lower lanes stored and replays.
TEST_F(LockstepParity, EveryLaneStoresOneWord) {
  Check("st.global.u32 [%rd1], %r1;", std::nullopt);
  Check("st.shared.u32 [%rd4], %r1; ld.shared.u32 %r3, [%rd4]; "
        "st.global.u32 [%rd3], %r3;",
        ReplayCause::kConflict);
  Check("ld.global.u32 %r3, [%rd1]; add.u32 %r3, %r3, 1; "
        "st.global.u32 [%rd1], %r3;",
        ReplayCause::kConflict);
  // Lane 0 alone re-reads the word higher lanes stored over its own:
  // thread order shows it its own value, which the buffer still holds.
  Check("add.u32 %r5, %r1, 100; st.global.u32 [%rd1], %r5; "
        "setp.eq.u32 %p1, %r1, 0; @%p1 ld.global.u32 %r6, [%rd1]; "
        "st.global.u32 [%rd3+128], %r6;",
        std::nullopt);
  Check("ld.shared.u32 %r3, [%rd4]; add.u32 %r3, %r3, 1; "
        "st.shared.u32 [%rd4], %r3; bar.sync 0; ld.shared.u32 %r4, [%rd4]; "
        "st.global.u32 [%rd3], %r4;",
        ReplayCause::kConflict);
}

TEST_F(LockstepParity, LaneRereadsItsOwnStore) {
  Check("st.global.u32 [%rd3], %r1; ld.global.u32 %r3, [%rd3]; "
        "add.u32 %r3, %r3, 7; st.global.u32 [%rd3], %r3; "
        "ld.global.u16 %r4, [%rd3+2]; st.global.u32 [%rd3+128], %r4;",
        std::nullopt);
  Check("st.shared.u32 [%rd5], %r1; ld.shared.u32 %r3, [%rd5]; "
        "add.u32 %r3, %r3, 7; st.shared.u16 [%rd5], %r3; "
        "ld.shared.u32 %r4, [%rd5]; st.global.u32 [%rd3], %r4;",
        std::nullopt);
}

// Divergence: a split branch replays.
TEST_F(LockstepParity, OddEvenBranchesReplay) {
  Check("and.b32 %r3, %r1, 1; setp.eq.u32 %p1, %r3, 0; @%p1 bra EVEN; "
        "st.global.u32 [%rd3], 1; bra DONE; EVEN: st.global.u32 [%rd3], 2; "
        "DONE:",
        ReplayCause::kDivergence);
}

TEST_F(LockstepParity, PerLaneLoopTripCountsReplay) {
  Check("mov.u32 %r3, 0; LOOP: add.u32 %r3, %r3, 1; "
        "setp.lt.u32 %p1, %r3, %r1; @%p1 bra LOOP; st.global.u32 [%rd3], %r3;",
        ReplayCause::kDivergence);
}

// Lanes that leave through a guarded ret retire and the rest stay in
// lockstep; a branch that splits the lanes replays, even one to the exit.
TEST_F(LockstepParity, HalfTheLanesExitEarly) {
  Check("setp.lt.u32 %p1, %r1, 16; @%p1 ret; st.global.u32 [%rd3], 9;",
        std::nullopt);
  Check("setp.ge.u32 %p1, %r1, 16; @%p1 bra OUT; st.global.u32 [%rd3], 9; "
        "OUT:",
        ReplayCause::kDivergence);
}

// The divergent phase replays; every lane then parks at the same barrier,
// so the phase after it runs in lockstep again.
TEST_F(LockstepParity, BarrierAfterReconvergedCode) {
  const auto stats = Check(
      "and.b32 %r3, %r1, 1; setp.eq.u32 %p1, %r3, 0; @%p1 bra SKIP; "
      "st.shared.u32 [%rd5], %r1; SKIP: bar.sync 0; ld.shared.u32 %r4, [%rd8]; "
      "st.global.u32 [%rd3], %r4;",
      ReplayCause::kDivergence);
  for (const ExecStats& s : stats) {
    EXPECT_EQ(s.replayed_phases[static_cast<std::size_t>(
                  ReplayCause::kDivergence)],
              1u);
    EXPECT_EQ(s.lockstep_phases, 1u);
  }
}

// Lane 31 faults early (a misaligned load) and lane 0 later (a misaligned
// store): thread order reports lane 0, with only lane 0's first store in
// memory. A failed launch returns no stats, so the path shows in the fault
// itself: lockstep alone would stop at lane 31, and only the replay
// matches the reference's lane and memory image.
TEST_F(LockstepParity, HighLaneFaultsEarlyLowLaneLater) {
  auto module = ptx::Parse(Source(
      "setp.eq.u32 %p1, %r1, 31; selp.u64 %rd9, 2, 0, %p1; "
      "add.u64 %rd10, %rd3, %rd9; st.global.u32 [%rd3], 5; "
      "ld.global.u32 %r4, [%rd10]; setp.eq.u32 %p2, %r1, 0; "
      "selp.u64 %rd11, 1, 0, %p2; add.u64 %rd12, %rd3, %rd11; "
      "st.global.u32 [%rd12+128], 6;"));
  ASSERT_TRUE(module.ok()) << module.status();
  LaunchParams params;
  params.block = {32, 1, 1};
  params.args = {KernelArg::U64(kData), KernelArg::U32(0)};
  ExpectParity(*module, "t", params);
  simgpu::GlobalMemory memory(kMemBytes);
  Interpreter interp(&memory, nullptr, 1);
  auto run = interp.Execute(*module, "t", params);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(interp.last_fault().thread_linear_id, 0u);
  EXPECT_NE(run.status().message().find("misaligned 4-byte store"),
            std::string::npos)
      << run.status();
}

// A budget trip in every lane stops the attempt. In one lane only, the
// other lanes leave its loop through a guarded ret and retire, and the
// lone lane trips. Both replay to the reference's trip.
TEST_F(LockstepParity, BudgetTrips) {
  Check("st.global.u32 [%rd3], %r1; SPIN: bra SPIN;", ReplayCause::kBudget,
        32, 0, 500);
  Check("st.global.u32 [%rd3], %r1; setp.eq.u32 %p1, %r1, 5; "
        "selp.u32 %r5, 1000000, 3, %p1; mov.u32 %r3, 0; "
        "SPIN: add.u32 %r3, %r3, 1; setp.ge.u32 %p2, %r3, %r5; "
        "@%p2 ret; bra SPIN;",
        ReplayCause::kBudget, 32, 0, 32 * 500);
}

// An attempt's lanes share one lane's budget: 32 lanes of about 165
// instructions outgrow a budget of 3,200 together but not alone, so the
// phase replays and completes. Stopping a runaway block therefore costs
// at most one budget in the attempt plus one in the replay, not one per
// lane.
TEST_F(LockstepParity, AttemptLanesShareOneBudget) {
  const std::string body =
      "mov.u32 %r3, 0; LOOP: add.u32 %r3, %r3, 1; setp.lt.u32 %p1, %r3, 50; "
      "@%p1 bra LOOP; st.global.u32 [%rd3], %r3;";
  Check(body, ReplayCause::kBudget, 32, 0, 3200);
  Check(body, std::nullopt, 32, 0, 32 * 3200);
}

// Lane 5 faults in the attempt (a misaligned load); in the replay lane 0
// stops first, on an unresolved operand, a step error that is no device
// fault. The reference reports no fault, so the rollback must drop the
// attempt's.
TEST_F(LockstepParity, ReplayDropsTheAttemptsFault) {
  auto module = ptx::Parse(Source(
      "setp.eq.u32 %p1, %r1, 5; selp.u64 %rd9, 2, 0, %p1; "
      "add.u64 %rd10, %rd3, %rd9; ld.global.u32 %r4, [%rd10]; "
      "mov.u32 %r5, bogus;"));
  ASSERT_TRUE(module.ok()) << module.status();
  LaunchParams params;
  params.block = {32, 1, 1};
  params.args = {KernelArg::U64(kData), KernelArg::U32(0)};
  ExpectParity(*module, "t", params);
  simgpu::GlobalMemory memory(kMemBytes);
  Interpreter interp(&memory, nullptr, 1);
  auto run = interp.Execute(*module, "t", params);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("bogus"), std::string::npos)
      << run.status();
  EXPECT_TRUE(interp.last_fault().status.ok()) << interp.last_fault().status;
  EXPECT_EQ(interp.last_fault().thread_linear_id, 0u);
}

// The phase-end conflict check starts each load's search where the previous
// load's ended. Lanes loading in descending address order (lane i reads
// lane 31 - i's word) send that search backwards on every load, and the
// upper half read words lower lanes store after them: the check must still
// find the conflict. Loads that climb, then drop to a lower lane's word
// (lane i reads lane i ^ 16's), go backwards once, at lane 16.
TEST_F(LockstepParity, DescendingLoadsMeetLowerLanesLaterStores) {
  Check("sub.u32 %r4, 31, %r1; mul.wide.u32 %rd9, %r4, 4; "
        "add.u64 %rd10, %rd1, %rd9; ld.global.u32 %r3, [%rd10]; "
        "st.global.u32 [%rd3], %r1; st.global.u32 [%rd3+128], %r3;",
        ReplayCause::kConflict);
  Check("xor.b32 %r4, %r1, 16; mul.wide.u32 %rd9, %r4, 4; "
        "add.u64 %rd10, %rd1, %rd9; ld.global.u32 %r3, [%rd10]; "
        "st.global.u32 [%rd3], %r1; st.global.u32 [%rd3+128], %r3;",
        ReplayCause::kConflict);
}

// A tenant policy denies lane 13's load, in the middle of the group. The
// attempt stops there; the replay stores lanes 0-12's words and faults lane
// 13 again, so status, message, address, thread and memory match the
// reference on the top-level path and on the micro ops.
TEST_F(LockstepParity, PolicyDeniesOneLaneMidGroup) {
  auto module = ptx::Parse(Source(
      "setp.eq.u32 %p1, %r1, 13; selp.u64 %rd9, 4096, 0, %p1; "
      "add.u64 %rd10, %rd3, %rd9; ld.global.u32 %r4, [%rd10]; "
      "st.global.u32 [%rd3+128], %r4;"));
  ASSERT_TRUE(module.ok()) << module.status();
  LaunchParams params;
  params.block = {32, 1, 1};
  params.args = {KernelArg::U64(kData), KernelArg::U32(0)};
  MemInit init;
  for (std::uint32_t i = 0; i < 32; ++i)
    init.push_back({kData + 4 * i, 1000 + i});
  RangePolicy ref_policy(kData, 1024);
  RangePolicy engine_policy(kData, 1024);
  ExpectParity(*module, "t", params, init, &ref_policy, &engine_policy);

  simgpu::GlobalMemory memory(kMemBytes);
  for (const auto& [addr, value] : init)
    ASSERT_TRUE(memory.Store<std::uint32_t>(addr, value).ok());
  RangePolicy policy(kData, 1024);
  Interpreter interp(&memory, &policy, 1);
  auto run = interp.Execute(*module, "t", params);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(interp.last_fault().thread_linear_id, 13u);
  EXPECT_EQ(interp.last_fault().address, kData + 13 * 4 + 4096);
  for (std::uint32_t lane = 0; lane < 32; ++lane) {
    auto stored = memory.Load<std::uint32_t>(kData + 128 + 4 * lane);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(*stored, lane < 13 ? 1000 + lane : 0u) << "lane " << lane;
  }
}

// A phase logging more loads than the access log holds replays.
TEST_F(LockstepParity, PhaseOutgrowingTheAccessLogReplays) {
  Check("mov.u32 %r3, 0; mov.u64 %rd9, %rd3; LOOP: "
        "ld.global.u32 %r4, [%rd9]; add.u64 %rd9, %rd9, 128; "
        "add.u32 %r3, %r3, 1; setp.lt.u32 %p1, %r3, %r9; @%p1 bra LOOP; "
        "st.global.u32 [%rd3], %r4;",
        ReplayCause::kLogBound, 32, 1100);
}

// Random straight-line kernels at block sizes 64 and 96, where `tid & 31`
// makes lanes share words, fenced into partitions of 64 bytes (smaller than
// the 192 a kernel touches, so fenced addresses wrap onto other lanes'
// words) or 4 KiB. Every conflict, replay and commit must leave exactly
// what the reference leaves.
TEST(ProgramParity, LockstepConflictFuzz) {
  using ptxpatcher::BoundsCheckMode;
  const std::uint64_t seed = SeedFromEnv("GRD_FUZZ_SEED", 0x10C57E9);
  SCOPED_TRACE("reproduce with GRD_FUZZ_SEED=" + std::to_string(seed));
  Rng rng(seed);
  std::uint64_t conflicts = 0;
  for (int round = 0; round < 16; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ptx::Module native;
    native.kernels.push_back(ptx::MakeRandomKernel(
        rng, "rk", static_cast<int>(rng.NextInRange(1, 12)),
        static_cast<int>(rng.NextInRange(1, 8)), rng.NextBool(0.5)));
    ptxpatcher::PatchOptions options;
    options.mode = static_cast<BoundsCheckMode>(round % 2);  // the fencings
    options.elision_enabled = rng.NextBool(0.5);
    auto patched = ptxpatcher::PatchModule(native, options);
    ASSERT_TRUE(patched.ok()) << patched.status();
    const std::uint64_t base = 0x40000;
    const auto grd = ptxpatcher::ComputeGrdArgs(
        options.mode, base, rng.NextBool(0.5) ? 64 : 4096);
    MemInit init;
    for (int i = 0; i < 128; ++i)
      init.push_back({base + i * 4, static_cast<std::uint32_t>(
                                        rng.NextInRange(0, 1u << 30))});
    LaunchParams params;
    params.grid = {static_cast<std::uint32_t>(rng.NextInRange(1, 2)), 1, 1};
    params.block = {rng.NextBool(0.5) ? 64u : 96u, 1, 1};
    params.args = {KernelArg::U64(base), KernelArg::U32(0),
                   KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};
    const auto stats = ExpectParityUnderBudget(*patched, "rk", params, init,
                                               10'000'000);
    conflicts += stats[1].replayed_phases[static_cast<std::size_t>(
        ReplayCause::kConflict)];
  }
  // The attempts must meet conflicts, or the parity above proves nothing
  // about their replays. (RandomKernelFuzz's 32-thread blocks cover commits.)
  EXPECT_GT(conflicts, 0u);
}

// guardbench's two most launched kernels, patched as the manager patches
// them and launched as bench_interpreter launches them, run every phase in
// lockstep: a change that quietly loses lockstep on them fails here. The
// launches also match the reference.
TEST(ProgramParity, ServedKernelsNeverReplay) {
  ptxpatcher::PatchOptions options;
  options.elision_enabled = true;
  auto cublas = ptx::Parse(std::string(simlibs::CublasPtx()));
  ASSERT_TRUE(cublas.ok()) << cublas.status();
  ptx::Module saxpy_native;
  saxpy_native.kernels.push_back(ptx::MakeSaxpyKernel("saxpy"));
  auto sgemm = ptxpatcher::PatchModule(*cublas, options);
  auto saxpy = ptxpatcher::PatchModule(saxpy_native, options);
  ASSERT_TRUE(sgemm.ok()) << sgemm.status();
  ASSERT_TRUE(saxpy.ok()) << saxpy.status();
  const std::uint64_t base = 1ull << 20;
  const auto grd = ptxpatcher::ComputeGrdArgs(options.mode, base, 1ull << 20);
  MemInit init;
  for (std::uint32_t i = 0; i < 2048; ++i)
    init.push_back({base + 4 * i, 0x3F800000u + (i % 64) * 0x10000u});

  constexpr std::uint32_t kGemm = 32;
  LaunchParams sgemm_params;
  sgemm_params.grid = {kGemm * kGemm / 128, 1, 1};
  sgemm_params.block = {128, 1, 1};
  sgemm_params.args = {KernelArg::U64(base), KernelArg::U64(base + 0x1000),
                       KernelArg::U64(base + 0x2000), KernelArg::U32(kGemm),
                       KernelArg::U32(kGemm), KernelArg::U32(kGemm),
                       KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};
  constexpr std::uint32_t kVector = 1024;
  LaunchParams saxpy_params;
  saxpy_params.grid = {kVector / 256, 1, 1};
  saxpy_params.block = {256, 1, 1};
  saxpy_params.args = {KernelArg::U64(base), KernelArg::U64(base + 0x1000),
                       KernelArg::F32(1.5f), KernelArg::U32(kVector),
                       KernelArg::U64(grd.arg0), KernelArg::U64(grd.arg1)};

  struct Served {
    const ptx::Module& module;
    const char* kernel;
    const LaunchParams& params;
  };
  for (const Served& served : {Served{*sgemm, "grd_sgemm", sgemm_params},
                               Served{*saxpy, "saxpy", saxpy_params}}) {
    SCOPED_TRACE(served.kernel);
    const auto stats = ExpectParityUnderBudget(
        served.module, served.kernel, served.params, init, 10'000'000);
    for (const ExecStats& s : stats) {
      EXPECT_EQ(Replays(s), 0u);
      EXPECT_EQ(s.lockstep_phases, served.params.grid.Count())
          << "one barrier-free phase per block";
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
    Interpreter interp(&memory, nullptr, 1);
    const std::uint64_t before = exec_debug::HotPathStringLookups();
    auto run = interp.Execute(*program, params);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(exec_debug::HotPathStringLookups() - before, 0u)
        << "a std::string lookup crept back onto the engine's step path";

    // Sanity: the counter is live — the reference engine must bump it
    // heavily (several lookups per executed instruction).
    ReferenceInterpreter reference(&memory, nullptr, 1);
    auto ref = reference.Execute(module, "vecadd", params);
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
  Interpreter interp(&memory, nullptr, 1);
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
    EXPECT_EQ(fused.fused_micro.size(), fused.fused_instructions);

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
      ASSERT_LE(base + count, fused.fused_micro.size()) << "pc=" << pc;
      ASSERT_LE(pc + count, n) << "pc=" << pc;
      for (unsigned j = 0; j < count; ++j) {
        // Each component is its original's micro op: a branch only as the
        // run's last, and the originals stay in place behind the super (a
        // branch into the middle executes them).
        const bool is_branch = compiled->code[pc + j].op == COp::kBra;
        EXPECT_EQ(fused.fused_micro[base + j].op == MicroOp::kBra, is_branch)
            << "pc=" << pc << " j=" << j;
        if (is_branch) {
          EXPECT_EQ(j + 1, count) << "pc=" << pc;
        }
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
    EXPECT_EQ(refused.fused_micro.size(), fused.fused_micro.size());
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
  // add / setp / @bra tail.
  bool found_loop = false;
  for (std::size_t pc = 0; pc < fused.code.size(); ++pc) {
    if (fused.code[pc].op != COp::kFused) continue;
    const std::uint32_t base = fused.code[pc].target;
    const unsigned count = fused.code[pc].sub;
    if (fused.fused_micro[base + count - 1].op == MicroOp::kBra &&
        fused.fused_micro[base + count - 1].target == pc) {
      found_loop = true;
      EXPECT_EQ(count, 3u) << "add + setp + @bra";
    }
  }
  EXPECT_TRUE(found_loop) << "no superinstruction closes the loop";
}

// cuBLAS sgemm as the manager serves it (bitwise fencing with elision):
// the LOOPK body fuses into runs of 2 (setp + @bra) and 15 (both fenced
// loads with their index math, then fma + add + bra). An instruction that
// loses its micro op ends a run early and fails this.
TEST(FuseKernel, ServedLoopFusesWhole) {
  auto library = ptx::Parse(std::string(simlibs::CublasPtx()));
  ASSERT_TRUE(library.ok()) << library.status();
  ptxpatcher::PatchOptions options;
  options.elision_enabled = true;
  auto patched = ptxpatcher::PatchModule(*library, options);
  ASSERT_TRUE(patched.ok()) << patched.status();
  const ptx::Kernel* sgemm = patched->FindKernel("grd_sgemm");
  ASSERT_NE(sgemm, nullptr);
  auto compiled = CompileKernel(*sgemm);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const CompiledKernel fused = FuseKernel(*compiled);

  // LOOPK is the target of the body's closing, unpredicated back branch.
  std::size_t back_branch = 0;
  for (std::size_t pc = 0; pc < compiled->code.size(); ++pc) {
    const CompiledInst& inst = compiled->code[pc];
    if (inst.op == COp::kBra && inst.pred_slot == kNoPredSlot &&
        inst.target < pc)
      back_branch = pc;
  }
  ASSERT_GT(back_branch, 0u) << "no loop in grd_sgemm";
  std::vector<unsigned> runs;
  for (std::size_t pc = compiled->code[back_branch].target; pc <= back_branch;
       pc += fused.code[pc].sub) {
    ASSERT_EQ(fused.code[pc].op, COp::kFused)
        << "LOOPK instruction at pc " << pc << " is not fused";
    runs.push_back(fused.code[pc].sub);
  }
  EXPECT_EQ(runs, (std::vector<unsigned>{2, 15}));
}

}  // namespace
}  // namespace grd::ptxexec
