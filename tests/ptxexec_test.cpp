#include <gtest/gtest.h>

#include <vector>

#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptxexec/interpreter.hpp"

namespace grd::ptxexec {
namespace {

using ptx::MakeSampleModule;

// Policy restricting a client to one [base, base+size) range — a minimal
// stand-in for per-context protection.
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

class PtxExecTest : public ::testing::Test {
 protected:
  PtxExecTest() : memory_(64ull << 20), interp_(&memory_, nullptr, 1) {
    module_ = MakeSampleModule();
  }

  simgpu::GlobalMemory memory_;
  Interpreter interp_;
  ptx::Module module_;
};

TEST_F(PtxExecTest, StoreTidWritesThreadIndex) {
  // Listing 1 kernel: A[j] = tid with j from param1. One thread, j = 5.
  LaunchParams params;
  params.block = {8, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U32(5)};
  auto stats = interp_.Execute(module_, "kernel", params);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // All 8 threads write A[5]; the last one (tid 7) wins.
  auto v = memory_.Load<std::uint32_t>(0x1000 + 5 * 4);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7u);
  EXPECT_EQ(stats->global_stores, 8u);
}

TEST_F(PtxExecTest, VecAddComputes) {
  const std::uint64_t a = 0x10000, b = 0x20000, c = 0x30000;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(memory_.Store<float>(a + i * 4, static_cast<float>(i)).ok());
    ASSERT_TRUE(
        memory_.Store<float>(b + i * 4, static_cast<float>(2 * i)).ok());
  }
  LaunchParams params;
  params.grid = {1, 1, 1};
  params.block = {128, 1, 1};  // 128 > n: guard must mask the tail
  params.args = {KernelArg::U64(a), KernelArg::U64(b), KernelArg::U64(c),
                 KernelArg::U32(n)};
  auto stats = interp_.Execute(module_, "vecadd", params);
  ASSERT_TRUE(stats.ok()) << stats.status();
  for (int i = 0; i < n; ++i) {
    auto v = memory_.Load<float>(c + i * 4);
    ASSERT_TRUE(v.ok());
    EXPECT_FLOAT_EQ(*v, static_cast<float>(3 * i)) << "i=" << i;
  }
  // Guarded tail: exactly n stores.
  EXPECT_EQ(stats->global_stores, static_cast<std::uint64_t>(n));
}

TEST_F(PtxExecTest, VecAddMultiBlock) {
  const std::uint64_t a = 0x10000, b = 0x20000, c = 0x30000;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(memory_.Store<float>(a + i * 4, 1.5f).ok());
    ASSERT_TRUE(memory_.Store<float>(b + i * 4, 2.5f).ok());
  }
  LaunchParams params;
  params.grid = {4, 1, 1};
  params.block = {128, 1, 1};
  params.args = {KernelArg::U64(a), KernelArg::U64(b), KernelArg::U64(c),
                 KernelArg::U32(n)};
  ASSERT_TRUE(interp_.Execute(module_, "vecadd", params).ok());
  auto v = memory_.Load<float>(c + 499 * 4);
  ASSERT_TRUE(v.ok());
  EXPECT_FLOAT_EQ(*v, 4.0f);
}

TEST_F(PtxExecTest, SaxpyUsesFma) {
  const std::uint64_t x = 0x1000, y = 0x2000;
  const int n = 32;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(memory_.Store<float>(x + i * 4, 2.0f).ok());
    ASSERT_TRUE(memory_.Store<float>(y + i * 4, 1.0f).ok());
  }
  LaunchParams params;
  params.block = {32, 1, 1};
  params.args = {KernelArg::U64(x), KernelArg::U64(y), KernelArg::F32(3.0f),
                 KernelArg::U32(n)};
  ASSERT_TRUE(interp_.Execute(module_, "saxpy", params).ok());
  auto v = memory_.Load<float>(y + 10 * 4);
  ASSERT_TRUE(v.ok());
  EXPECT_FLOAT_EQ(*v, 7.0f);  // 3*2 + 1
}

TEST_F(PtxExecTest, OffsetCopyUsesOffsets) {
  const std::uint64_t in = 0x4000, out = 0x8000;
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(memory_.Store<std::uint32_t>(in + i * 4, 100 + i).ok());
  LaunchParams params;
  params.block = {16, 1, 1};  // 16 threads x 4 elems
  params.args = {KernelArg::U64(in), KernelArg::U64(out)};
  ASSERT_TRUE(interp_.Execute(module_, "offset_copy", params).ok());
  for (int i = 0; i < 64; ++i) {
    auto v = memory_.Load<std::uint32_t>(out + i * 4);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 100u + i);
  }
}

TEST_F(PtxExecTest, DotAccumulates) {
  const std::uint64_t a = 0x1000, b = 0x2000, out = 0x3000;
  // 4 threads x unroll 4.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(memory_.Store<float>(a + i * 4, 2.0f).ok());
    ASSERT_TRUE(memory_.Store<float>(b + i * 4, 3.0f).ok());
  }
  LaunchParams params;
  params.block = {4, 1, 1};
  params.args = {KernelArg::U64(a), KernelArg::U64(b), KernelArg::U64(out)};
  ASSERT_TRUE(interp_.Execute(module_, "dot", params).ok());
  for (int t = 0; t < 4; ++t) {
    auto v = memory_.Load<float>(out + t * 4);
    ASSERT_TRUE(v.ok());
    EXPECT_FLOAT_EQ(*v, 24.0f);  // 4 * (2*3)
  }
}

TEST_F(PtxExecTest, ReduceSumsBlockThroughSharedMemory) {
  const std::uint64_t in = 0x1000, out = 0x2000;
  const int nthreads = 64;
  for (int i = 0; i < nthreads; ++i)
    ASSERT_TRUE(memory_.Store<float>(in + i * 4, 1.0f).ok());
  LaunchParams params;
  params.block = {static_cast<std::uint32_t>(nthreads), 1, 1};
  params.args = {KernelArg::U64(in), KernelArg::U64(out)};
  auto stats = interp_.Execute(module_, "reduce", params);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto v = memory_.Load<float>(out);
  ASSERT_TRUE(v.ok());
  EXPECT_FLOAT_EQ(*v, static_cast<float>(nthreads));
  EXPECT_GT(stats->shared_accesses, 0u);
}

TEST_F(PtxExecTest, IndirectBranchSelectsArm) {
  LaunchParams params;
  params.block = {1, 1, 1};
  for (std::uint32_t sel : {0u, 1u, 2u}) {
    params.args = {KernelArg::U64(0x100), KernelArg::U32(sel)};
    ASSERT_TRUE(interp_.Execute(module_, "brx_kernel", params).ok());
    auto v = memory_.Load<std::uint32_t>(0x100);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 10u * (sel + 1));
  }
}

TEST_F(PtxExecTest, IndirectBranchOutOfTableFaults) {
  LaunchParams params;
  params.block = {1, 1, 1};
  params.args = {KernelArg::U64(0x100), KernelArg::U32(7)};  // table size 3
  auto stats = interp_.Execute(module_, "brx_kernel", params);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(interp_.last_fault().kernel, "brx_kernel");
}

TEST_F(PtxExecTest, OobWriterCorruptsNeighbourWithoutProtection) {
  // The Figure 1 scenario: one shared context, no checks -> a kernel can
  // write into another tenant's buffer.
  const std::uint64_t mine = 0x10000, victim = 0x20000;
  ASSERT_TRUE(memory_.Store<std::uint32_t>(victim, 777).ok());
  LaunchParams params;
  params.block = {1, 1, 1};
  params.args = {KernelArg::U64(mine), KernelArg::U64(victim - mine),
                 KernelArg::U32(666)};
  ASSERT_TRUE(interp_.Execute(module_, "oob_writer", params).ok());
  auto v = memory_.Load<std::uint32_t>(victim);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 666u);  // corrupted
}

TEST_F(PtxExecTest, RangePolicyBlocksOobWriter) {
  // Per-context protection (native CUDA / MPS): the same OOB write faults.
  const std::uint64_t mine = 0x10000, victim = 0x20000;
  RangePolicy policy(mine, 0x1000);
  Interpreter guarded(&memory_, &policy, 1);
  LaunchParams params;
  params.block = {1, 1, 1};
  params.args = {KernelArg::U64(mine), KernelArg::U64(victim - mine),
                 KernelArg::U32(666)};
  auto stats = guarded.Execute(module_, "oob_writer", params);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(guarded.last_fault().address, victim);
}

TEST_F(PtxExecTest, CopyKernelFunctional) {
  const std::uint64_t in = 0x1000, out = 0x2000;
  const int n = 48;
  for (int i = 0; i < n; ++i)
    ASSERT_TRUE(memory_.Store<std::uint32_t>(in + i * 4, 1000 + i).ok());
  LaunchParams params;
  params.block = {64, 1, 1};
  params.args = {KernelArg::U64(in), KernelArg::U64(out), KernelArg::U32(n)};
  ASSERT_TRUE(interp_.Execute(module_, "copyk", params).ok());
  for (int i = 0; i < n; ++i) {
    auto v = memory_.Load<std::uint32_t>(out + i * 4);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 1000u + i);
  }
}

TEST_F(PtxExecTest, UnknownKernelIsNotFound) {
  LaunchParams params;
  auto stats = interp_.Execute(module_, "nope", params);
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST_F(PtxExecTest, MissingArgumentFaults) {
  LaunchParams params;
  params.block = {1, 1, 1};
  params.args = {KernelArg::U64(0x1000)};  // kernel expects 2 args
  auto stats = interp_.Execute(module_, "kernel", params);
  EXPECT_FALSE(stats.ok());
}

TEST_F(PtxExecTest, RunawayKernelIsTerminated) {
  // An infinite loop must hit the instruction budget, not hang (paper cites
  // TReM-style revocation for endless kernels).
  const auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry spin()
{
    .reg .b32 %r<2>;
LOOP:
    add.s32 %r1, %r1, 1;
    bra LOOP;
}
)");
  ASSERT_TRUE(module.ok()) << module.status();
  Interpreter interp(&memory_, nullptr, 1);
  interp.set_max_instructions_per_thread(10'000);
  LaunchParams params;
  params.block = {1, 1, 1};
  auto stats = interp.Execute(*module, "spin", params);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(PtxExecTest, ExecutesFromPrintedText) {
  // Print -> Parse -> Execute must agree with direct execution (the
  // grdManager runs kernels from re-emitted PTX text).
  const std::string text = ptx::Print(module_);
  auto reparsed = ptx::Parse(text);
  ASSERT_TRUE(reparsed.ok());
  LaunchParams params;
  params.block = {8, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U32(3)};
  ASSERT_TRUE(interp_.Execute(*reparsed, "kernel", params).ok());
  auto v = memory_.Load<std::uint32_t>(0x1000 + 3 * 4);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7u);
}

TEST_F(PtxExecTest, SignedNegativeOffsetsWork) {
  const auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry negoff(.param .u64 p0)
{
    .reg .b32 %r<3>;
    .reg .b64 %rd<3>;
    ld.param.u64 %rd1, [p0];
    cvta.to.global.u64 %rd2, %rd1;
    mov.u32 %r1, 42;
    st.global.u32 [%rd2+-4], %r1;
    ret;
}
)");
  ASSERT_TRUE(module.ok()) << module.status();
  LaunchParams params;
  params.block = {1, 1, 1};
  params.args = {KernelArg::U64(0x1004)};
  ASSERT_TRUE(interp_.Execute(*module, "negoff", params).ok());
  auto v = memory_.Load<std::uint32_t>(0x1000);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42u);
}

TEST_F(PtxExecTest, VectorLoadStore) {
  const auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry vmove(.param .u64 p0, .param .u64 p1)
{
    .reg .b32 %r<5>;
    .reg .b64 %rd<5>;
    ld.param.u64 %rd1, [p0];
    ld.param.u64 %rd2, [p1];
    cvta.to.global.u64 %rd3, %rd1;
    cvta.to.global.u64 %rd4, %rd2;
    ld.global.v4.u32 {%r1, %r2, %r3, %r4}, [%rd3];
    st.global.v4.u32 [%rd4], {%r1, %r2, %r3, %r4};
    ret;
}
)");
  ASSERT_TRUE(module.ok()) << module.status();
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(memory_.Store<std::uint32_t>(0x1000 + i * 4, 7 + i).ok());
  LaunchParams params;
  params.block = {1, 1, 1};
  params.args = {KernelArg::U64(0x1000), KernelArg::U64(0x2000)};
  ASSERT_TRUE(interp_.Execute(*module, "vmove", params).ok());
  for (int i = 0; i < 4; ++i) {
    auto v = memory_.Load<std::uint32_t>(0x2000 + i * 4);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 7u + i);
  }
}

TEST_F(PtxExecTest, UnimplementedOpcodeReportsCleanly) {
  const auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry weird()
{
    .reg .b32 %r<2>;
    vote.ballot.b32 %r1, %r1;
    ret;
}
)");
  ASSERT_TRUE(module.ok()) << module.status();
  LaunchParams params;
  params.block = {1, 1, 1};
  auto stats = interp_.Execute(*module, "weird", params);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace grd::ptxexec
