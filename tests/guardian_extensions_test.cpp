// Tests for the paper's extension / future-work features: static safety
// analysis (§2.2), kernel revocation (TReM [53]) and progressive partition
// growth (§4.4).
#include <gtest/gtest.h>

#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptxpatcher/analyzer.hpp"
#include "simgpu/device_spec.hpp"

namespace grd::guardian {
namespace {

using ptxexec::KernelArg;
using simcuda::DevicePtr;

// --- static safety analysis ---------------------------------------------

TEST(Analyzer, KernelsWithGlobalAccessesAreUnsafe) {
  for (const auto& kernel : ptx::MakeSampleModule().kernels) {
    const auto report = ptxpatcher::AnalyzeKernelSafety(kernel);
    const auto stats = ptx::ComputeStats(kernel);
    const bool has_risk = stats.loads + stats.stores + stats.indirect_branches;
    EXPECT_EQ(report.safe, !has_risk) << kernel.name;
    if (!report.safe) EXPECT_FALSE(report.reasons.empty());
  }
}

TEST(Analyzer, PureComputeKernelIsSafe) {
  const auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry purec(.param .u32 p0)
{
    .reg .b32 %r<4>;
    ld.param.u32 %r1, [p0];
    mov.u32 %r2, %tid.x;
    add.s32 %r3, %r1, %r2;
    ret;
}
)");
  ASSERT_TRUE(module.ok());
  EXPECT_TRUE(ptxpatcher::IsStaticallySafe(module->kernels[0]));
}

TEST(Analyzer, SharedOnlyKernelIsSafe) {
  // Shared memory is intra-block private (§3): no sandboxing needed.
  const auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry sharedonly()
{
    .shared .align 4 .b8 buf[64];
    .reg .b32 %r<3>;
    .reg .b64 %rd<2>;
    mov.u64 %rd1, buf;
    mov.u32 %r1, 7;
    st.shared.u32 [%rd1], %r1;
    ld.shared.u32 %r2, [%rd1];
    ret;
}
)");
  ASSERT_TRUE(module.ok()) << module.status();
  EXPECT_TRUE(ptxpatcher::IsStaticallySafe(module->kernels[0]));
}

TEST(Analyzer, SkipSafeOptionLeavesKernelUntouched) {
  const auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry purec()
{
    .reg .b32 %r<3>;
    mov.u32 %r1, %tid.x;
    add.s32 %r2, %r1, 1;
    ret;
}
)");
  ASSERT_TRUE(module.ok());
  ptxpatcher::PatchOptions options;
  options.skip_statically_safe = true;
  auto patched = ptxpatcher::PatchKernel(module->kernels[0], options);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched->kernel, module->kernels[0]);  // byte-identical
  EXPECT_EQ(patched->stats.skipped_safe_kernels, 1u);
  EXPECT_EQ(patched->stats.extra_params, 0);

  // Unsafe kernels are still instrumented under the same option.
  auto unsafe = ptxpatcher::PatchKernel(ptx::MakeStoreTidKernel(), options);
  ASSERT_TRUE(unsafe.ok());
  EXPECT_EQ(unsafe->stats.skipped_safe_kernels, 0u);
  EXPECT_EQ(unsafe->stats.extra_params, 2);
}

// --- kernel revocation ----------------------------------------------------

TEST(Revocation, EndlessKernelIsTerminatedAndContained) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  ManagerOptions options;
  options.max_kernel_instructions = 50'000;
  GrdManager manager(&gpu, options);
  LoopbackTransport transport(&manager);
  auto spinner = GrdLib::Connect(&transport, 1 << 20);
  auto victim = GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(spinner.ok() && victim.ok());

  auto module = spinner->cuModuleLoadData(R"(
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
  auto fn = spinner->cuModuleGetFunction(*module, "spin");
  ASSERT_TRUE(fn.ok());
  const Status s = spinner->cudaLaunchKernel(*fn, simcuda::LaunchConfig{}, {});
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);  // revoked
  EXPECT_EQ(manager.stats().faults_contained, 1u);
  // Budget kill is a last resort now: the kernel was revoked-and-requeued
  // once (keeping its checkpoint) before the failure became final.
  EXPECT_EQ(manager.stats().budget_requeues, 1u);

  // The spinner is failed; the co-tenant is unaffected.
  DevicePtr p = 0;
  EXPECT_EQ(spinner->cudaMalloc(&p, 64).code(), StatusCode::kAborted);
  EXPECT_TRUE(victim->cudaMalloc(&p, 64).ok());
}

// --- progressive partition growth ----------------------------------------

TEST(PartitionGrowth, DoublesAndKeepsMaskInvariant) {
  PartitionAllocator alloc(1ull << 30);
  auto p = alloc.CreatePartition(1ull << 20);
  ASSERT_TRUE(p.ok());
  const std::uint64_t base = p->base;
  auto grown = alloc.GrowPartition(base);
  ASSERT_TRUE(grown.ok()) << grown.status();
  EXPECT_EQ(grown->size, 2ull << 20);
  EXPECT_EQ(grown->base, base);
  EXPECT_TRUE(IsAligned(grown->base, grown->size));
  // Allocations beyond the original size now succeed.
  std::uint64_t total = 0;
  while (true) {
    auto a = alloc.AllocateIn(base, 256 << 10);
    if (!a.ok()) break;
    total += 256 << 10;
  }
  EXPECT_GE(total, (2ull << 20) - (512 << 10));
}

TEST(PartitionGrowth, FailsWhenNeighbourOccupied) {
  // headroom 0: partitions align exactly to their own size and pack tightly,
  // so a same-size neighbour can occupy the range growth would need. Use a
  // headroom-2 allocator and park a partition right after the first by
  // exhausting alignment slack.
  PartitionAllocator alloc(16ull << 20, /*growth_headroom=*/1);
  auto p1 = alloc.CreatePartition(1ull << 20);
  ASSERT_TRUE(p1.ok());
  auto grown = alloc.GrowPartition(p1->base);
  ASSERT_TRUE(grown.ok());
  // p1 now spans its full 2 MiB alignment bucket [base, base+2M); the next
  // partition lands at base+2M. A second growth needs [base+2M, base+4M)
  // which is (a) misaligned AND would be (b) occupied.
  auto p2 = alloc.CreatePartition(2ull << 20);
  ASSERT_TRUE(p2.ok());
  EXPECT_FALSE(alloc.GrowPartition(p1->base).ok());
}

TEST(PartitionGrowth, SecondGrowthBlockedByAlignment) {
  // With headroom 1 a partition can double exactly once; the second
  // doubling would break the mask invariant (base not aligned to 4x size).
  PartitionAllocator alloc(1ull << 30, /*growth_headroom=*/1);
  auto p = alloc.CreatePartition(1ull << 20);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(alloc.GrowPartition(p->base).ok());
  const auto second = alloc.GrowPartition(p->base);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PartitionGrowth, HeadroomTwoAllowsTwoDoublings) {
  PartitionAllocator alloc(1ull << 30, /*growth_headroom=*/2);
  auto p = alloc.CreatePartition(1ull << 20);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(alloc.GrowPartition(p->base).ok());
  auto grown = alloc.GrowPartition(p->base);
  ASSERT_TRUE(grown.ok()) << grown.status();
  EXPECT_EQ(grown->size, 4ull << 20);
  EXPECT_TRUE(IsAligned(grown->base, grown->size));
}

TEST(PartitionGrowth, EndToEndThroughGrdLib) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  LoopbackTransport transport(&manager);
  auto lib = GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(lib.ok());
  const std::uint64_t old_size = lib->partition_size();

  // Fill the partition, grow, then allocate more.
  DevicePtr p = 0;
  ASSERT_TRUE(lib->cudaMalloc(&p, 900 << 10).ok());
  DevicePtr q = 0;
  EXPECT_EQ(lib->cudaMalloc(&q, 900 << 10).code(), StatusCode::kOutOfMemory);
  ASSERT_TRUE(lib->GrowPartition().ok());
  EXPECT_EQ(lib->partition_size(), 2 * old_size);
  EXPECT_TRUE(lib->cudaMalloc(&q, 900 << 10).ok());

  // Kernels launched after growth use the new mask: an address in the grown
  // half is now reachable in-bounds.
  auto module = lib->cuModuleLoadData(ptx::Print(ptx::MakeSampleModule()));
  auto fn = lib->cuModuleGetFunction(*module, "oob_writer");
  ASSERT_TRUE(fn.ok());
  const std::uint64_t target_in_grown_half = q;  // beyond the original size
  ASSERT_TRUE(lib->cudaLaunchKernel(
                     *fn, simcuda::LaunchConfig{},
                     {KernelArg::U64(lib->partition_base()),
                      KernelArg::U64(target_in_grown_half -
                                     lib->partition_base()),
                      KernelArg::U32(42)})
                  .ok());
  std::uint32_t v = 0;
  ASSERT_TRUE(lib->cudaMemcpy(&v, target_in_grown_half, 4,
                              simcuda::MemcpyKind::kDeviceToHost)
                  .ok());
  EXPECT_EQ(v, 42u);  // landed exactly where aimed: in-bounds post-growth
}

}  // namespace
}  // namespace grd::guardian
