#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "simgpu/device_spec.hpp"
#include "simgpu/engine.hpp"
#include "simgpu/memory.hpp"
#include "simgpu/timing.hpp"

namespace grd::simgpu {
namespace {

TEST(DeviceSpec, Table2Quadro) {
  const DeviceSpec spec = QuadroRtxA4000();
  EXPECT_EQ(spec.sms, 48);
  EXPECT_EQ(spec.cuda_cores, 6144);
  EXPECT_EQ(spec.l1_kb, 128);
  EXPECT_EQ(spec.l2_kb, 4096);
  EXPECT_EQ(spec.global_mem_bytes, 16ull << 30);
  EXPECT_EQ(spec.regs_per_thread, 255);
  EXPECT_TRUE(spec.ecc);
  EXPECT_EQ(spec.l1_hit_latency, 28);
}

TEST(DeviceSpec, Table2GeForce) {
  const DeviceSpec spec = GeForceRtx3080Ti();
  EXPECT_EQ(spec.sms, 80);
  EXPECT_EQ(spec.cuda_cores, 10240);
  EXPECT_EQ(spec.l2_kb, 6144);
  EXPECT_EQ(spec.global_mem_bytes, 12ull << 30);
  EXPECT_FALSE(spec.ecc);
  EXPECT_DOUBLE_EQ(spec.global_bw_gbps, 912.0);
}

TEST(GlobalMemory, ReadWriteRoundTrip) {
  GlobalMemory mem(1 << 20);
  const std::uint32_t v = 0xDEADBEEF;
  ASSERT_TRUE(mem.Store<std::uint32_t>(4096, v).ok());
  auto r = mem.Load<std::uint32_t>(4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, v);
}

// A "16 GB" device is one reserved mapping: bytes never written anywhere
// in it read as zero, next to written ones too.
TEST(GlobalMemory, UntouchedReadsZero) {
  GlobalMemory mem(16ull << 30);
  for (const std::uint64_t addr : {123456ull, 8ull << 30, (16ull << 30) - 8}) {
    auto r = mem.Load<std::uint64_t>(addr);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 0u) << addr;
  }
  ASSERT_TRUE(mem.Store<std::uint32_t>(8ull << 30, 7).ok());
  auto r = mem.Load<std::uint32_t>((8ull << 30) + 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0u);
}

TEST(GlobalMemory, CrossPageAccess) {
  GlobalMemory mem(1 << 20);
  // 8 bytes straddling a host page boundary.
  const std::uint64_t addr = 64 * 1024 - 4;
  const std::uint64_t v = 0x1122334455667788ull;
  ASSERT_TRUE(mem.Store<std::uint64_t>(addr, v).ok());
  auto r = mem.Load<std::uint64_t>(addr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, v);
}

// Every access outside device memory fails with the same OutOfRange status,
// whichever call makes it.
TEST(GlobalMemory, OutOfDeviceRangeFails) {
  constexpr std::uint64_t kSize = 1 << 20;
  GlobalMemory mem(kSize);
  EXPECT_EQ(mem.Store<std::uint32_t>(kSize - 2, 1).code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(mem.Load<std::uint32_t>(kSize).ok());
  std::uint8_t buf[4] = {};
  const Status read = mem.Read(kSize - 1, buf, 4);
  EXPECT_EQ(read.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(read.message(),
            "device access 0xfffff+4 beyond device memory (1048576 bytes)");
  for (const Status& s :
       {mem.Write(kSize - 1, buf, 4), mem.Fill(kSize - 1, 0, 4),
        mem.Zero(kSize - 1, 4), mem.CheckRange(kSize - 1, 4),
        mem.Copy(kSize - 1, 0, 4), mem.Copy(0, kSize - 1, 4)}) {
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
    EXPECT_EQ(s.message(), read.message());
  }
  // An access ending exactly at the end of device memory is in range.
  EXPECT_TRUE(mem.Read(kSize - 4, buf, 4).ok());
  EXPECT_TRUE(mem.Zero(0, kSize).ok());
}

TEST(GlobalMemory, FillAndCopy) {
  GlobalMemory mem(1 << 20);
  ASSERT_TRUE(mem.Fill(100, 0xAB, 64).ok());
  auto r = mem.Load<std::uint8_t>(163);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0xAB);
  ASSERT_TRUE(mem.Copy(5000, 100, 64).ok());
  auto r2 = mem.Load<std::uint8_t>(5063);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 0xAB);
}

TEST(GlobalMemory, OverlappingCopyMovesTheSourceBytes) {
  GlobalMemory mem(1 << 20);
  std::uint8_t bytes[16];
  for (std::uint8_t i = 0; i < 16; ++i) bytes[i] = i;
  ASSERT_TRUE(mem.Write(64, bytes, 16).ok());
  ASSERT_TRUE(mem.Copy(68, 64, 16).ok());
  std::uint8_t back[16] = {};
  ASSERT_TRUE(mem.Read(68, back, 16).ok());
  for (std::uint8_t i = 0; i < 16; ++i) EXPECT_EQ(back[i], i);
}

// Zero clears exactly [addr, addr + len): whole pages inside the range and
// its unaligned edges, and not one byte on either side.
TEST(GlobalMemory, ZeroClearsExactlyItsRange) {
  constexpr std::uint64_t kSpan = 5 * 4096;
  GlobalMemory mem(1 << 20);
  for (const auto& [addr, len] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {4096 + 3, 3 * 4096 - 7},  // unaligned edges around whole pages
           {2 * 4096, 2 * 4096},      // page-aligned both ends
           {4096 + 100, 50},          // inside one page
           {4096 - 5, 10}}) {         // straddles one page boundary
    ASSERT_TRUE(mem.Fill(0, 0xC3, kSpan).ok());
    ASSERT_TRUE(mem.Zero(addr, len).ok());
    std::vector<std::uint8_t> back(kSpan);
    ASSERT_TRUE(mem.Read(0, back.data(), kSpan).ok());
    for (std::uint64_t i = 0; i < kSpan; ++i) {
      const std::uint8_t want = i >= addr && i < addr + len ? 0 : 0xC3;
      ASSERT_EQ(back[i], want) << "byte " << i << " of Zero(" << addr
                               << ", " << len << ")";
    }
  }
}

// The mapping is shared: a process forked after the memory was built writes
// the same bytes its parent reads.
TEST(GlobalMemory, ForkedChildWriteIsVisibleToParent) {
  GlobalMemory mem(1 << 20);
  ASSERT_TRUE(mem.Store<std::uint64_t>(4096, 1).ok());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const bool ok = mem.Store<std::uint64_t>(4096, 0x1122334455667788ull)
                        .ok() &&
                    mem.Fill(65536, 0xEE, 16).ok();
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  auto r = mem.Load<std::uint64_t>(4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0x1122334455667788ull);
  auto filled = mem.Load<std::uint8_t>(65536 + 15);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, 0xEE);
}

TEST(Timing, AverageLatencyMatchesFigure5Extremes) {
  const TimingModel model(QuadroRtxA4000());
  EXPECT_DOUBLE_EQ(model.AverageAccessLatency(CacheProfile::AllL1()), 28.0);
  EXPECT_DOUBLE_EQ(model.AverageAccessLatency(CacheProfile::AllGlobal()),
                   285.0);
}

TEST(Timing, BitwiseCostIsTwoInstructions) {
  const TimingModel model(QuadroRtxA4000());
  EXPECT_DOUBLE_EQ(
      model.ProtectionCyclesPerAccess(ProtectionMode::kFencingBitwise, 0.0),
      8.0);
  // base+offset mode: four instructions (paper §4.3).
  EXPECT_DOUBLE_EQ(
      model.ProtectionCyclesPerAccess(ProtectionMode::kFencingBitwise, 1.0),
      16.0);
}

TEST(Timing, ModuloCostIsSevenInstructions) {
  const TimingModel model(QuadroRtxA4000());
  EXPECT_DOUBLE_EQ(
      model.ProtectionCyclesPerAccess(ProtectionMode::kFencingModulo, 0.0),
      28.0);
}

TEST(Timing, CheckingCostIs80CyclesPerBound) {
  // 80 cycles per conditional check (paper §4.4), two bounds per access.
  const TimingModel model(QuadroRtxA4000());
  EXPECT_DOUBLE_EQ(
      model.ProtectionCyclesPerAccess(ProtectionMode::kChecking, 0.0), 160.0);
}

TEST(Timing, PaperSection74OverheadBands) {
  // §7.4: all-L1 data -> 28%..57% overhead; all-global -> 2%..5%.
  const TimingModel model(QuadroRtxA4000());
  KernelProfile all_l1;
  all_l1.loads = 100;
  all_l1.stores = 0;
  all_l1.alu_ops = 0;
  all_l1.cache = CacheProfile::AllL1();
  const double l1_overhead =
      model.RelativeOverhead(all_l1, ProtectionMode::kFencingBitwise);
  EXPECT_GT(l1_overhead, 0.25);
  EXPECT_LT(l1_overhead, 0.60);

  KernelProfile all_l1_offset = all_l1;
  all_l1_offset.offset_mode_fraction = 1.0;
  const double l1_offset_overhead =
      model.RelativeOverhead(all_l1_offset, ProtectionMode::kFencingBitwise);
  EXPECT_GT(l1_offset_overhead, 0.50);  // "up to 57%"

  KernelProfile global;
  global.loads = 100;
  global.cache = CacheProfile::AllGlobal();
  const double global_overhead =
      model.RelativeOverhead(global, ProtectionMode::kFencingBitwise);
  EXPECT_GT(global_overhead, 0.015);
  EXPECT_LT(global_overhead, 0.05);
}

TEST(Timing, ModeOrdering) {
  // checking > modulo > bitwise > none for any profile.
  const TimingModel model(QuadroRtxA4000());
  KernelProfile p;
  p.loads = 40;
  p.stores = 20;
  p.alu_ops = 120;
  const double none = model.ThreadCycles(p, ProtectionMode::kNone);
  const double bitwise =
      model.ThreadCycles(p, ProtectionMode::kFencingBitwise);
  const double modulo = model.ThreadCycles(p, ProtectionMode::kFencingModulo);
  const double checking = model.ThreadCycles(p, ProtectionMode::kChecking);
  EXPECT_LT(none, bitwise);
  EXPECT_LT(bitwise, modulo);
  EXPECT_LT(modulo, checking);
}

TEST(Engine, SingleKernelRunsAtOwnParallelism) {
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s = engine.AddStream();
  // 1000 threads, 100 cycles each -> alone: 100000 lane-cycles / 1000 lanes.
  engine.Enqueue(s, MakeKernelOp(spec, 100.0, 1000));
  const auto result = engine.Run();
  EXPECT_NEAR(result.total_cycles, 100.0, 1e-6);
}

TEST(Engine, LowOccupancyKernelsOverlapPerfectly) {
  // Two kernels each needing 1000 lanes on a 6144-lane GPU: spatial sharing
  // runs them fully in parallel (the Figure 6 B/D "2x" scenario).
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s1 = engine.AddStream();
  const auto s2 = engine.AddStream();
  engine.Enqueue(s1, MakeKernelOp(spec, 100.0, 1000));
  engine.Enqueue(s2, MakeKernelOp(spec, 100.0, 1000));
  const auto result = engine.Run();
  EXPECT_NEAR(result.total_cycles, 100.0, 1e-6);
}

TEST(Engine, SaturatingKernelsContend) {
  // Two kernels each able to use the whole GPU: co-running them halves each
  // one's rate; makespan equals serial execution.
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s1 = engine.AddStream();
  const auto s2 = engine.AddStream();
  engine.Enqueue(s1, MakeKernelOp(spec, 100.0, 100000));
  engine.Enqueue(s2, MakeKernelOp(spec, 100.0, 100000));
  const auto result = engine.Run();
  const double alone = 100.0 * 100000 / spec.cuda_cores;
  EXPECT_NEAR(result.total_cycles, 2 * alone, 1.0);
}

TEST(Engine, StreamOrderIsPreserved) {
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s = engine.AddStream();
  engine.Enqueue(s, GpuOp::Delay(50.0));
  engine.Enqueue(s, MakeKernelOp(spec, 100.0, 64));
  const auto result = engine.Run();
  EXPECT_NEAR(result.total_cycles, 150.0, 1e-6);
}

TEST(Engine, MemcpySharesPcie) {
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s1 = engine.AddStream();
  const auto s2 = engine.AddStream();
  const double bytes = 1600.0;
  engine.Enqueue(s1, GpuOp::Memcpy(bytes, spec.pcie_bytes_per_cycle));
  engine.Enqueue(s2, GpuOp::Memcpy(bytes, spec.pcie_bytes_per_cycle));
  const auto result = engine.Run();
  // Both want the full link: each gets half -> 2x single-transfer time.
  EXPECT_NEAR(result.total_cycles, 2 * bytes / spec.pcie_bytes_per_cycle,
              1e-6);
}

TEST(Engine, MemcpyAndKernelOverlap) {
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s1 = engine.AddStream();
  const auto s2 = engine.AddStream();
  engine.Enqueue(s1, MakeKernelOp(spec, 100.0, 64));
  engine.Enqueue(s2, GpuOp::Memcpy(100.0 * spec.pcie_bytes_per_cycle,
                                   spec.pcie_bytes_per_cycle));
  const auto result = engine.Run();
  // Different resources: perfect overlap.
  EXPECT_NEAR(result.total_cycles, 100.0, 1e-6);
}

TEST(Engine, TimeSharingCostsContextSwitches) {
  // Time-sharing expressed as one serialized stream with switch delays.
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s = engine.AddStream();
  engine.Enqueue(s, MakeKernelOp(spec, 100.0, 1000));
  engine.Enqueue(s, GpuOp::Delay(static_cast<double>(spec.context_switch_cycles)));
  engine.Enqueue(s, MakeKernelOp(spec, 100.0, 1000));
  const auto serial = engine.Run();

  SharingEngine spatial(spec);
  const auto a = spatial.AddStream();
  const auto b = spatial.AddStream();
  spatial.Enqueue(a, MakeKernelOp(spec, 100.0, 1000));
  spatial.Enqueue(b, MakeKernelOp(spec, 100.0, 1000));
  const auto parallel = spatial.Run();
  EXPECT_GT(serial.total_cycles, 2 * parallel.total_cycles);
}

TEST(Engine, PerStreamFinishTimes) {
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s1 = engine.AddStream();
  const auto s2 = engine.AddStream();
  engine.Enqueue(s1, MakeKernelOp(spec, 50.0, 64));
  engine.Enqueue(s2, MakeKernelOp(spec, 100.0, 64));
  const auto result = engine.Run();
  ASSERT_EQ(result.stream_finish.size(), 2u);
  EXPECT_NEAR(result.stream_finish[0], 50.0, 1e-6);
  EXPECT_NEAR(result.stream_finish[1], 100.0, 1e-6);
}

TEST(Engine, UtilizationReported) {
  const DeviceSpec spec = QuadroRtxA4000();
  SharingEngine engine(spec);
  const auto s = engine.AddStream();
  engine.Enqueue(s, MakeKernelOp(spec, 100.0, spec.cuda_cores));
  const auto result = engine.Run();
  EXPECT_NEAR(result.Utilization(spec), 1.0, 1e-6);
}

}  // namespace
}  // namespace grd::simgpu
