#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/partition_allocator.hpp"
#include "guardian/transport.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"
#include "simgpu/device_spec.hpp"
#include "simlibs/cublas.hpp"

namespace grd::guardian {
namespace {

using ptxexec::KernelArg;
using simcuda::DevicePtr;
using simcuda::MemcpyKind;

std::string SamplePtx() { return ptx::Print(ptx::MakeSampleModule()); }

class GuardianTest : public ::testing::Test {
 protected:
  GuardianTest()
      : gpu_(simgpu::QuadroRtxA4000()),
        manager_(&gpu_, ManagerOptions{}),
        transport_(&manager_) {}

  Result<GrdLib> Connect(std::uint64_t bytes = 16ull << 20) {
    return GrdLib::Connect(&transport_, bytes);
  }

  // Loads the sample module and returns the handle for `kernel`.
  Result<simcuda::FunctionId> LoadKernel(GrdLib& lib,
                                         const std::string& kernel) {
    GRD_ASSIGN_OR_RETURN(simcuda::ModuleId module,
                         lib.cuModuleLoadData(SamplePtx()));
    return lib.cuModuleGetFunction(module, kernel);
  }

  simcuda::Gpu gpu_;
  GrdManager manager_;
  LoopbackTransport transport_;
};

TEST_F(GuardianTest, RegistrationCreatesPowerOfTwoPartition) {
  auto lib = Connect((10ull << 20) + 5);  // 10 MB + change
  ASSERT_TRUE(lib.ok()) << lib.status();
  EXPECT_EQ(lib->partition_size(), 16ull << 20);  // rounded up
  EXPECT_EQ(lib->partition_base() % lib->partition_size(), 0u);
  EXPECT_GT(lib->client_id(), 0u);
}

TEST_F(GuardianTest, MallocServedFromOwnPartition) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  DevicePtr p = 0;
  ASSERT_TRUE(lib->cudaMalloc(&p, 4096).ok());
  EXPECT_GE(p, lib->partition_base());
  EXPECT_LT(p, lib->partition_base() + lib->partition_size());
  ASSERT_TRUE(lib->cudaFree(p).ok());
}

TEST_F(GuardianTest, PartitionExhaustionIsOom) {
  auto lib = Connect(1ull << 20);
  ASSERT_TRUE(lib.ok());
  DevicePtr p = 0;
  EXPECT_EQ(lib->cudaMalloc(&p, 8ull << 20).code(),
            StatusCode::kOutOfMemory);
}

TEST_F(GuardianTest, TransfersRoundTrip) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  DevicePtr p = 0;
  ASSERT_TRUE(lib->cudaMalloc(&p, 64).ok());
  const std::uint32_t data[4] = {9, 8, 7, 6};
  ASSERT_TRUE(lib->cudaMemcpyH2D(p, data, sizeof(data)).ok());
  std::uint32_t back[4] = {};
  ASSERT_TRUE(
      lib->cudaMemcpy(back, p, sizeof(back), MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back[0], 9u);
  EXPECT_EQ(back[3], 6u);
}

TEST_F(GuardianTest, TransferOutsidePartitionRejected) {
  // §4.2.2: host-initiated transfers are fenced by the partition bounds.
  auto alice = Connect();
  auto bob = Connect();
  ASSERT_TRUE(alice.ok() && bob.ok());
  DevicePtr bobs = 0;
  ASSERT_TRUE(bob->cudaMalloc(&bobs, 64).ok());
  const std::uint32_t v = 666;
  EXPECT_EQ(alice->cudaMemcpyH2D(bobs, &v, sizeof(v)).code(),
            StatusCode::kPermissionDenied);
  std::uint32_t out = 0;
  EXPECT_EQ(
      alice->cudaMemcpy(&out, bobs, 4, MemcpyKind::kDeviceToHost).code(),
      StatusCode::kPermissionDenied);
  DevicePtr mine = 0;
  ASSERT_TRUE(alice->cudaMalloc(&mine, 64).ok());
  EXPECT_EQ(alice->cudaMemcpyD2D(mine, bobs, 4).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(manager_.stats().transfers_rejected, 3u);
}

TEST_F(GuardianTest, KernelLaunchThroughManager) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto fn = LoadKernel(*lib, "vecadd");
  ASSERT_TRUE(fn.ok()) << fn.status();
  DevicePtr a = 0, b = 0, c = 0;
  const int n = 32;
  ASSERT_TRUE(lib->cudaMalloc(&a, n * 4).ok());
  ASSERT_TRUE(lib->cudaMalloc(&b, n * 4).ok());
  ASSERT_TRUE(lib->cudaMalloc(&c, n * 4).ok());
  std::vector<float> xs(n, 2.0f), ys(n, 3.0f);
  ASSERT_TRUE(lib->cudaMemcpyH2D(a, xs.data(), n * 4).ok());
  ASSERT_TRUE(lib->cudaMemcpyH2D(b, ys.data(), n * 4).ok());
  simcuda::LaunchConfig config;
  config.block = {32, 1, 1};
  ASSERT_TRUE(lib->cudaLaunchKernel(*fn, config,
                                    {KernelArg::U64(a), KernelArg::U64(b),
                                     KernelArg::U64(c), KernelArg::U32(n)})
                  .ok());
  std::vector<float> out(n);
  ASSERT_TRUE(
      lib->cudaMemcpy(out.data(), c, n * 4, MemcpyKind::kDeviceToHost).ok());
  EXPECT_FLOAT_EQ(out[17], 5.0f);
  EXPECT_EQ(manager_.stats().sandboxed_launches, 1u);
}

TEST_F(GuardianTest, SignedDivisionOverflowWrapsAndCoTenantSurvives) {
  // INT64_MIN / -1 traps on the host's divide instruction. A tenant kernel
  // that divides so must complete with the GPU's wrapped result, and the
  // manager must go on serving its co-tenant.
  auto attacker = Connect();
  auto bystander = Connect();
  ASSERT_TRUE(attacker.ok() && bystander.ok());
  const std::string ptx = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry divk(.param .u64 p_out, .param .u64 p_a, .param .u64 p_b)
{
    .reg .b64 %rd<8>;
    ld.param.u64 %rd1, [p_out];
    ld.param.u64 %rd2, [p_a];
    ld.param.u64 %rd3, [p_b];
    div.s64 %rd4, %rd2, %rd3;
    rem.s64 %rd5, %rd2, %rd3;
    st.global.u64 [%rd1], %rd4;
    st.global.u64 [%rd1+8], %rd5;
    ret;
}
)";
  auto module = attacker->cuModuleLoadData(ptx);
  ASSERT_TRUE(module.ok()) << module.status();
  auto fn = attacker->cuModuleGetFunction(*module, "divk");
  ASSERT_TRUE(fn.ok()) << fn.status();
  DevicePtr out = 0;
  ASSERT_TRUE(attacker->cudaMalloc(&out, 16).ok());
  constexpr std::uint64_t kMin = 0x8000'0000'0000'0000ull;
  ASSERT_TRUE(attacker
                  ->cudaLaunchKernel(*fn, simcuda::LaunchConfig{},
                                     {KernelArg::U64(out), KernelArg::U64(kMin),
                                      KernelArg::U64(~0ull)})
                  .ok());
  std::uint64_t result[2] = {1, 1};
  ASSERT_TRUE(
      attacker->cudaMemcpy(result, out, 16, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(result[0], kMin);  // quotient wraps to INT64_MIN
  EXPECT_EQ(result[1], 0u);    // remainder 0

  DevicePtr p = 0;
  ASSERT_TRUE(bystander->cudaMalloc(&p, 4).ok());
  const std::uint32_t value = 4242;
  ASSERT_TRUE(bystander->cudaMemcpyH2D(p, &value, 4).ok());
  std::uint32_t check = 0;
  ASSERT_TRUE(
      bystander->cudaMemcpy(&check, p, 4, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(check, value);
}

TEST_F(GuardianTest, OobKernelWrapsAndVictimSurvives) {
  // The end-to-end Figure 4 property through the full client-server stack:
  // the attacker's OOB store wraps into its own partition; the victim's
  // data is intact; NO fault is raised (fencing, not checking).
  auto attacker = Connect();
  auto victim = Connect();
  ASSERT_TRUE(attacker.ok() && victim.ok());

  DevicePtr victim_buf = 0;
  ASSERT_TRUE(victim->cudaMalloc(&victim_buf, 64).ok());
  const std::uint32_t secret = 777;
  ASSERT_TRUE(victim->cudaMemcpyH2D(victim_buf, &secret, 4).ok());

  auto fn = LoadKernel(*attacker, "oob_writer");
  ASSERT_TRUE(fn.ok());
  DevicePtr mine = 0;
  ASSERT_TRUE(attacker->cudaMalloc(&mine, 64).ok());
  simcuda::LaunchConfig config;
  ASSERT_TRUE(attacker
                  ->cudaLaunchKernel(*fn, config,
                                     {KernelArg::U64(mine),
                                      KernelArg::U64(victim_buf - mine),
                                      KernelArg::U32(666)})
                  .ok());

  std::uint32_t check = 0;
  ASSERT_TRUE(
      victim->cudaMemcpy(&check, victim_buf, 4, MemcpyKind::kDeviceToHost)
          .ok());
  EXPECT_EQ(check, 777u);  // survived
  EXPECT_EQ(manager_.stats().faults_contained, 0u);
}

TEST_F(GuardianTest, CheckingModeFaultsOnlyTheAttacker) {
  GrdManager manager(&gpu_, [] {
    ManagerOptions options;
    options.mode = ptxpatcher::BoundsCheckMode::kChecking;
    return options;
  }());
  LoopbackTransport transport(&manager);
  auto attacker = GrdLib::Connect(&transport, 1ull << 20);
  auto victim = GrdLib::Connect(&transport, 1ull << 20);
  ASSERT_TRUE(attacker.ok() && victim.ok());

  DevicePtr victim_buf = 0;
  ASSERT_TRUE(victim->cudaMalloc(&victim_buf, 64).ok());
  auto module = attacker->cuModuleLoadData(SamplePtx());
  ASSERT_TRUE(module.ok());
  auto fn = attacker->cuModuleGetFunction(*module, "oob_writer");
  ASSERT_TRUE(fn.ok());
  DevicePtr mine = 0;
  ASSERT_TRUE(attacker->cudaMalloc(&mine, 64).ok());
  simcuda::LaunchConfig config;
  const Status s = attacker->cudaLaunchKernel(
      *fn, config,
      {KernelArg::U64(mine), KernelArg::U64(victim_buf - mine),
       KernelArg::U32(666)});
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);  // detected, not wrapped
  EXPECT_EQ(manager.stats().faults_contained, 1u);

  // Attacker is terminated; victim continues unharmed.
  DevicePtr more = 0;
  EXPECT_EQ(attacker->cudaMalloc(&more, 64).code(), StatusCode::kAborted);
  EXPECT_TRUE(victim->cudaMalloc(&more, 64).ok());
}

TEST_F(GuardianTest, NoProtectionModeSkipsSandboxing) {
  GrdManager manager(&gpu_, [] {
    ManagerOptions options;
    options.protection_enabled = false;
    return options;
  }());
  LoopbackTransport transport(&manager);
  auto lib = GrdLib::Connect(&transport, 1ull << 20);
  ASSERT_TRUE(lib.ok());
  auto module = lib->cuModuleLoadData(SamplePtx());
  ASSERT_TRUE(module.ok());
  auto fn = lib->cuModuleGetFunction(*module, "kernel");
  ASSERT_TRUE(fn.ok());
  DevicePtr p = 0;
  ASSERT_TRUE(lib->cudaMalloc(&p, 256).ok());
  simcuda::LaunchConfig config;
  config.block = {4, 1, 1};
  ASSERT_TRUE(lib->cudaLaunchKernel(*fn, config,
                                    {KernelArg::U64(p), KernelArg::U32(1)})
                  .ok());
  EXPECT_EQ(manager.stats().native_launches, 1u);
  EXPECT_EQ(manager.stats().sandboxed_launches, 0u);
}

TEST_F(GuardianTest, StandaloneFastPathIssuesNativeKernels) {
  GrdManager manager(&gpu_, [] {
    ManagerOptions options;
    options.standalone_fast_path = true;
    return options;
  }());
  LoopbackTransport transport(&manager);
  auto solo = GrdLib::Connect(&transport, 1ull << 20);
  ASSERT_TRUE(solo.ok());
  auto module = solo->cuModuleLoadData(SamplePtx());
  auto fn = solo->cuModuleGetFunction(*module, "kernel");
  ASSERT_TRUE(fn.ok());
  DevicePtr p = 0;
  ASSERT_TRUE(solo->cudaMalloc(&p, 256).ok());
  simcuda::LaunchConfig config;
  ASSERT_TRUE(solo->cudaLaunchKernel(*fn, config,
                                     {KernelArg::U64(p), KernelArg::U32(0)})
                  .ok());
  EXPECT_EQ(manager.stats().native_launches, 1u);

  // A second tenant arrives: subsequent launches are sandboxed (§4.2.3).
  auto second = GrdLib::Connect(&transport, 1ull << 20);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(solo->cudaLaunchKernel(*fn, config,
                                     {KernelArg::U64(p), KernelArg::U32(0)})
                  .ok());
  EXPECT_EQ(manager.stats().sandboxed_launches, 1u);
}

TEST_F(GuardianTest, StreamsEventsAndSyncForwarded) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  simcuda::StreamId stream = 0;
  ASSERT_TRUE(lib->cudaStreamCreate(&stream).ok());
  bool capturing = true;
  ASSERT_TRUE(lib->cudaStreamIsCapturing(stream, &capturing).ok());
  EXPECT_FALSE(capturing);
  std::uint64_t capture_id = 7;
  ASSERT_TRUE(lib->cudaStreamGetCaptureInfo(stream, &capture_id).ok());
  EXPECT_EQ(capture_id, 0u);
  simcuda::EventId event = 0;
  ASSERT_TRUE(lib->cudaEventCreateWithFlags(&event, 2).ok());
  ASSERT_TRUE(lib->cudaEventRecord(event, stream).ok());
  ASSERT_TRUE(lib->cudaStreamWaitEvent(stream, event).ok());
  ASSERT_TRUE(lib->cudaEventSynchronize(event).ok());
  ASSERT_TRUE(lib->cudaStreamSynchronize(stream).ok());
  ASSERT_TRUE(lib->cudaDeviceSynchronize().ok());
  ASSERT_TRUE(lib->cudaEventDestroy(event).ok());
  ASSERT_TRUE(lib->cudaStreamDestroy(stream).ok());
  // Lifecycle: stream/event ops on dead handles are rejected.
  EXPECT_EQ(lib->cudaStreamSynchronize(stream).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(lib->cudaEventRecord(event, 0).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GuardianTest, AsyncMemcpyOrderedOnStream) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  DevicePtr p = 0;
  ASSERT_TRUE(lib->cudaMalloc(&p, 64).ok());
  simcuda::StreamId stream = 0;
  ASSERT_TRUE(lib->cudaStreamCreate(&stream).ok());
  const std::uint64_t first = 0x1111, second = 0x2222;
  ASSERT_TRUE(lib->cudaMemcpyH2DAsync(p, &first, 8, stream).ok());
  ASSERT_TRUE(lib->cudaMemcpyH2DAsync(p, &second, 8, stream).ok());
  ASSERT_TRUE(lib->cudaStreamSynchronize(stream).ok());
  std::uint64_t back = 0;
  ASSERT_TRUE(lib->cudaMemcpy(&back, p, 8, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back, second);  // FIFO on the stream
  // Bounds are checked at submission, async or not.
  EXPECT_EQ(lib->cudaMemcpyH2DAsync(1ull << 40, &first, 8, stream).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(GuardianTest, ExportTablesServedThroughManager) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto table = lib->cudaGetExportTable(simcuda::ExportTableId::kGraphsInternal);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_FALSE((*table)->entries.empty());
  // Cached on second call (same pointer).
  auto again = lib->cudaGetExportTable(simcuda::ExportTableId::kGraphsInternal);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*table, *again);
}

TEST_F(GuardianTest, CublasRunsUnmodifiedOnGuardian) {
  // Transparency: the same simulated closed-source library that runs on
  // NativeCuda runs on grdLib with no code changes (paper's headline claim).
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto blas = simlibs::Cublas::Create(*lib);
  ASSERT_TRUE(blas.ok()) << blas.status();
  const double xs[3] = {1.0, -5.0, 2.0};
  DevicePtr x = 0;
  ASSERT_TRUE(lib->cudaMalloc(&x, sizeof(xs)).ok());
  ASSERT_TRUE(lib->cudaMemcpyH2D(x, xs, sizeof(xs)).ok());
  auto idx = blas->Idamax(x, 3);
  ASSERT_TRUE(idx.ok()) << idx.status();
  EXPECT_EQ(*idx, 2u);
}

TEST_F(GuardianTest, DisconnectReleasesPartition) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  EXPECT_EQ(manager_.active_clients(), 1u);
  ASSERT_TRUE(lib->Disconnect().ok());
  EXPECT_EQ(manager_.active_clients(), 0u);
  // The partition range is reusable.
  auto next = Connect();
  ASSERT_TRUE(next.ok());
}

// A partition is zeroed when it is handed out: a tenant registering on a
// range a departed tenant wrote, or growing into one, reads zeros.
TEST_F(GuardianTest, NewPartitionReadsNoBytesOfADepartedTenant) {
  const std::vector<std::uint8_t> residue(4096, 0x5A);
  const std::vector<std::uint8_t> zeros(4096, 0);
  std::vector<std::uint8_t> back(4096);

  auto a = Connect(1 << 20);
  ASSERT_TRUE(a.ok());
  DevicePtr pa = 0;
  ASSERT_TRUE(a->cudaMalloc(&pa, residue.size()).ok());
  ASSERT_TRUE(a->cudaMemcpyH2D(pa, residue.data(), residue.size()).ok());
  const std::uint64_t base = a->partition_base();
  ASSERT_TRUE(a->Disconnect().ok());

  auto b = Connect(1 << 20);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->partition_base(), base) << "B must inherit A's range";
  DevicePtr pb = 0;
  ASSERT_TRUE(b->cudaMalloc(&pb, back.size()).ok());
  ASSERT_EQ(pb, pa);
  ASSERT_TRUE(
      b->cudaMemcpy(back.data(), pb, back.size(), MemcpyKind::kDeviceToHost)
          .ok());
  EXPECT_EQ(back, zeros) << "B read A's bytes at registration";

  // C takes the range right above B (F first fills the free range below
  // B, which first fit would otherwise hand C), dirties it and leaves; B
  // grows into it.
  auto f = Connect(512 << 10);
  auto c = Connect(512 << 10);
  ASSERT_TRUE(f.ok() && c.ok());
  ASSERT_EQ(c->partition_base(), base + b->partition_size());
  DevicePtr pc = 0;
  ASSERT_TRUE(c->cudaMalloc(&pc, residue.size()).ok());
  ASSERT_TRUE(c->cudaMemcpyH2D(pc, residue.data(), residue.size()).ok());
  ASSERT_TRUE(c->Disconnect().ok());
  ASSERT_TRUE(b->GrowPartition().ok());
  ASSERT_TRUE(
      b->cudaMemcpy(back.data(), pc, back.size(), MemcpyKind::kDeviceToHost)
          .ok());
  EXPECT_EQ(back, zeros) << "B read C's bytes after growing";
}

TEST_F(GuardianTest, UnknownClientRejected) {
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kMalloc, 999);
  request.Put<std::uint64_t>(64);
  const auto response = manager_.HandleRequest(std::move(request).Take());
  auto decoded = protocol::DecodeResponse(response);
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);
}

TEST_F(GuardianTest, MalformedRequestRejected) {
  const auto response = manager_.HandleRequest({0x01});
  auto decoded = protocol::DecodeResponse(response);
  EXPECT_FALSE(decoded.ok());
}

TEST_F(GuardianTest, SharingLayerFootprintIsOneContext) {
  // §2.2: Guardian creates one context total (176 MB) regardless of client
  // count, vs MPS's context per client.
  auto a = Connect();
  auto b = Connect();
  auto c = Connect();
  auto d = Connect();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_EQ(manager_.SharingLayerFootprint(), 176ull << 20);
}

TEST(GuardianChannelTest, FullStackOverShmRings) {
  // grdLib -> shared-memory ring -> ManagerServer thread -> grdManager.
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  ipc::HeapChannel heap_a, heap_b;
  ManagerServer server(&manager);
  server.AddChannel(&heap_a.channel());
  server.AddChannel(&heap_b.channel());
  std::atomic<bool> stop{false};
  std::thread pump([&] { server.Run(stop); });

  {
    ChannelTransport transport_a(&heap_a.channel());
    ChannelTransport transport_b(&heap_b.channel());
    auto alice = GrdLib::Connect(&transport_a, 1ull << 20);
    auto bob = GrdLib::Connect(&transport_b, 1ull << 20);
    ASSERT_TRUE(alice.ok()) << alice.status();
    ASSERT_TRUE(bob.ok()) << bob.status();

    DevicePtr pa = 0, pb = 0;
    ASSERT_TRUE(alice->cudaMalloc(&pa, 1024).ok());
    ASSERT_TRUE(bob->cudaMalloc(&pb, 1024).ok());
    EXPECT_NE(pa, pb);

    const std::uint64_t payload = 0xABCDEF;
    ASSERT_TRUE(alice->cudaMemcpyH2D(pa, &payload, 8).ok());
    std::uint64_t back = 0;
    ASSERT_TRUE(
        alice->cudaMemcpy(&back, pa, 8, MemcpyKind::kDeviceToHost).ok());
    EXPECT_EQ(back, 0xABCDEFull);

    // Cross-tenant transfer rejected through the real IPC path too.
    EXPECT_EQ(bob->cudaMemcpyH2D(pa, &payload, 8).code(),
              StatusCode::kPermissionDenied);
  }

  stop.store(true);
  pump.join();
}

TEST(PartitionAllocatorTest, PowerOfTwoSizeAlignedPartitions) {
  PartitionAllocator alloc(1ull << 30);
  auto p1 = alloc.CreatePartition(10ull << 20);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->size, 16ull << 20);
  EXPECT_EQ(p1->base % p1->size, 0u);
  auto p2 = alloc.CreatePartition(1ull << 20);
  ASSERT_TRUE(p2.ok());
  // Disjoint.
  EXPECT_TRUE(p1->end() <= p2->base || p2->end() <= p1->base);
}

TEST(PartitionAllocatorTest, OversizedRequestsFailCleanly) {
  // Tenant-chosen sizes beyond the device, up to ones with no uint64
  // power of two above them, fail as OutOfMemory without rounding up.
  PartitionAllocator alloc(1ull << 30);
  const std::uint64_t kOversized[] = {(1ull << 30) + 1, (1ull << 63) + 1,
                                      ~std::uint64_t{0}};
  for (const std::uint64_t bytes : kOversized) {
    auto p = alloc.CreatePartition(bytes);
    ASSERT_FALSE(p.ok()) << bytes;
    EXPECT_EQ(p.status().code(), StatusCode::kOutOfMemory) << bytes;
  }
}

TEST(PartitionAllocatorTest, SuballocationsStayInside) {
  PartitionAllocator alloc(1ull << 30);
  auto p = alloc.CreatePartition(1ull << 20);
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 100; ++i) {
    auto addr = alloc.AllocateIn(p->base, 4096);
    ASSERT_TRUE(addr.ok());
    EXPECT_TRUE(p->Contains(*addr, 4096));
  }
}

TEST(PartitionAllocatorTest, ReleaseThenReuse) {
  // headroom 0: the paper's exact-size alignment, tight packing.
  PartitionAllocator alloc(64ull << 20, /*growth_headroom=*/0);
  auto p1 = alloc.CreatePartition(16ull << 20);
  ASSERT_TRUE(p1.ok());
  auto p2 = alloc.CreatePartition(16ull << 20);
  ASSERT_TRUE(p2.ok());
  auto p3 = alloc.CreatePartition(32ull << 20);
  EXPECT_FALSE(p3.ok());  // doesn't fit alongside (alignment + guard)
  ASSERT_TRUE(alloc.ReleasePartition(p1->base).ok());
  ASSERT_TRUE(alloc.ReleasePartition(p2->base).ok());
  auto p4 = alloc.CreatePartition(32ull << 20);
  EXPECT_TRUE(p4.ok()) << p4.status();
}

TEST(PartitionAllocatorTest, FreeInValidatesOwnership) {
  PartitionAllocator alloc(1ull << 30);
  auto p1 = alloc.CreatePartition(1ull << 20);
  auto p2 = alloc.CreatePartition(1ull << 20);
  ASSERT_TRUE(p1.ok() && p2.ok());
  auto a = alloc.AllocateIn(p1->base, 256);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(alloc.FreeIn(p2->base, *a).ok());
  EXPECT_TRUE(alloc.FreeIn(p1->base, *a).ok());
}

}  // namespace
}  // namespace grd::guardian
