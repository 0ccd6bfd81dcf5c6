// Preemption engine coverage: TReM-style mid-kernel revocation at safe
// points (priority classes, checkpoint/resume without block replay),
// anti-starvation aging for full-device kernels, the demoted
// instruction-budget kill (revoke-and-requeue once before failing), and the
// engine's policy/telemetry primitives. Wall-clock ordering is made
// deterministic by dilating modeled device time into executor sleeps.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/preemption.hpp"
#include "guardian/transport.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"
#include "simgpu/device_spec.hpp"

namespace grd::guardian {
namespace {

using protocol::PriorityClass;
using ptxexec::KernelArg;
using simcuda::DevicePtr;
using simcuda::MemcpyKind;

std::string SamplePtx() { return ptx::Print(ptx::MakeSampleModule()); }

// Kernel with a per-block infinite loop gated on the block index: blocks
// 0..2 store their id and exit, block 3 spins forever. Exercises the
// budget-requeue path with real completed blocks to preserve.
constexpr char kSpinTailPtx[] = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry spintail(
    .param .u64 dst
)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    .reg .pred %p1;
    mov.u32 %r1, %ctaid.x;
    setp.lt.u32 %p1, %r1, 3;
    @%p1 bra STORE;
LOOP:
    add.s32 %r2, %r2, 1;
    bra LOOP;
STORE:
    ld.param.u64 %rd1, [dst];
    cvta.to.global.u64 %rd2, %rd1;
    mul.wide.u32 %rd3, %r1, 4;
    add.s64 %rd2, %rd2, %rd3;
    st.global.u32 [%rd2], %r1;
    ret;
}
)";

class PreemptionTest : public ::testing::Test {
 protected:
  void Init(ManagerOptions options) {
    gpu_ = std::make_unique<simcuda::Gpu>(simgpu::QuadroRtxA4000());
    manager_ = std::make_unique<GrdManager>(gpu_.get(), options);
    transport_ = std::make_unique<LoopbackTransport>(manager_.get());
  }

  Result<GrdLib> Connect(std::uint64_t bytes = 16ull << 20) {
    return GrdLib::Connect(transport_.get(), bytes);
  }

  Result<simcuda::FunctionId> LoadKernel(GrdLib& lib,
                                         const std::string& kernel) {
    GRD_ASSIGN_OR_RETURN(simcuda::ModuleId module,
                         lib.cuModuleLoadData(SamplePtx()));
    return lib.cuModuleGetFunction(module, kernel);
  }

  Status LaunchCopy(GrdLib& lib, simcuda::FunctionId fn, DevicePtr src,
                    DevicePtr dst, std::uint32_t n, std::uint32_t block,
                    simcuda::StreamId stream) {
    simcuda::LaunchConfig config;
    config.block = {block, 1, 1};
    config.grid = {(n + block - 1) / block, 1, 1};
    config.stream = stream;
    return lib.cudaLaunchKernel(fn, config,
                                {KernelArg::U64(src), KernelArg::U64(dst),
                                 KernelArg::U32(n)});
  }

  // Spins until at least one kernel is resident on the simulated device.
  bool WaitForResidentKernel() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (manager_->scheduler().resident_kernels() == 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

  std::unique_ptr<simcuda::Gpu> gpu_;
  std::unique_ptr<GrdManager> manager_;
  std::unique_ptr<LoopbackTransport> transport_;
};

// ---- engine policy units --------------------------------------------------

TEST(PreemptionEngineTest, AgingBoostsEffectiveClassTowardRealtime) {
  PreemptionConfig config;
  config.aging_quantum_ns = 1'000;
  const PreemptionEngine engine(config, nullptr);
  EXPECT_EQ(engine.EffectiveClass(PriorityClass::kBatch, 0), 2);
  EXPECT_EQ(engine.EffectiveClass(PriorityClass::kBatch, 999), 2);
  EXPECT_EQ(engine.EffectiveClass(PriorityClass::kBatch, 1'000), 1);
  EXPECT_EQ(engine.EffectiveClass(PriorityClass::kBatch, 2'000), 0);
  // Clamped at the most urgent class, never past it.
  EXPECT_EQ(engine.EffectiveClass(PriorityClass::kBatch, 1'000'000), 0);
  EXPECT_EQ(engine.EffectiveClass(PriorityClass::kRealtime, 1'000'000), 0);
}

TEST(PreemptionEngineTest, AgingDisabledKeepsBaseClass) {
  PreemptionConfig config;
  config.aging_quantum_ns = 0;
  const PreemptionEngine engine(config, nullptr);
  EXPECT_EQ(engine.EffectiveClass(PriorityClass::kBatch, ~0ull), 2);
}

TEST(PreemptionEngineTest, OnlyStrictlyMoreUrgentBaseClassesPreempt) {
  const PreemptionEngine engine(PreemptionConfig{}, nullptr);
  // Victim side is the class at which the run was ADMITTED (aging
  // included): a promoted kernel keeps that protection while running.
  EXPECT_TRUE(engine.MayPreempt(PriorityClass::kRealtime, /*victim=*/1));
  EXPECT_TRUE(engine.MayPreempt(PriorityClass::kRealtime, /*victim=*/2));
  EXPECT_TRUE(engine.MayPreempt(PriorityClass::kNormal, /*victim=*/2));
  EXPECT_FALSE(engine.MayPreempt(PriorityClass::kNormal, /*victim=*/1));
  EXPECT_FALSE(engine.MayPreempt(PriorityClass::kBatch, /*victim=*/2));
  EXPECT_FALSE(engine.MayPreempt(PriorityClass::kRealtime, /*victim=*/0));
  // A batch kernel admitted at an aged effective class 0 is shielded even
  // from realtime waiters; an aged *waiter* gains no revocation rights.
  EXPECT_FALSE(engine.MayPreempt(PriorityClass::kBatch, /*victim=*/0));
  PreemptionConfig off;
  off.enabled = false;
  const PreemptionEngine disabled(off, nullptr);
  EXPECT_FALSE(disabled.MayPreempt(PriorityClass::kRealtime, /*victim=*/2));
}

TEST(WaitHistogramTest, RecordsAndEstimatesPercentiles) {
  WaitHistogram hist;
  EXPECT_EQ(hist.PercentileNs(0.99), 0u);
  for (int i = 0; i < 90; ++i) hist.Record(1'000);          // 1 µs
  for (int i = 0; i < 10; ++i) hist.Record(1'000'000'000);  // 1 s
  EXPECT_EQ(hist.count.load(), 100u);
  EXPECT_LE(hist.PercentileNs(0.5), 4'000u);
  EXPECT_GE(hist.PercentileNs(0.99), 500'000'000u);
  EXPECT_EQ(hist.max_ns.load(), 1'000'000'000u);
}

// ---- revocation end to end ------------------------------------------------

TEST_F(PreemptionTest, RealtimeKernelPreemptsFullDeviceBatchKernel) {
  ManagerOptions options;
  options.scheduler_executors = 4;
  options.device_time_ns_per_cycle = 200.0;
  options.aging_quantum_ns = 0;  // isolate preemption from aging
  Init(options);

  auto batch = Connect();
  auto rt = Connect();
  ASSERT_TRUE(batch.ok() && rt.ok());
  ASSERT_TRUE(batch->SetPriority(PriorityClass::kBatch).ok());
  ASSERT_TRUE(rt->SetPriority(PriorityClass::kRealtime).ok());
  auto batch_fn = LoadKernel(*batch, "copyk");
  auto rt_fn = LoadKernel(*rt, "copyk");
  ASSERT_TRUE(batch_fn.ok() && rt_fn.ok());

  // Full-device batch kernel: 48 blocks x 1024 threads occupy every SM of
  // the A4000 (1536 threads/SM -> one such block per SM).
  constexpr std::uint32_t kBatchElems = 48 * 1024;
  constexpr std::uint32_t kRtElems = 256;
  DevicePtr bsrc = 0, bdst = 0, rsrc = 0, rdst = 0;
  ASSERT_TRUE(batch->cudaMalloc(&bsrc, kBatchElems * 4).ok());
  ASSERT_TRUE(batch->cudaMalloc(&bdst, kBatchElems * 4).ok());
  ASSERT_TRUE(rt->cudaMalloc(&rsrc, kRtElems * 4).ok());
  ASSERT_TRUE(rt->cudaMalloc(&rdst, kRtElems * 4).ok());
  std::vector<std::uint32_t> bdata(kBatchElems);
  for (std::uint32_t i = 0; i < kBatchElems; ++i) bdata[i] = i * 3 + 1;
  ASSERT_TRUE(batch->cudaMemcpyH2D(bsrc, bdata.data(), kBatchElems * 4).ok());
  std::vector<std::uint32_t> rdata(kRtElems, 0xFEED);
  ASSERT_TRUE(rt->cudaMemcpyH2D(rsrc, rdata.data(), kRtElems * 4).ok());

  simcuda::StreamId bstream = 0, rstream = 0;
  ASSERT_TRUE(batch->cudaStreamCreate(&bstream).ok());
  ASSERT_TRUE(rt->cudaStreamCreate(&rstream).ok());

  ASSERT_TRUE(
      LaunchCopy(*batch, *batch_fn, bsrc, bdst, kBatchElems, 1024, bstream)
          .ok());
  ASSERT_TRUE(WaitForResidentKernel());

  // The realtime kernel cannot co-reside (the device is full): the batch
  // kernel must be revoked at its next safe point for this to complete.
  ASSERT_TRUE(
      LaunchCopy(*rt, *rt_fn, rsrc, rdst, kRtElems, 256, rstream).ok());
  ASSERT_TRUE(rt->cudaStreamSynchronize(rstream).ok());
  EXPECT_GE(manager_->stats().preemptions, 1u);
  EXPECT_GT(manager_->stats().checkpoint_bytes_saved, 0u);
  EXPECT_GE(manager_->stats().wait_hist[0].count.load(), 1u);

  // The batch kernel resumes from its checkpoint and still produces the
  // right answer; no completed block is replayed.
  ASSERT_TRUE(batch->cudaStreamSynchronize(bstream).ok());
  EXPECT_GE(manager_->stats().preemption_resumes, 1u);
  EXPECT_EQ(manager_->stats().kernel_blocks_executed,
            kBatchElems / 1024 + kRtElems / 256);

  std::vector<std::uint32_t> out(kBatchElems);
  ASSERT_TRUE(
      batch->cudaMemcpy(out.data(), bdst, kBatchElems * 4,
                        MemcpyKind::kDeviceToHost)
          .ok());
  EXPECT_EQ(out, bdata);
  std::vector<std::uint32_t> rout(kRtElems);
  ASSERT_TRUE(rt->cudaMemcpy(rout.data(), rdst, kRtElems * 4,
                             MemcpyKind::kDeviceToHost)
                  .ok());
  EXPECT_EQ(rout, rdata);
}

TEST_F(PreemptionTest, DisabledEngineNeverPreempts) {
  ManagerOptions options;
  options.scheduler_executors = 4;
  options.device_time_ns_per_cycle = 200.0;
  options.preemption_enabled = false;
  options.aging_quantum_ns = 0;
  Init(options);

  auto batch = Connect();
  auto rt = Connect();
  ASSERT_TRUE(batch.ok() && rt.ok());
  ASSERT_TRUE(batch->SetPriority(PriorityClass::kBatch).ok());
  ASSERT_TRUE(rt->SetPriority(PriorityClass::kRealtime).ok());
  auto batch_fn = LoadKernel(*batch, "copyk");
  auto rt_fn = LoadKernel(*rt, "copyk");
  ASSERT_TRUE(batch_fn.ok() && rt_fn.ok());

  constexpr std::uint32_t kBatchElems = 48 * 1024;
  DevicePtr bsrc = 0, bdst = 0, rsrc = 0, rdst = 0;
  ASSERT_TRUE(batch->cudaMalloc(&bsrc, kBatchElems * 4).ok());
  ASSERT_TRUE(batch->cudaMalloc(&bdst, kBatchElems * 4).ok());
  ASSERT_TRUE(rt->cudaMalloc(&rsrc, 256 * 4).ok());
  ASSERT_TRUE(rt->cudaMalloc(&rdst, 256 * 4).ok());

  simcuda::StreamId bstream = 0, rstream = 0;
  ASSERT_TRUE(batch->cudaStreamCreate(&bstream).ok());
  ASSERT_TRUE(rt->cudaStreamCreate(&rstream).ok());
  ASSERT_TRUE(
      LaunchCopy(*batch, *batch_fn, bsrc, bdst, kBatchElems, 1024, bstream)
          .ok());
  ASSERT_TRUE(WaitForResidentKernel());
  ASSERT_TRUE(LaunchCopy(*rt, *rt_fn, rsrc, rdst, 256, 256, rstream).ok());
  // The realtime kernel simply waits for the device to drain.
  ASSERT_TRUE(rt->cudaStreamSynchronize(rstream).ok());
  ASSERT_TRUE(batch->cudaStreamSynchronize(bstream).ok());
  EXPECT_EQ(manager_->stats().preemptions, 0u);
  EXPECT_EQ(manager_->stats().preemption_resumes, 0u);
}

// ---- anti-starvation aging ------------------------------------------------

TEST_F(PreemptionTest, AgingPromotesStarvedFullDeviceBatchKernel) {
  ManagerOptions options;
  options.scheduler_executors = 4;
  options.device_time_ns_per_cycle = 2'000.0;
  options.aging_quantum_ns = 5'000'000;  // one class per 5 ms waited
  Init(options);

  auto worker = Connect();  // kNormal, keeps the device busy
  auto batch = Connect(32ull << 20);
  ASSERT_TRUE(worker.ok() && batch.ok());
  ASSERT_TRUE(batch->SetPriority(PriorityClass::kBatch).ok());
  auto worker_fn = LoadKernel(*worker, "copyk");
  auto batch_fn = LoadKernel(*batch, "copyk");
  ASSERT_TRUE(worker_fn.ok() && batch_fn.ok());

  constexpr std::uint32_t kWorkerElems = 8 * 256;  // 8 blocks, ~10 ms each
  constexpr std::uint32_t kBatchElems = 48 * 1024;  // full device
  constexpr int kWorkerKernels = 12;
  DevicePtr wsrc = 0, wdst = 0, bsrc = 0, bdst = 0;
  ASSERT_TRUE(worker->cudaMalloc(&wsrc, kWorkerElems * 4).ok());
  ASSERT_TRUE(worker->cudaMalloc(&wdst, kWorkerElems * 4).ok());
  ASSERT_TRUE(batch->cudaMalloc(&bsrc, kBatchElems * 4).ok());
  ASSERT_TRUE(batch->cudaMalloc(&bdst, kBatchElems * 4).ok());

  simcuda::StreamId wstream = 0, bstream = 0;
  ASSERT_TRUE(worker->cudaStreamCreate(&wstream).ok());
  ASSERT_TRUE(batch->cudaStreamCreate(&bstream).ok());

  // A dozen back-to-back normal-priority kernels: without aging the
  // full-device batch kernel would only fit after ALL of them drained.
  for (int i = 0; i < kWorkerKernels; ++i)
    ASSERT_TRUE(
        LaunchCopy(*worker, *worker_fn, wsrc, wdst, kWorkerElems, 256,
                   wstream)
            .ok());
  ASSERT_TRUE(WaitForResidentKernel());
  ASSERT_TRUE(
      LaunchCopy(*batch, *batch_fn, bsrc, bdst, kBatchElems, 1024, bstream)
          .ok());

  ASSERT_TRUE(batch->cudaStreamSynchronize(bstream).ok());
  // At the moment the batch kernel finished, how many of the normal
  // kernels had executed? Aging must have promoted the batch kernel ahead
  // of the tail of the worker queue.
  const std::uint64_t blocks_done = manager_->stats().kernel_blocks_executed;
  const std::uint64_t worker_blocks_done = blocks_done - kBatchElems / 1024;
  EXPECT_LT(worker_blocks_done,
            static_cast<std::uint64_t>(kWorkerKernels) * 8)
      << "batch kernel only ran after the whole worker queue drained";
  ASSERT_TRUE(worker->cudaStreamSynchronize(wstream).ok());
  EXPECT_EQ(manager_->stats().kernel_blocks_executed,
            static_cast<std::uint64_t>(kWorkerKernels) * 8 +
                kBatchElems / 1024);
}

// ---- instruction budget as last resort ------------------------------------

TEST_F(PreemptionTest, BudgetTripRequeuesOnceKeepingCompletedBlocks) {
  ManagerOptions options;
  options.max_kernel_instructions = 10'000;
  Init(options);
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto module = lib->cuModuleLoadData(kSpinTailPtx);
  ASSERT_TRUE(module.ok()) << module.status();
  auto fn = lib->cuModuleGetFunction(*module, "spintail");
  ASSERT_TRUE(fn.ok());
  DevicePtr dst = 0;
  ASSERT_TRUE(lib->cudaMalloc(&dst, 64).ok());

  simcuda::LaunchConfig config;
  config.grid = {4, 1, 1};  // blocks 0..2 store and exit, block 3 spins
  const Status s =
      lib->cudaLaunchKernel(*fn, config, {KernelArg::U64(dst)});
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  // Exactly one revoke-and-requeue before the failure became final, and the
  // three completed blocks were not replayed on the retry. A budget trip is
  // NOT a priority preemption: those counters stay zero.
  EXPECT_EQ(manager_->stats().budget_requeues, 1u);
  EXPECT_EQ(manager_->stats().kernel_blocks_executed, 3u);
  EXPECT_EQ(manager_->stats().faults_contained, 1u);
  EXPECT_EQ(manager_->stats().preemptions, 0u);
  EXPECT_EQ(manager_->stats().preemption_resumes, 0u);
  EXPECT_EQ(manager_->stats().checkpoint_bytes_saved, 0u);
  DevicePtr p = 0;
  EXPECT_EQ(lib->cudaMalloc(&p, 64).code(), StatusCode::kAborted);
}

TEST_F(PreemptionTest, BudgetTripKillsImmediatelyWhenEngineDisabled) {
  ManagerOptions options;
  options.max_kernel_instructions = 10'000;
  options.preemption_enabled = false;
  Init(options);
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto module = lib->cuModuleLoadData(kSpinTailPtx);
  ASSERT_TRUE(module.ok()) << module.status();
  auto fn = lib->cuModuleGetFunction(*module, "spintail");
  ASSERT_TRUE(fn.ok());
  DevicePtr dst = 0;
  ASSERT_TRUE(lib->cudaMalloc(&dst, 64).ok());

  simcuda::LaunchConfig config;
  config.grid = {4, 1, 1};
  const Status s =
      lib->cudaLaunchKernel(*fn, config, {KernelArg::U64(dst)});
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(manager_->stats().budget_requeues, 0u);
  EXPECT_EQ(manager_->stats().faults_contained, 1u);
}

// ---- priority plumbing ----------------------------------------------------

TEST_F(PreemptionTest, NewStreamsInheritSessionPriority) {
  Init(ManagerOptions{});
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  ASSERT_TRUE(lib->SetPriority(PriorityClass::kRealtime).ok());
  simcuda::StreamId stream = 0;
  ASSERT_TRUE(lib->cudaStreamCreate(&stream).ok());
  auto fn = LoadKernel(*lib, "copyk");
  ASSERT_TRUE(fn.ok());
  DevicePtr src = 0, dst = 0;
  ASSERT_TRUE(lib->cudaMalloc(&src, 256 * 4).ok());
  ASSERT_TRUE(lib->cudaMalloc(&dst, 256 * 4).ok());
  ASSERT_TRUE(LaunchCopy(*lib, *fn, src, dst, 256, 256, stream).ok());
  ASSERT_TRUE(lib->cudaStreamSynchronize(stream).ok());
  // The launch was recorded against the realtime wait histogram: the tag
  // reached the scheduler.
  EXPECT_EQ(manager_->stats().wait_hist[0].count.load(), 1u);
  EXPECT_EQ(manager_->stats().wait_hist[1].count.load(), 0u);
}

TEST_F(PreemptionTest, StreamScopeOverridesSessionClass) {
  Init(ManagerOptions{});
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  simcuda::StreamId stream = 0;
  ASSERT_TRUE(lib->cudaStreamCreate(&stream).ok());  // kNormal at creation
  ASSERT_TRUE(
      lib->SetStreamPriority(stream, PriorityClass::kBatch).ok());
  auto fn = LoadKernel(*lib, "copyk");
  ASSERT_TRUE(fn.ok());
  DevicePtr src = 0, dst = 0;
  ASSERT_TRUE(lib->cudaMalloc(&src, 256 * 4).ok());
  ASSERT_TRUE(lib->cudaMalloc(&dst, 256 * 4).ok());
  ASSERT_TRUE(LaunchCopy(*lib, *fn, src, dst, 256, 256, stream).ok());
  ASSERT_TRUE(lib->cudaStreamSynchronize(stream).ok());
  EXPECT_EQ(manager_->stats().wait_hist[2].count.load(), 1u);
}

}  // namespace
}  // namespace grd::guardian
