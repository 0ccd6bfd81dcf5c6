// Scenario: dynamic multi-tenancy — the operational features around the
// core protection mechanism.
//
//  1. Standalone fast path (§4.2.3): a lone tenant runs native, unpatched
//     kernels; the moment a second tenant registers, launches switch to the
//     sandboxed versions.
//  2. Progressive partition growth (§4.4 future work): a tenant outgrows
//     its partition and doubles it in place; the fencing mask follows.
//  3. Kernel revocation (TReM [53]): an endless kernel is revoked-and-
//     requeued once, then terminated — and only its owner is failed.
//  4. Priority preemption: a kRealtime tenant's kernel revokes a kBatch
//     tenant's full-device kernel at a safe point instead of queueing
//     behind it; the batch kernel resumes from its checkpoint.
//
// Runs with tracing enabled and exports every span — client call, dispatch,
// queue wait, preemption and kernel execution — to ./trace.json, loadable
// in Perfetto / chrome://tracing.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "obs/trace.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"
#include "simgpu/device_spec.hpp"

using namespace grd;
using guardian::GrdLib;
using guardian::protocol::PriorityClass;
using ptxexec::KernelArg;
using simcuda::DevicePtr;

int main() {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::ManagerOptions options;
  options.standalone_fast_path = true;
  options.max_kernel_instructions = 100'000;
  options.scheduler_executors = 4;
  // Dilate modeled device time so the batch kernel of section 4 is long
  // enough to be preempted mid-flight.
  options.device_time_ns_per_cycle = 200.0;
  options.tracing_enabled = true;
  guardian::GrdManager manager(&gpu, options);
  guardian::LoopbackTransport transport(&manager);

  // --- 1. standalone fast path ---
  std::printf("1. standalone fast path\n");
  auto solo = GrdLib::Connect(&transport, 1 << 20);
  if (!solo.ok()) return 1;
  auto module = solo->cuModuleLoadData(ptx::Print(ptx::MakeSampleModule()));
  auto kernel = solo->cuModuleGetFunction(*module, "kernel");
  DevicePtr buf = 0;
  (void)solo->cudaMalloc(&buf, 4096);
  simcuda::LaunchConfig config;
  config.block = {8, 1, 1};
  (void)solo->cudaLaunchKernel(*kernel, config,
                               {KernelArg::U64(buf), KernelArg::U32(0)});
  std::printf("   1 tenant : native launches = %llu, sandboxed = %llu\n",
              (unsigned long long)manager.stats().native_launches,
              (unsigned long long)manager.stats().sandboxed_launches);

  auto second = GrdLib::Connect(&transport, 1 << 20);
  if (!second.ok()) return 1;
  (void)solo->cudaLaunchKernel(*kernel, config,
                               {KernelArg::U64(buf), KernelArg::U32(0)});
  std::printf("   2 tenants: native launches = %llu, sandboxed = %llu "
              "(protection engaged automatically)\n\n",
              (unsigned long long)manager.stats().native_launches,
              (unsigned long long)manager.stats().sandboxed_launches);

  // --- 2. partition growth ---
  std::printf("2. progressive partition growth\n");
  std::printf("   before: %s partition\n",
              HumanBytes(solo->partition_size()).c_str());
  DevicePtr big = 0;
  const Status oom = solo->cudaMalloc(&big, 900 << 10);
  const Status oom2 = solo->cudaMalloc(&big, 900 << 10);
  std::printf("   two 900 KB allocations: %s then %s\n",
              oom.ToString().c_str(), oom2.ToString().c_str());
  if (solo->GrowPartition().ok()) {
    std::printf("   grown to %s; retrying: %s\n\n",
                HumanBytes(solo->partition_size()).c_str(),
                solo->cudaMalloc(&big, 900 << 10).ToString().c_str());
  }

  // --- 3. revocation ---
  std::printf("3. endless-kernel revocation\n");
  auto spin_module = second->cuModuleLoadData(R"(
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
  auto spin = second->cuModuleGetFunction(*spin_module, "spin");
  const Status revoked =
      second->cudaLaunchKernel(*spin, simcuda::LaunchConfig{}, {});
  std::printf("   spinning tenant: %s\n", revoked.ToString().c_str());
  std::printf("   (budget kill is a last resort: %llu revoke-and-requeue "
              "before the failure)\n",
              (unsigned long long)manager.stats().budget_requeues);
  DevicePtr probe = 0;
  std::printf("   spinner next call: %s\n",
              second->cudaMalloc(&probe, 64).ToString().c_str());
  std::printf("   other tenant    : %s (unaffected)\n\n",
              solo->cudaMalloc(&probe, 64).ToString().c_str());

  // --- 4. priority preemption ---
  std::printf("4. realtime tenant preempts a batch tenant's long kernel\n");
  auto batch = GrdLib::Connect(&transport, 1 << 20);
  auto realtime = GrdLib::Connect(&transport, 1 << 20);
  if (!batch.ok() || !realtime.ok()) return 1;
  (void)batch->SetPriority(PriorityClass::kBatch);
  (void)realtime->SetPriority(PriorityClass::kRealtime);

  const std::string copy_ptx = ptx::Print(ptx::MakeSampleModule());
  auto batch_fn = batch->cuModuleGetFunction(
      *batch->cuModuleLoadData(copy_ptx), "copyk");
  auto rt_fn = realtime->cuModuleGetFunction(
      *realtime->cuModuleLoadData(copy_ptx), "copyk");

  constexpr std::uint32_t kBatchElems = 48 * 1024;  // 48 blocks: every SM
  constexpr std::uint32_t kRtElems = 256;
  DevicePtr bsrc = 0, bdst = 0, rsrc = 0, rdst = 0;
  (void)batch->cudaMalloc(&bsrc, kBatchElems * 4);
  (void)batch->cudaMalloc(&bdst, kBatchElems * 4);
  (void)realtime->cudaMalloc(&rsrc, kRtElems * 4);
  (void)realtime->cudaMalloc(&rdst, kRtElems * 4);
  std::vector<std::uint32_t> payload(kBatchElems, 0xBA7C4);
  (void)batch->cudaMemcpyH2D(bsrc, payload.data(), kBatchElems * 4);

  simcuda::StreamId bstream = 0, rstream = 0;
  (void)batch->cudaStreamCreate(&bstream);
  (void)realtime->cudaStreamCreate(&rstream);

  simcuda::LaunchConfig bconfig;
  bconfig.block = {1024, 1, 1};
  bconfig.grid = {kBatchElems / 1024, 1, 1};
  bconfig.stream = bstream;
  const Status batch_launch = batch->cudaLaunchKernel(
      *batch_fn, bconfig,
      {KernelArg::U64(bsrc), KernelArg::U64(bdst),
       KernelArg::U32(kBatchElems)});
  if (!batch_launch.ok()) {
    std::printf("   batch launch failed: %s\n",
                batch_launch.ToString().c_str());
    return 1;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (manager.scheduler().resident_kernels() == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::printf("   batch kernel never became resident\n");
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  simcuda::LaunchConfig rconfig;
  rconfig.block = {256, 1, 1};
  rconfig.grid = {1, 1, 1};
  rconfig.stream = rstream;
  const auto rt_begin = std::chrono::steady_clock::now();
  (void)realtime->cudaLaunchKernel(*rt_fn, rconfig,
                                   {KernelArg::U64(rsrc),
                                    KernelArg::U64(rdst),
                                    KernelArg::U32(kRtElems)});
  (void)realtime->cudaStreamSynchronize(rstream);
  const double rt_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - rt_begin)
                           .count();
  (void)batch->cudaStreamSynchronize(bstream);
  std::printf("   realtime kernel finished in %.2f ms while the full-device "
              "batch kernel was mid-flight\n", rt_ms);
  std::printf("   preemptions=%llu resumes=%llu checkpoint_bytes=%llu "
              "(batch kernel resumed, no blocks replayed)\n",
              (unsigned long long)manager.stats().preemptions,
              (unsigned long long)manager.stats().preemption_resumes,
              (unsigned long long)manager.stats().checkpoint_bytes_saved);

  std::printf("\n5. structured stats export (ManagerStats::ToJson)\n");
  std::printf("MANAGER_STATS %s\n", manager.stats().ToJson().c_str());

  std::printf("\n6. trace export (Chrome trace-event JSON)\n");
  const Status exported = obs::TraceExporter::WriteFile("trace.json");
  if (!exported.ok()) {
    std::printf("   trace export failed: %s\n", exported.ToString().c_str());
    return 1;
  }
  std::printf("   wrote trace.json — open in Perfetto or chrome://tracing\n");
  return 0;
}
