// Full-stack integration: simulated closed-source libraries and multi-tenant
// scenarios through the complete grdLib -> IPC -> grdManager -> patcher ->
// interpreter -> simulated-GPU pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"
#include "simcuda/native.hpp"
#include "simgpu/device_spec.hpp"
#include "simlibs/cublas.hpp"
#include "simlibs/cufft.hpp"
#include "simlibs/curand.hpp"
#include "simlibs/cusolver.hpp"
#include "simlibs/cusparse.hpp"

namespace grd {
namespace {

using guardian::GrdLib;
using ptxexec::KernelArg;
using simcuda::DevicePtr;
using simcuda::MemcpyKind;

class FullStackTest : public ::testing::Test {
 protected:
  FullStackTest()
      : gpu_(simgpu::QuadroRtxA4000()),
        manager_(&gpu_, guardian::ManagerOptions{}),
        transport_(&manager_) {}

  Result<GrdLib> Connect(std::uint64_t bytes = 64ull << 20) {
    return GrdLib::Connect(&transport_, bytes);
  }

  simcuda::Gpu gpu_;
  guardian::GrdManager manager_;
  guardian::LoopbackTransport transport_;
};

TEST_F(FullStackTest, CufftThroughGuardian) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto fft = simlibs::Cufft::Create(*lib);
  ASSERT_TRUE(fft.ok()) << fft.status();
  const float signal[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  DevicePtr in = 0, out = 0;
  ASSERT_TRUE(lib->cudaMalloc(&in, sizeof(signal)).ok());
  ASSERT_TRUE(lib->cudaMalloc(&out, sizeof(signal)).ok());
  ASSERT_TRUE(lib->cudaMemcpyH2D(in, signal, sizeof(signal)).ok());
  ASSERT_TRUE(fft->ExecC2C(in, out, 4).ok());
  float result[8] = {};
  ASSERT_TRUE(
      lib->cudaMemcpy(result, out, sizeof(result), MemcpyKind::kDeviceToHost)
          .ok());
  EXPECT_FLOAT_EQ(result[6], 7.0f);  // identity twiddle
  // The twiddle staging (cuMemAlloc inside the library) came from the
  // client's own partition.
  EXPECT_GT(manager_.stats().transfers_checked, 0u);
}

TEST_F(FullStackTest, CusolverThroughGuardian) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto solver = simlibs::Cusolver::Create(*lib);
  ASSERT_TRUE(solver.ok()) << solver.status();
  const double diag[2] = {4.0, 8.0};
  const double rhs[2] = {12.0, 24.0};
  DevicePtr d = 0, b = 0, x = 0;
  ASSERT_TRUE(lib->cudaMalloc(&d, sizeof(diag)).ok());
  ASSERT_TRUE(lib->cudaMalloc(&b, sizeof(rhs)).ok());
  ASSERT_TRUE(lib->cudaMalloc(&x, sizeof(rhs)).ok());
  ASSERT_TRUE(lib->cudaMemcpyH2D(d, diag, sizeof(diag)).ok());
  ASSERT_TRUE(lib->cudaMemcpyH2D(b, rhs, sizeof(rhs)).ok());
  ASSERT_TRUE(solver->SpDcsrqr(d, b, x, 2).ok());
  double result[2] = {};
  ASSERT_TRUE(
      lib->cudaMemcpy(result, x, sizeof(result), MemcpyKind::kDeviceToHost)
          .ok());
  EXPECT_DOUBLE_EQ(result[0], 3.0);
  EXPECT_DOUBLE_EQ(result[1], 3.0);
}

TEST_F(FullStackTest, CurandThroughGuardianIsDeterministic) {
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto rand = simlibs::Curand::Create(*lib, 99);
  ASSERT_TRUE(rand.ok());
  DevicePtr out = 0;
  ASSERT_TRUE(lib->cudaMalloc(&out, 32).ok());
  ASSERT_TRUE(rand->Generate(out, 8).ok());
  std::uint32_t guarded[8] = {};
  ASSERT_TRUE(lib->cudaMemcpy(guarded, out, sizeof(guarded),
                              MemcpyKind::kDeviceToHost)
                  .ok());

  // Same sequence on the native runtime.
  simcuda::Gpu gpu2(simgpu::QuadroRtxA4000());
  simcuda::NativeCuda native(&gpu2);
  auto rand2 = simlibs::Curand::Create(native, 99);
  ASSERT_TRUE(rand2.ok());
  DevicePtr out2 = 0;
  ASSERT_TRUE(native.cudaMalloc(&out2, 32).ok());
  ASSERT_TRUE(rand2->Generate(out2, 8).ok());
  std::uint32_t reference[8] = {};
  ASSERT_TRUE(native.cudaMemcpy(reference, out2, sizeof(reference),
                                MemcpyKind::kDeviceToHost)
                  .ok());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(guarded[i], reference[i]) << i;
}

TEST_F(FullStackTest, AllThreeModesComputeIdenticalInBoundsResults) {
  // Property: for in-bounds workloads, the bounds-check mode is
  // unobservable — bitwise, modulo and checking all yield native results.
  std::vector<float> reference;
  for (const auto mode :
       {ptxpatcher::BoundsCheckMode::kFencingBitwise,
        ptxpatcher::BoundsCheckMode::kFencingModulo,
        ptxpatcher::BoundsCheckMode::kChecking}) {
    simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
    guardian::ManagerOptions options;
    options.mode = mode;
    guardian::GrdManager manager(&gpu, options);
    guardian::LoopbackTransport transport(&manager);
    auto lib = GrdLib::Connect(&transport, 16 << 20);
    ASSERT_TRUE(lib.ok());
    auto module = lib->cuModuleLoadData(ptx::Print(ptx::MakeSampleModule()));
    auto fn = lib->cuModuleGetFunction(*module, "saxpy");
    ASSERT_TRUE(fn.ok());
    const int n = 64;
    DevicePtr x = 0, y = 0;
    ASSERT_TRUE(lib->cudaMalloc(&x, n * 4).ok());
    ASSERT_TRUE(lib->cudaMalloc(&y, n * 4).ok());
    std::vector<float> xs(n), ys(n);
    for (int i = 0; i < n; ++i) {
      xs[i] = static_cast<float>(i) * 0.5f;
      ys[i] = static_cast<float>(n - i);
    }
    ASSERT_TRUE(lib->cudaMemcpyH2D(x, xs.data(), n * 4).ok());
    ASSERT_TRUE(lib->cudaMemcpyH2D(y, ys.data(), n * 4).ok());
    simcuda::LaunchConfig config;
    config.block = {64, 1, 1};
    ASSERT_TRUE(lib->cudaLaunchKernel(*fn, config,
                                      {KernelArg::U64(x), KernelArg::U64(y),
                                       KernelArg::F32(2.0f),
                                       KernelArg::U32(n)})
                    .ok());
    std::vector<float> out(n);
    ASSERT_TRUE(
        lib->cudaMemcpy(out.data(), y, n * 4, MemcpyKind::kDeviceToHost)
            .ok());
    if (reference.empty()) {
      reference = out;
      for (int i = 0; i < n; ++i)
        EXPECT_FLOAT_EQ(out[i], 2.0f * xs[i] + ys[i]);
    } else {
      EXPECT_EQ(out, reference)
          << ptxpatcher::BoundsCheckModeName(mode);
    }
  }
}

TEST_F(FullStackTest, ManyTenantsManyKernels) {
  // 6 tenants (the paper's max co-location), each running its own kernels
  // over its own data; all results must be correct and disjoint.
  constexpr int kTenants = 6;
  std::vector<GrdLib> tenants;
  std::vector<DevicePtr> buffers;
  std::vector<simcuda::FunctionId> kernels;
  const std::string ptx_text = ptx::Print(ptx::MakeSampleModule());
  for (int t = 0; t < kTenants; ++t) {
    auto lib = Connect(4 << 20);
    ASSERT_TRUE(lib.ok());
    auto module = lib->cuModuleLoadData(ptx_text);
    ASSERT_TRUE(module.ok());
    auto fn = lib->cuModuleGetFunction(*module, "copyk");
    ASSERT_TRUE(fn.ok());
    DevicePtr in = 0, out = 0;
    ASSERT_TRUE(lib->cudaMalloc(&in, 1024).ok());
    ASSERT_TRUE(lib->cudaMalloc(&out, 1024).ok());
    std::vector<std::uint32_t> data(256);
    for (int i = 0; i < 256; ++i) data[i] = t * 1000 + i;
    ASSERT_TRUE(lib->cudaMemcpyH2D(in, data.data(), 1024).ok());
    simcuda::LaunchConfig config;
    config.grid = {2, 1, 1};
    config.block = {128, 1, 1};
    ASSERT_TRUE(lib->cudaLaunchKernel(*fn, config,
                                      {KernelArg::U64(in), KernelArg::U64(out),
                                       KernelArg::U32(256)})
                    .ok());
    tenants.push_back(std::move(*lib));
    buffers.push_back(out);
    kernels.push_back(*fn);
  }
  for (int t = 0; t < kTenants; ++t) {
    std::vector<std::uint32_t> out(256);
    ASSERT_TRUE(tenants[t]
                    .cudaMemcpy(out.data(), buffers[t], 1024,
                                MemcpyKind::kDeviceToHost)
                    .ok());
    EXPECT_EQ(out[0], static_cast<std::uint32_t>(t * 1000));
    EXPECT_EQ(out[255], static_cast<std::uint32_t>(t * 1000 + 255));
  }
  EXPECT_EQ(manager_.active_clients(), static_cast<std::size_t>(kTenants));
  EXPECT_EQ(manager_.stats().sandboxed_launches,
            static_cast<std::uint64_t>(kTenants));
}

TEST_F(FullStackTest, ConcurrentClientsOverThreadedChannels) {
  // Multi-threaded clients hammering one manager through real rings, served
  // by two pumps that split the channels and dispatch concurrently.
  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 50;
  std::vector<std::unique_ptr<ipc::HeapChannel>> heaps;
  guardian::ManagerServer even(&manager_), odd(&manager_);
  for (int i = 0; i < kClients; ++i) {
    heaps.push_back(std::make_unique<ipc::HeapChannel>());
    (i % 2 == 0 ? even : odd).AddChannel(&heaps.back()->channel());
  }
  std::atomic<bool> stop{false};
  std::thread pump_even([&] { even.Run(stop); });
  std::thread pump_odd([&] { odd.Run(stop); });

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      guardian::ChannelTransport transport(&heaps[i]->channel());
      auto lib = GrdLib::Connect(&transport, 4 << 20);
      if (!lib.ok()) {
        ++failures;
        return;
      }
      for (int op = 0; op < kOpsPerClient; ++op) {
        DevicePtr p = 0;
        if (!lib->cudaMalloc(&p, 4096).ok()) ++failures;
        const std::uint64_t v = i * 100000 + op;
        if (!lib->cudaMemcpyH2D(p, &v, 8).ok()) ++failures;
        std::uint64_t back = 0;
        if (!lib->cudaMemcpy(&back, p, 8, MemcpyKind::kDeviceToHost).ok())
          ++failures;
        if (back != v) ++failures;
        if (!lib->cudaFree(p).ok()) ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true);
  pump_even.join();
  pump_odd.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(FullStackTest, ModuleWithFuncAndBrxSurvivesFullPipeline) {
  // The trickier PTX constructs (.func, brx.idx, shared memory) must make
  // it through load -> patch -> print -> reparse -> execute.
  auto lib = Connect();
  ASSERT_TRUE(lib.ok());
  auto module = lib->cuModuleLoadData(ptx::Print(ptx::MakeSampleModule()));
  ASSERT_TRUE(module.ok()) << module.status();
  auto brx = lib->cuModuleGetFunction(*module, "brx_kernel");
  ASSERT_TRUE(brx.ok());
  DevicePtr buf = 0;
  ASSERT_TRUE(lib->cudaMalloc(&buf, 64).ok());
  simcuda::LaunchConfig config;
  ASSERT_TRUE(lib->cudaLaunchKernel(*brx, config,
                                    {KernelArg::U64(buf), KernelArg::U32(1)})
                  .ok());
  std::uint32_t v = 0;
  ASSERT_TRUE(lib->cudaMemcpy(&v, buf, 4, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(v, 20u);

  auto reduce = lib->cuModuleGetFunction(*module, "reduce");
  ASSERT_TRUE(reduce.ok());
  DevicePtr in = 0, out = 0;
  ASSERT_TRUE(lib->cudaMalloc(&in, 32 * 4).ok());
  ASSERT_TRUE(lib->cudaMalloc(&out, 4).ok());
  std::vector<float> ones(32, 1.0f);
  ASSERT_TRUE(lib->cudaMemcpyH2D(in, ones.data(), 32 * 4).ok());
  config.block = {32, 1, 1};
  ASSERT_TRUE(lib->cudaLaunchKernel(*reduce, config,
                                    {KernelArg::U64(in), KernelArg::U64(out)})
                  .ok());
  float sum = 0;
  ASSERT_TRUE(lib->cudaMemcpy(&sum, out, 4, MemcpyKind::kDeviceToHost).ok());
  EXPECT_FLOAT_EQ(sum, 32.0f);
}

}  // namespace
}  // namespace grd
