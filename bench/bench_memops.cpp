// §7.6 memory-operation micro-benchmark: Guardian's partition allocator vs
// the native device allocator, and the bounds-checked transfer path vs the
// unchecked one, over a range of sizes. Paper finding: the allocator adds
// no overhead and the per-transfer checks are negligible.
#include <benchmark/benchmark.h>

#include "guardian/bounds_table.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "simcuda/native.hpp"
#include "simgpu/device_spec.hpp"

namespace {

using namespace grd;

void BM_NativeMallocFree(benchmark::State& state) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  simcuda::NativeCuda api(&gpu);
  const std::uint64_t size = state.range(0);
  for (auto _ : state) {
    simcuda::DevicePtr p = 0;
    benchmark::DoNotOptimize(api.cudaMalloc(&p, size));
    benchmark::DoNotOptimize(api.cudaFree(p));
  }
}
BENCHMARK(BM_NativeMallocFree)->Range(4 << 10, 64 << 20);

void BM_GuardianMallocFree(benchmark::State& state) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::GrdManager manager(&gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport transport(&manager);
  auto lib = guardian::GrdLib::Connect(&transport, 256ull << 20);
  const std::uint64_t size = state.range(0);
  for (auto _ : state) {
    simcuda::DevicePtr p = 0;
    benchmark::DoNotOptimize(lib->cudaMalloc(&p, size));
    benchmark::DoNotOptimize(lib->cudaFree(p));
  }
}
BENCHMARK(BM_GuardianMallocFree)->Range(4 << 10, 64 << 20);

void BM_NativeH2D(benchmark::State& state) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  simcuda::NativeCuda api(&gpu);
  const std::uint64_t size = state.range(0);
  std::vector<std::uint8_t> host(size, 0xAB);
  simcuda::DevicePtr p = 0;
  (void)api.cudaMalloc(&p, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(api.cudaMemcpyH2D(p, host.data(), size));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_NativeH2D)->Range(4 << 10, 16 << 20);

void BM_GuardianH2DChecked(benchmark::State& state) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::GrdManager manager(&gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport transport(&manager);
  auto lib = guardian::GrdLib::Connect(&transport, 256ull << 20);
  const std::uint64_t size = state.range(0);
  std::vector<std::uint8_t> host(size, 0xAB);
  simcuda::DevicePtr p = 0;
  (void)lib->cudaMalloc(&p, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lib->cudaMemcpyH2D(p, host.data(), size));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_GuardianH2DChecked)->Range(4 << 10, 16 << 20);

// Isolated cost of one transfer's bounds check (the only extra work the
// Guardian transfer path performs besides message framing): the range test
// against the partition bounds the session holds.
void BM_BoundsCheck(benchmark::State& state) {
  guardian::PartitionBounds bounds{1ull << 20, 1ull << 20};
  std::uint64_t addr = (1ull << 20) + 64;
  std::uint64_t len = 4096;
  for (auto _ : state) {
    // Opaque inputs each iteration, so the check is not hoisted or folded.
    benchmark::DoNotOptimize(bounds);
    benchmark::DoNotOptimize(addr);
    benchmark::DoNotOptimize(len);
    benchmark::DoNotOptimize(bounds.Contains(addr, len));
  }
}
BENCHMARK(BM_BoundsCheck);

}  // namespace

BENCHMARK_MAIN();
