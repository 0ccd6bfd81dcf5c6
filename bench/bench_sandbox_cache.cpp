// Sandbox-cache amortization: N tenants loading the same PTX library pay
// the §4.2.3 patch cost once, not N times. Prints per-tenant module-load
// latency and the manager's patch/hit counters, then checks that a tenant
// cycling unique PTX through a byte-bounded cache evicts in LRU order and
// that bytes_reclaimed equals the evicted slots' footprints exactly.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/sandbox_cache.hpp"
#include "guardian/transport.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"
#include "simgpu/device_spec.hpp"

int main() {
  using namespace grd;
  using Clock = std::chrono::steady_clock;

  constexpr int kTenants = 16;
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::GrdManager manager(&gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport transport(&manager);
  const std::string ptx_text = ptx::Print(ptx::MakeSampleModule());

  std::printf("module load latency, %d tenants loading identical PTX "
              "(%zu bytes)\n\n",
              kTenants, ptx_text.size());
  std::printf("%-8s %-14s %-10s\n", "tenant", "load_us", "served_by");

  std::vector<guardian::GrdLib> tenants;
  double first_us = 0.0, cached_us_total = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    auto lib = guardian::GrdLib::Connect(&transport, 1ull << 20);
    if (!lib.ok()) {
      std::printf("connect failed: %s\n", lib.status().ToString().c_str());
      return 1;
    }
    const std::uint64_t patches_before = manager.stats().ptx_modules_patched;
    const auto begin = Clock::now();
    auto module = lib->cuModuleLoadData(ptx_text);
    const auto elapsed = Clock::now() - begin;
    if (!module.ok()) {
      std::printf("load failed: %s\n", module.status().ToString().c_str());
      return 1;
    }
    const double us =
        std::chrono::duration<double, std::micro>(elapsed).count();
    const bool patched = manager.stats().ptx_modules_patched > patches_before;
    if (patched)
      first_us = us;
    else
      cached_us_total += us;
    std::printf("%-8d %-14.1f %-10s\n", t + 1, us,
                patched ? "patcher" : "cache");
    tenants.push_back(std::move(*lib));
  }

  const double cached_us = cached_us_total / (kTenants - 1);
  std::printf("\nptx_modules_patched : %llu (identical PTX patched exactly "
              "once)\n",
              static_cast<unsigned long long>(
                  manager.stats().ptx_modules_patched));
  std::printf("ptx_cache_hits      : %llu\n",
              static_cast<unsigned long long>(manager.stats().ptx_cache_hits));
  std::printf("first load (patch)  : %.1f us\n", first_us);
  std::printf("cached load (mean)  : %.1f us  (%.1fx faster)\n", cached_us,
              cached_us > 0 ? first_us / cached_us : 0.0);

  // Phase 2: a tenant cycling unique PTX against a small cache — LRU keeps
  // the manager within its byte budget and the eviction counters account
  // for exactly what was reclaimed.
  constexpr std::size_t kSmallCapacity = 8;  // modules the budget holds
  constexpr int kUniqueModules = 32;
  // Distinct kernel name => distinct source => distinct cache entry.
  std::vector<std::string> unique_sources;
  for (int i = 0; i < kUniqueModules; ++i) {
    ptx::Module module;
    module.kernels.push_back(
        ptx::MakeStoreTidKernel("churn_" + std::to_string(i)));
    unique_sources.push_back(ptx::Print(module));
  }
  // Each module's footprint as the manager charges it, read off the cache
  // of an unbounded manager with the same (default) options.
  guardian::GrdManager sizing(&gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport sizing_transport(&sizing);
  auto sizer = guardian::GrdLib::Connect(&sizing_transport, 1ull << 20);
  if (!sizer.ok()) {
    std::printf("connect failed: %s\n", sizer.status().ToString().c_str());
    return 1;
  }
  std::vector<std::uint64_t> footprint;
  for (const std::string& source : unique_sources) {
    const std::uint64_t before = sizing.sandbox_cache().bytes_in_use();
    auto built = sizer->cuModuleLoadData(source);
    if (!built.ok()) {
      std::printf("sizing load failed: %s\n",
                  built.status().ToString().c_str());
      return 1;
    }
    footprint.push_back(sizing.sandbox_cache().bytes_in_use() - before);
  }
  const std::uint64_t budget =
      kSmallCapacity * *std::max_element(footprint.begin(), footprint.end());
  guardian::ManagerOptions bounded_options;
  bounded_options.sandbox_cache_bytes = budget;
  guardian::GrdManager bounded(&gpu, bounded_options);
  guardian::LoopbackTransport bounded_transport(&bounded);
  auto churn = guardian::GrdLib::Connect(&bounded_transport, 1ull << 20);
  if (!churn.ok()) {
    std::printf("connect failed: %s\n", churn.status().ToString().c_str());
    return 1;
  }
  for (const std::string& source : unique_sources) {
    auto loaded = churn->cuModuleLoadData(source);
    if (!loaded.ok()) {
      std::printf("churn load failed: %s\n",
                  loaded.status().ToString().c_str());
      return 1;
    }
  }
  // LRU order: the first kUniqueModules - kSmallCapacity loads are evicted.
  std::uint64_t evicted_bytes = 0;
  for (int i = 0; i < kUniqueModules - static_cast<int>(kSmallCapacity); ++i)
    evicted_bytes += footprint[i];
  std::printf("\nunique-PTX churn, cache budget %llu bytes (%zu modules), "
              "%d loads:\n",
              static_cast<unsigned long long>(budget), kSmallCapacity,
              kUniqueModules);
  std::printf("cache entries live  : %zu\n", bounded.sandbox_cache().size());
  std::printf("evictions           : %llu\n",
              static_cast<unsigned long long>(
                  bounded.stats().sandbox_cache_evictions));
  std::printf("bytes reclaimed     : %llu (evicted footprints: %llu)\n",
              static_cast<unsigned long long>(
                  bounded.stats().sandbox_cache_bytes_reclaimed),
              static_cast<unsigned long long>(evicted_bytes));

  const bool amortized = manager.stats().ptx_modules_patched == 1;
  const bool bounded_ok =
      bounded.sandbox_cache().size() == kSmallCapacity &&
      bounded.stats().sandbox_cache_evictions ==
          kUniqueModules - kSmallCapacity &&
      bounded.stats().sandbox_cache_bytes_reclaimed == evicted_bytes;
  if (!bounded_ok) std::printf("FAIL: eviction accounting off\n");

  // Machine-readable line for cross-PR perf tracking.
  bench::JsonLine json;
  json.Add("first_load_us", first_us, 1)
      .Add("cached_load_us", cached_us, 1)
      .Add("modules_patched", manager.stats().ptx_modules_patched.load())
      .Add("programs_compiled", manager.stats().ptx_programs_compiled.load())
      .Add("evictions", bounded.stats().sandbox_cache_evictions.load())
      .Add("bytes_reclaimed",
           bounded.stats().sandbox_cache_bytes_reclaimed.load());
  json.Emit("sandbox_cache");
  return amortized && bounded_ok ? 0 : 1;
}
