// SandboxCache coverage: content-addressed patch sharing across tenants,
// mode-keyed entries, collision safety, concurrent loads, cached load
// failures, the byte budget, and name resolution against compiled programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/sandbox_cache.hpp"
#include "guardian/transport.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptx/validator.hpp"
#include "simgpu/device_spec.hpp"

namespace grd::guardian {
namespace {

using ptxexec::KernelArg;
using simcuda::DevicePtr;
using simcuda::MemcpyKind;

std::string SamplePtx() { return ptx::Print(ptx::MakeSampleModule()); }

Result<SandboxCache::Lookup> Load(SandboxCache& cache,
                                  const std::string& source,
                                  const ptxpatcher::PatchOptions& options) {
  return cache.GetOrPatch(source, HashPtxSource(source), options);
}

// True when `kernel` of `program` executes a rem — the modulo fence's op.
bool HasRem(const ptxexec::CompiledModule& program, const std::string& kernel) {
  auto compiled = program.Find(kernel);
  if (!compiled.ok()) return false;
  for (const ptxexec::CompiledInst& inst : (*compiled)->code)
    if (inst.op == ptxexec::COp::kBinary &&
        static_cast<ptxexec::BinAlu>(inst.sub) == ptxexec::BinAlu::kRem)
      return true;
  return false;
}

// One kernel that validates but cannot compile: its 4 x 16,384 distinct
// registers exceed the compiler's uint16 register slots.
std::string TooManyRegistersPtx() {
  constexpr int kInstructions = 16'384;
  std::string ptx =
      ".version 7.7\n.target sm_86\n.address_size 64\n"
      ".visible .entry wide(.param .u64 p)\n{\n"
      "    .reg .b32 %r<" + std::to_string(4 * kInstructions) + ">;\n";
  for (int i = 0; i < kInstructions; ++i) {
    const std::string r = "%r" + std::to_string(4 * i);
    ptx += "    mad.lo.u32 " + r + ", %r" + std::to_string(4 * i + 1) +
           ", %r" + std::to_string(4 * i + 2) + ", %r" +
           std::to_string(4 * i + 3) + ";\n";
  }
  return ptx + "    ret;\n}\n";
}

TEST(SandboxCacheTest, SecondLookupOfIdenticalSourceHitsCache) {
  SandboxCache cache;
  const std::string source = SamplePtx();
  ptxpatcher::PatchOptions options;

  auto first = Load(cache, source, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->patched_now);

  auto second = Load(cache, source, options);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->patched_now);
  // Shared immutable program, not a copy.
  EXPECT_EQ(first->compiled.get(), second->compiled.get());

  EXPECT_EQ(cache.stats().patches, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SandboxCacheTest, DifferentBoundsCheckModesDoNotCollide) {
  SandboxCache cache;
  const std::string source = SamplePtx();

  ptxpatcher::PatchOptions bitwise;
  bitwise.mode = ptxpatcher::BoundsCheckMode::kFencingBitwise;
  ptxpatcher::PatchOptions modulo;
  modulo.mode = ptxpatcher::BoundsCheckMode::kFencingModulo;
  ptxpatcher::PatchOptions checking;
  checking.mode = ptxpatcher::BoundsCheckMode::kChecking;

  auto a = Load(cache, source, bitwise);
  auto b = Load(cache, source, modulo);
  auto c = Load(cache, source, checking);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_TRUE(a->patched_now);
  EXPECT_TRUE(b->patched_now);
  EXPECT_TRUE(c->patched_now);
  EXPECT_NE(a->compiled.get(), b->compiled.get());
  EXPECT_NE(b->compiled.get(), c->compiled.get());
  EXPECT_EQ(cache.stats().patches, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 3u);

  // Instrumentation genuinely differs across modes (the bitwise program
  // fences with and/or, the modulo program with rem).
  EXPECT_TRUE(HasRem(*b->compiled, "copyk"));
  EXPECT_FALSE(HasRem(*a->compiled, "copyk"));
}

TEST(SandboxCacheTest, PatchFlagVariantsAreDistinctEntries) {
  SandboxCache cache;
  const std::string source = SamplePtx();

  ptxpatcher::PatchOptions plain;
  ptxpatcher::PatchOptions skip_safe = plain;
  skip_safe.skip_statically_safe = true;
  auto a = Load(cache, source, plain);
  auto b = Load(cache, source, skip_safe);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(b->patched_now);  // not served from the plain entry
  EXPECT_EQ(cache.stats().patches, 2u);
}

TEST(SandboxCacheTest, GuardElisionFlagKeysDistinctEntries) {
  // Elided and full-patch variants of the same source are different modules;
  // the cache must never serve one for the other.
  SandboxCache cache;
  ptx::Module m;
  m.kernels.push_back(ptx::MakeRepeatedRmwKernel("rmw", 4));
  m.kernels.push_back(ptx::MakePointerWalkKernel("walk", 2));
  const std::string source = ptx::Print(m);

  ptxpatcher::PatchOptions full;
  ptxpatcher::PatchOptions elide = full;
  elide.elision_enabled = true;
  auto a = Load(cache, source, full);
  auto b = Load(cache, source, elide);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(b->patched_now);
  EXPECT_NE(a->compiled.get(), b->compiled.get());
  EXPECT_EQ(cache.stats().patches, 2u);

  // The aggregate patch stats ride with the slot: the fresh elided patch
  // reports its yield, and a later hit returns the same numbers.
  EXPECT_EQ(a->patch_stats.guards_elided, 0u);
  EXPECT_GT(b->patch_stats.guards_elided, 0u);
  auto b2 = Load(cache, source, elide);
  ASSERT_TRUE(b2.ok());
  EXPECT_FALSE(b2->patched_now);
  EXPECT_EQ(b2->patch_stats.guards_elided, b->patch_stats.guards_elided);
}

TEST(SandboxCacheTest, CapacityIsEnforcedWithLruEviction) {
  ptxpatcher::PatchOptions options;
  // Three distinct sources: version-comment variants of the sample module.
  std::vector<std::string> sources;
  for (int i = 0; i < 3; ++i)
    sources.push_back(SamplePtx() + "\n// variant " + std::to_string(i));
  // Each slot's footprint, as an unbounded cache charges it.
  std::vector<std::uint64_t> footprint;
  SandboxCache sizing;
  for (const auto& source : sources) {
    const std::uint64_t before = sizing.bytes_in_use();
    auto built = Load(sizing, source, options);
    ASSERT_TRUE(built.ok()) << built.status();
    footprint.push_back(sizing.bytes_in_use() - before);
  }
  // A byte budget that holds any two of the modules but never all three.
  const std::uint64_t budget =
      2 * std::max({footprint[0], footprint[1], footprint[2]});
  ASSERT_LT(budget, footprint[0] + footprint[1] + footprint[2]);
  SandboxCache cache(budget);

  ASSERT_TRUE(Load(cache, sources[0], options).ok());
  ASSERT_TRUE(Load(cache, sources[1], options).ok());
  EXPECT_EQ(cache.size(), 2u);
  // Third entry evicts the least-recently-used (source 0).
  ASSERT_TRUE(Load(cache, sources[2], options).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes_reclaimed, footprint[0]);
  // Source 1 is still cached; source 0 must be re-patched.
  auto hit = Load(cache, sources[1], options);
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(hit->patched_now);
  auto repatch = Load(cache, sources[0], options);
  ASSERT_TRUE(repatch.ok());
  EXPECT_TRUE(repatch->patched_now);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // The second victim was source 2 (source 1's hit made it the newer one),
  // and eviction credits exactly what each slot was charged.
  EXPECT_EQ(cache.stats().bytes_reclaimed, footprint[0] + footprint[2]);
  auto kept = Load(cache, sources[1], options);
  ASSERT_TRUE(kept.ok());
  EXPECT_FALSE(kept->patched_now);
}

TEST(SandboxCacheTest, MalformedPtxFailsIdenticallyWithoutPatching) {
  // Parse and validation failures are cached like patch failures: the
  // second load replays the first one's status from the same slot, and
  // neither reaches the patcher or the compiler.
  const std::string unparsable = ".version 7.7\n.visible .entry k( {";
  const std::string invalid = R"(.version 7.7
.target sm_86
.address_size 64
.visible .entry k(.param .u64 p)
{
    mov.u32 %r1, 1;
    ret;
}
)";
  const auto parse_status = ptx::Parse(unparsable).status();
  ASSERT_FALSE(parse_status.ok());
  auto parsed_invalid = ptx::Parse(invalid);
  ASSERT_TRUE(parsed_invalid.ok()) << parsed_invalid.status();
  const Status validate_status = ptx::ValidateOrError(*parsed_invalid);
  ASSERT_FALSE(validate_status.ok());

  for (const auto& [source, expected] :
       {std::pair{unparsable, parse_status},
        std::pair{invalid, validate_status}}) {
    SandboxCache cache;
    ptxpatcher::PatchOptions options;
    auto first = Load(cache, source, options);
    auto second = Load(cache, source, options);
    ASSERT_FALSE(first.ok());
    ASSERT_FALSE(second.ok());
    // The same status the pre-cache parse/validate step returned.
    EXPECT_EQ(first.status().code(), expected.code());
    EXPECT_EQ(first.status().message(), expected.message());
    EXPECT_EQ(second.status().code(), first.status().code());
    EXPECT_EQ(second.status().message(), first.status().message());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().patches, 0u);
    EXPECT_EQ(cache.stats().compiles, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
  }
}

TEST(SandboxCacheTest, TinyUniqueFailuresStayWithinByteBudget) {
  // A tenant loading unique garbage sources of a few bytes: each failed slot
  // is charged at least kSlotOverheadBytes, so the budget bounds the slot
  // count, not just the sum of the sources.
  constexpr std::size_t kBudget = 64 << 10;
  constexpr int kLoads = 20'000;
  SandboxCache cache(kBudget);
  ptxpatcher::PatchOptions options;
  for (int i = 0; i < kLoads; ++i) {
    ASSERT_FALSE(Load(cache, "x" + std::to_string(i), options).ok());
    ASSERT_LE(cache.bytes_in_use(), kBudget);
  }
  EXPECT_GT(cache.size(), 0u);
  EXPECT_LE(cache.size(), kBudget / SandboxCache::kSlotOverheadBytes);
  EXPECT_EQ(cache.stats().evictions, kLoads - cache.size());
  EXPECT_GE(cache.stats().bytes_reclaimed,
            cache.stats().evictions * SandboxCache::kSlotOverheadBytes);
  EXPECT_EQ(cache.stats().patches, 0u);
}

TEST(SandboxCacheTest, ConcurrentChurnKeepsByteAccountingExact) {
  // Workers racing unique loads (misses that evict) against repeated loads
  // of one source (which move its slot to the front of the LRU list): every
  // slot ever created is either live or counted as evicted, and the budget
  // holds once the workers are done.
  constexpr std::size_t kBudget = 16 << 10;
  constexpr int kThreads = 4;
  constexpr int kLoadsPerThread = 500;
  SandboxCache cache(kBudget);
  ptxpatcher::PatchOptions options;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLoadsPerThread; ++i) {
        (void)Load(cache, "u" + std::to_string(t) + "_" + std::to_string(i),
                   options);
        (void)Load(cache, "shared", options);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // The unique sources plus "shared", which was created exactly once unless
  // it was itself evicted and rebuilt: live + evicted counts every creation.
  EXPECT_GE(cache.size() + cache.stats().evictions,
            static_cast<std::uint64_t>(kThreads * kLoadsPerThread + 1));
  EXPECT_LE(cache.bytes_in_use(), kBudget);
  EXPECT_LE(cache.size(), kBudget / SandboxCache::kSlotOverheadBytes);
}

TEST(SandboxCacheTest, GetFunctionResolvesAgainstCompiledProgram) {
  // Name resolution runs against the compiled program: an absent name is
  // NotFound with the AST-era message, and a kernel that failed to compile
  // still resolves — its launch then returns the compile error.
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  LoopbackTransport transport(&manager);
  auto lib = GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(lib.ok());

  auto sample = lib->cuModuleLoadData(SamplePtx());
  ASSERT_TRUE(sample.ok()) << sample.status();
  EXPECT_TRUE(lib->cuModuleGetFunction(*sample, "copyk").ok());
  auto absent = lib->cuModuleGetFunction(*sample, "nope");
  ASSERT_FALSE(absent.ok());
  EXPECT_EQ(absent.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(absent.status().message(), "kernel nope not in module");

  auto wide = lib->cuModuleLoadData(TooManyRegistersPtx());
  ASSERT_TRUE(wide.ok()) << wide.status();
  auto fn = lib->cuModuleGetFunction(*wide, "wide");
  ASSERT_TRUE(fn.ok()) << fn.status();
  const Status launched =
      lib->cudaLaunchKernel(*fn, simcuda::LaunchConfig{}, {KernelArg::U64(0)});
  ASSERT_FALSE(launched.ok());
  EXPECT_EQ(launched.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(launched.message().find("too many registers"), std::string::npos)
      << launched;
}

TEST(SandboxCacheTest, HashPtxSourceIsStableAndDiscriminating) {
  const std::string a = SamplePtx();
  EXPECT_EQ(HashPtxSource(a), HashPtxSource(a));
  EXPECT_NE(HashPtxSource(a), HashPtxSource(a + " "));
  EXPECT_NE(HashPtxSource(""), HashPtxSource(" "));
}

TEST(SandboxCacheTest, TwoClientsLoadingIdenticalPtxPatchOnce) {
  // The acceptance property: identical PTX loaded by 2 clients is patched
  // exactly once, observable through the manager's stats.
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  LoopbackTransport transport(&manager);
  auto alice = GrdLib::Connect(&transport, 4 << 20);
  auto bob = GrdLib::Connect(&transport, 4 << 20);
  ASSERT_TRUE(alice.ok() && bob.ok());

  const std::string source = SamplePtx();
  auto module_a = alice->cuModuleLoadData(source);
  auto module_b = bob->cuModuleLoadData(source);
  ASSERT_TRUE(module_a.ok() && module_b.ok());
  EXPECT_EQ(manager.stats().ptx_modules_patched, 1u);
  EXPECT_EQ(manager.stats().ptx_cache_hits, 1u);
  EXPECT_EQ(manager.sandbox_cache().size(), 1u);

  // Both tenants launch from the shared sandboxed module; each is fenced to
  // its own partition.
  for (auto* lib : {&*alice, &*bob}) {
    auto fn = lib->cuModuleGetFunction(
        lib == &*alice ? *module_a : *module_b, "copyk");
    ASSERT_TRUE(fn.ok());
    DevicePtr in = 0, out = 0;
    ASSERT_TRUE(lib->cudaMalloc(&in, 256).ok());
    ASSERT_TRUE(lib->cudaMalloc(&out, 256).ok());
    std::vector<std::uint32_t> data(64, lib == &*alice ? 7u : 9u);
    ASSERT_TRUE(lib->cudaMemcpyH2D(in, data.data(), 256).ok());
    simcuda::LaunchConfig config;
    config.block = {64, 1, 1};
    ASSERT_TRUE(lib->cudaLaunchKernel(*fn, config,
                                      {KernelArg::U64(in), KernelArg::U64(out),
                                       KernelArg::U32(64)})
                    .ok());
    std::uint32_t check = 0;
    ASSERT_TRUE(
        lib->cudaMemcpy(&check, out, 4, MemcpyKind::kDeviceToHost).ok());
    EXPECT_EQ(check, lib == &*alice ? 7u : 9u);
  }
  EXPECT_EQ(manager.stats().sandboxed_launches, 2u);
  // Still exactly one patch after both launches.
  EXPECT_EQ(manager.stats().ptx_modules_patched, 1u);
}

TEST(SandboxCacheTest, ManagerSurfacesGuardElisionCounters) {
  // guard_elision_enabled defaults on: loading a module with elidable fences
  // mirrors the patcher's yield into ManagerStats (and MANAGER_STATS JSON),
  // and the elided walk still computes the right answer end to end.
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  LoopbackTransport transport(&manager);
  auto client = GrdLib::Connect(&transport, 4 << 20);
  ASSERT_TRUE(client.ok());

  ptx::Module m;
  m.kernels.push_back(ptx::MakePointerWalkKernel("walk", 2));
  m.kernels.push_back(ptx::MakeRepeatedRmwKernel("rmw", 4));
  const std::string source = ptx::Print(m);
  auto module = client->cuModuleLoadData(source);
  ASSERT_TRUE(module.ok());
  EXPECT_GT(manager.stats().guards_elided.load(), 0u);
  const std::string json = manager.stats().ToJson();
  EXPECT_NE(json.find("\"guards_elided\""), std::string::npos) << json;

  // 8 iterations x 256-byte stripes: the 32 threads' RMW lanes tile every
  // u32 of the 2 KiB buffer exactly once, so each word ends at 1.
  constexpr std::uint32_t kIters = 8;
  auto fn = client->cuModuleGetFunction(*module, "walk");
  ASSERT_TRUE(fn.ok());
  DevicePtr data = 0;
  ASSERT_TRUE(client->cudaMalloc(&data, kIters * 256).ok());
  std::vector<std::uint32_t> zero(kIters * 64, 0);
  ASSERT_TRUE(client->cudaMemcpyH2D(data, zero.data(), kIters * 256).ok());
  simcuda::LaunchConfig config;
  config.block = {32, 1, 1};
  ASSERT_TRUE(client
                  ->cudaLaunchKernel(*fn, config,
                                     {KernelArg::U64(data),
                                      KernelArg::U32(kIters)})
                  .ok());
  std::vector<std::uint32_t> result(kIters * 64, 0);
  ASSERT_TRUE(client
                  ->cudaMemcpy(result.data(), data, kIters * 256,
                               MemcpyKind::kDeviceToHost)
                  .ok());
  for (std::size_t i = 0; i < result.size(); ++i)
    ASSERT_EQ(result[i], 1u) << "word " << i;

  // Forcing the oracle path off leaves the counters untouched.
  ManagerOptions no_elision;
  no_elision.guard_elision_enabled = false;
  GrdManager plain_manager(&gpu, no_elision);
  LoopbackTransport plain_transport(&plain_manager);
  auto plain = GrdLib::Connect(&plain_transport, 4 << 20);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->cuModuleLoadData(source).ok());
  EXPECT_EQ(plain_manager.stats().guards_elided.load(), 0u);
}

TEST(SandboxCacheTest, ConcurrentIdenticalLoadsPatchOnce) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  LoopbackTransport transport(&manager);
  const std::string source = SamplePtx();

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto lib = GrdLib::Connect(&transport, 1 << 20);
      if (!lib.ok() || !lib->cuModuleLoadData(source).ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager.stats().ptx_modules_patched, 1u);
  EXPECT_EQ(manager.stats().ptx_cache_hits,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SandboxCacheTest, CompiledProgramCachedAlongsidePatch) {
  // The fused program is compiled exactly once per distinct source: a cache
  // hit returns the stored CompiledModule without re-running CompileKernel
  // or FuseKernel (compiles stays at 1).
  SandboxCache cache;
  const std::string source = SamplePtx();
  ptxpatcher::PatchOptions options;

  auto first = Load(cache, source, options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_NE(first->compiled, nullptr);
  EXPECT_EQ(cache.stats().compiles, 1u);

  auto second = Load(cache, source, options);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->patched_now);
  EXPECT_EQ(first->compiled.get(), second->compiled.get());
  EXPECT_EQ(cache.stats().compiles, 1u) << "cache hit re-ran CompileKernel";

  // The cached program is runnable as-is, and already fused.
  auto program = first->compiled->Find("copyk");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_GT((*program)->code.size(), 0u);
  EXPECT_GT((*program)->super_count, 0u) << "cached program is not fused";
  EXPECT_GT(first->compiled->superinstructions(), 0u);

  // Through the manager: superinstructions_fused is counted when a module is
  // compiled and not on a cache hit, and the very first launch retires every
  // instruction on the one engine (slot 2; slots 0 and 1 stay empty).
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  LoopbackTransport transport(&manager);
  auto alice = GrdLib::Connect(&transport, 4 << 20);
  auto bob = GrdLib::Connect(&transport, 4 << 20);
  ASSERT_TRUE(alice.ok() && bob.ok());
  auto module = alice->cuModuleLoadData(source);
  ASSERT_TRUE(module.ok());
  const std::uint64_t fused = manager.stats().superinstructions_fused;
  EXPECT_GT(fused, 0u);
  ASSERT_TRUE(bob->cuModuleLoadData(source).ok());
  EXPECT_EQ(manager.stats().ptx_cache_hits, 1u);
  EXPECT_EQ(manager.stats().superinstructions_fused, fused)
      << "a cache hit counted fusion again";

  auto fn = alice->cuModuleGetFunction(*module, "copyk");
  ASSERT_TRUE(fn.ok());
  DevicePtr in = 0, out = 0;
  ASSERT_TRUE(alice->cudaMalloc(&in, 256).ok());
  ASSERT_TRUE(alice->cudaMalloc(&out, 256).ok());
  std::vector<std::uint32_t> data(64, 7u);
  ASSERT_TRUE(alice->cudaMemcpyH2D(in, data.data(), 256).ok());
  simcuda::LaunchConfig config;
  config.block = {64, 1, 1};
  ASSERT_TRUE(alice
                  ->cudaLaunchKernel(*fn, config,
                                     {KernelArg::U64(in), KernelArg::U64(out),
                                      KernelArg::U32(64)})
                  .ok());
  std::uint32_t check = 0;
  ASSERT_TRUE(
      alice->cudaMemcpy(&check, out, 4, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(check, 7u);
  EXPECT_GT(manager.stats().tier_instructions[2].load(), 0u);
  EXPECT_EQ(manager.stats().tier_instructions[0].load(), 0u);
  EXPECT_EQ(manager.stats().tier_instructions[1].load(), 0u);
}

TEST(SandboxCacheTest, ManagerCacheHitSkipsParsePatchAndCompile) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  GrdManager manager(&gpu, ManagerOptions{});
  LoopbackTransport transport(&manager);
  auto alice = GrdLib::Connect(&transport, 4 << 20);
  auto bob = GrdLib::Connect(&transport, 4 << 20);
  ASSERT_TRUE(alice.ok() && bob.ok());

  const std::string source = SamplePtx();
  ASSERT_TRUE(alice->cuModuleLoadData(source).ok());
  ASSERT_TRUE(bob->cuModuleLoadData(source).ok());
  EXPECT_EQ(manager.stats().ptx_modules_patched, 1u);
  EXPECT_EQ(manager.stats().ptx_cache_hits, 1u);
  // One program lowering total: the hit skipped CompileKernel too.
  EXPECT_EQ(manager.stats().ptx_programs_compiled, 1u);
  EXPECT_EQ(manager.sandbox_cache().stats().compiles, 1u);
}

TEST(SandboxCacheTest, CheckpointResumeUnderCompileCache) {
  // Preemption checkpoint/resume when the victim runs a compiled program
  // served from a cache HIT: a realtime tenant revokes a batch tenant's
  // full-device kernel at a safe point, the kernel resumes its cached
  // program and completes with correct output and no replayed blocks.
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  ManagerOptions options;
  options.scheduler_executors = 4;
  options.device_time_ns_per_cycle = 300.0;
  options.aging_quantum_ns = 0;
  GrdManager manager(&gpu, options);
  LoopbackTransport transport(&manager);

  auto rt = GrdLib::Connect(&transport, 8 << 20);
  auto batch = GrdLib::Connect(&transport, 16ull << 20);
  ASSERT_TRUE(rt.ok() && batch.ok());
  ASSERT_TRUE(rt->SetPriority(protocol::PriorityClass::kRealtime).ok());
  ASSERT_TRUE(batch->SetPriority(protocol::PriorityClass::kBatch).ok());

  const std::string source = SamplePtx();
  auto rt_module = rt->cuModuleLoadData(source);
  auto batch_module = batch->cuModuleLoadData(source);  // cache hit
  ASSERT_TRUE(rt_module.ok() && batch_module.ok());
  ASSERT_EQ(manager.stats().ptx_programs_compiled, 1u);
  auto rt_fn = rt->cuModuleGetFunction(*rt_module, "copyk");
  auto batch_fn = batch->cuModuleGetFunction(*batch_module, "copyk");
  ASSERT_TRUE(rt_fn.ok() && batch_fn.ok());

  constexpr std::uint32_t kBatchElems = 48 * 1024;  // 48 blocks: every SM
  constexpr std::uint32_t kRtElems = 256;
  DevicePtr bsrc = 0, bdst = 0, rsrc = 0, rdst = 0;
  ASSERT_TRUE(batch->cudaMalloc(&bsrc, kBatchElems * 4).ok());
  ASSERT_TRUE(batch->cudaMalloc(&bdst, kBatchElems * 4).ok());
  ASSERT_TRUE(rt->cudaMalloc(&rsrc, kRtElems * 4).ok());
  ASSERT_TRUE(rt->cudaMalloc(&rdst, kRtElems * 4).ok());
  std::vector<std::uint32_t> bdata(kBatchElems);
  for (std::uint32_t i = 0; i < kBatchElems; ++i) bdata[i] = i * 3 + 1;
  ASSERT_TRUE(batch->cudaMemcpyH2D(bsrc, bdata.data(), kBatchElems * 4).ok());
  std::vector<std::uint32_t> rdata(kRtElems, 0xFA57);
  ASSERT_TRUE(rt->cudaMemcpyH2D(rsrc, rdata.data(), kRtElems * 4).ok());

  simcuda::StreamId bstream = 0, rstream = 0;
  ASSERT_TRUE(batch->cudaStreamCreate(&bstream).ok());
  ASSERT_TRUE(rt->cudaStreamCreate(&rstream).ok());

  simcuda::LaunchConfig bconfig;
  bconfig.block = {1024, 1, 1};
  bconfig.grid = {kBatchElems / 1024, 1, 1};
  bconfig.stream = bstream;
  ASSERT_TRUE(batch
                  ->cudaLaunchKernel(*batch_fn, bconfig,
                                     {KernelArg::U64(bsrc),
                                      KernelArg::U64(bdst),
                                      KernelArg::U32(kBatchElems)})
                  .ok());

  // Only launch the realtime kernel once the batch kernel is resident, so
  // the preemption path is deterministically exercised.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (manager.scheduler().resident_kernels() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "batch kernel never became resident";
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  simcuda::LaunchConfig rconfig;
  rconfig.block = {256, 1, 1};
  rconfig.grid = {1, 1, 1};
  rconfig.stream = rstream;
  ASSERT_TRUE(rt->cudaLaunchKernel(*rt_fn, rconfig,
                                   {KernelArg::U64(rsrc), KernelArg::U64(rdst),
                                    KernelArg::U32(kRtElems)})
                  .ok());
  ASSERT_TRUE(rt->cudaStreamSynchronize(rstream).ok());
  ASSERT_TRUE(batch->cudaStreamSynchronize(bstream).ok());

  EXPECT_GE(manager.stats().preemptions, 1u);
  EXPECT_GE(manager.stats().preemption_resumes, 1u);
  // Exact block accounting: a replayed block would exceed the grid sizes.
  EXPECT_EQ(manager.stats().kernel_blocks_executed,
            kBatchElems / 1024 + kRtElems / 256);
  std::vector<std::uint32_t> out(kBatchElems);
  ASSERT_TRUE(batch
                  ->cudaMemcpy(out.data(), bdst, kBatchElems * 4,
                               MemcpyKind::kDeviceToHost)
                  .ok());
  EXPECT_EQ(out, bdata);
}

TEST(SandboxCacheTest, ProtectionDisabledBypassesCache) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  ManagerOptions options;
  options.protection_enabled = false;
  GrdManager manager(&gpu, options);
  LoopbackTransport transport(&manager);
  auto lib = GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(lib.ok());
  ASSERT_TRUE(lib->cuModuleLoadData(SamplePtx()).ok());
  EXPECT_EQ(manager.stats().ptx_modules_patched, 0u);
  EXPECT_EQ(manager.sandbox_cache().size(), 0u);
}

}  // namespace
}  // namespace grd::guardian
