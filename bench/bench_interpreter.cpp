// Kernel-execution hot path on the one engine, plus cold vs cached launch
// latency through the grdManager's compiled-program cache.
//
//  phase 1 — Minstr/s on an ALU-heavy loop kernel and on a patched (fenced)
//            memory-copy kernel, three ways:
//              cold     — the seed string-map reference engine
//              unfused  — the engine on CompileKernel output: one dispatch
//                         per instruction
//              engine   — the engine on FuseKernel output, which is what
//                         every launch runs: the whole loop body retires
//                         per dispatch
//  phase 2 — ModuleLoad + first-launch latency for a cold tenant (parse +
//            patch + compile + fuse) vs a tenant whose identical PTX hits
//            the sandbox cache (hash + source compare only).
//  phase 3 — tracing overhead gate: the same manager-path launch workload
//            with tracing off vs on (spans emitted for every request,
//            queue wait and execution segment), as interleaved off/on pairs;
//            the median on/off ratio must stay within 5%.
//
// Exits non-zero unless the engine is >= 3x the reference on both
// workloads, fusion is >= 1.5x the unfused program on the hot ALU loop
// (>= 0.9x on the memory copy — fencing is load/store bound), the cold load
// compiled exactly one fused program (superinstructions counted) whose
// first launch retired every instruction in the engine's slot, the cache
// hit compiled nothing, and tracing stays within 5%. Writes the
// machine-readable line to stdout AND to ./BENCH_interpreter.json.
// GRD_BENCH_QUICK=1 shrinks the workload for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "obs/trace.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxpatcher/patcher.hpp"
#include "simgpu/device_spec.hpp"

namespace {

using namespace grd;
using ptxexec::ExecStats;
using ptxexec::KernelArg;
using ptxexec::LaunchParams;

// ALU-heavy loop: ~8 instructions per iteration, no memory traffic beyond
// one final store — isolates per-step dispatch/operand costs.
constexpr char kAluPtx[] = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry aluspin(
    .param .u64 out,
    .param .u32 iters
)
{
    .reg .pred %p1;
    .reg .b32 %r<8>;
    .reg .b64 %rd<6>;
    ld.param.u64 %rd1, [out];
    ld.param.u32 %r1, [iters];
    cvta.to.global.u64 %rd1, %rd1;
    mov.u32 %r2, %tid.x;
    mov.u32 %r3, 0;
LOOP:
    mad.lo.u32 %r2, %r2, 1664525, 1013904223;
    xor.b32 %r4, %r2, %r3;
    shr.u32 %r5, %r4, 7;
    add.u32 %r3, %r3, %r5;
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p1, %r6, %r1;
    @%p1 bra LOOP;
    mov.u32 %r7, %ctaid.x;
    mad.lo.u32 %r7, %r7, 64, %r2;
    mul.wide.u32 %rd2, %r7, 0;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    ret;
}
)";

struct EngineScore {
  double mips = 0.0;  // million interpreted instructions per second
  std::uint64_t instructions = 0;
};

// Times one run into `best` if it beat the best so far.
template <typename RunFn>
void KeepBest(EngineScore* best, RunFn&& run) {
  using Clock = std::chrono::steady_clock;
  const auto begin = Clock::now();
  const ExecStats stats = run();
  const double secs =
      std::chrono::duration<double>(Clock::now() - begin).count();
  const double mips =
      secs > 0.0 ? static_cast<double>(stats.instructions) / secs / 1e6 : 0;
  if (mips > best->mips) *best = EngineScore{mips, stats.instructions};
}

// One kernel/launch measured on the reference and on the engine, unfused
// and fused.
struct EngineScores {
  EngineScore cold;     // string-map reference engine
  EngineScore unfused;  // the engine on CompileKernel output
  EngineScore engine;   // the engine on FuseKernel output
  std::uint32_t superinstructions = 0;
};

EngineScores Race(const ptx::Module& module, const std::string& kernel,
                  const LaunchParams& params, int reps) {
  simgpu::GlobalMemory memory(16ull << 20);
  simgpu::AllowAllPolicy allow;
  ptxexec::Interpreter interp(&memory, &allow, 1);
  EngineScores out;

  for (int rep = 0; rep < reps; ++rep) {
    KeepBest(&out.cold, [&] {
      auto stats = interp.ExecuteReference(module, kernel, params);
      if (!stats.ok()) {
        std::printf("reference run failed: %s\n",
                    stats.status().ToString().c_str());
        std::exit(1);
      }
      return *stats;
    });
  }

  // The one-time lowering and fusion happen outside the measured launches —
  // that is the whole point: launches should not pay per-call rewrite costs.
  const ptx::Kernel* k = module.FindKernel(kernel);
  auto compiled = ptxexec::CompileKernel(*k);
  if (!compiled.ok()) {
    std::printf("compile failed: %s\n", compiled.status().ToString().c_str());
    std::exit(1);
  }
  const ptxexec::CompiledKernel fused = ptxexec::FuseKernel(*compiled);
  out.superinstructions = fused.super_count;
  const auto run = [&](const ptxexec::CompiledKernel& program) {
    auto stats = interp.Execute(program, params);
    if (!stats.ok()) {
      std::printf("engine run failed: %s\n",
                  stats.status().ToString().c_str());
      std::exit(1);
    }
    return *stats;
  };
  // Unfused and fused runs alternate, so host speed drift lands on both
  // sides of the fusion ratio.
  for (int rep = 0; rep < reps; ++rep) {
    KeepBest(&out.unfused, [&] { return run(*compiled); });
    KeepBest(&out.engine, [&] { return run(fused); });
  }
  return out;
}

struct LaunchLatency {
  double load_us = 0.0;    // ModuleLoad: parse [+ patch + compile | cache hit]
  double launch_us = 0.0;  // first launch + sync
};

// ModuleLoad then one launch + sync through the manager, timed separately.
LaunchLatency LoadAndLaunch(guardian::GrdLib& lib, const std::string& ptx,
                            std::uint32_t n) {
  using Clock = std::chrono::steady_clock;
  using UsF = std::chrono::duration<double, std::micro>;
  LaunchLatency out;
  const auto load_begin = Clock::now();
  auto module = lib.cuModuleLoadData(ptx);
  out.load_us = UsF(Clock::now() - load_begin).count();
  if (!module.ok()) {
    std::printf("module load failed: %s\n",
                module.status().ToString().c_str());
    std::exit(1);
  }
  auto fn = lib.cuModuleGetFunction(*module, "copyk");
  if (!fn.ok()) {
    std::printf("get function failed: %s\n", fn.status().ToString().c_str());
    std::exit(1);
  }
  simcuda::DevicePtr src = 0, dst = 0;
  (void)lib.cudaMalloc(&src, n * 4);
  (void)lib.cudaMalloc(&dst, n * 4);
  simcuda::LaunchConfig config;
  config.block = {256, 1, 1};
  config.grid = {(n + 255) / 256, 1, 1};
  const auto launch_begin = Clock::now();
  const Status launched = lib.cudaLaunchKernel(
      *fn, config,
      {KernelArg::U64(src), KernelArg::U64(dst), KernelArg::U32(n)});
  if (!launched.ok()) {
    std::printf("launch failed: %s\n", launched.ToString().c_str());
    std::exit(1);
  }
  (void)lib.cudaDeviceSynchronize();
  out.launch_us = UsF(Clock::now() - launch_begin).count();
  return out;
}

}  // namespace

int main() {
  const bool quick = std::getenv("GRD_BENCH_QUICK") != nullptr;
  const int reps = quick ? 3 : 7;
  const std::uint32_t iters = quick ? 2'000 : 20'000;

  // ---- phase 1: instructions/sec ------------------------------------------
  auto alu_module = ptx::Parse(kAluPtx);
  if (!alu_module.ok()) {
    std::printf("parse failed: %s\n", alu_module.status().ToString().c_str());
    return 1;
  }
  LaunchParams alu_params;
  alu_params.grid = {4, 1, 1};
  alu_params.block = {64, 1, 1};
  alu_params.args = {KernelArg::U64(0x10000), KernelArg::U32(iters)};
  const EngineScores alu = Race(*alu_module, "aluspin", alu_params, reps);

  // Fenced memory traffic: the sandboxed copy kernel every tenant runs.
  ptxpatcher::PatchOptions patch_options;
  auto patched = ptxpatcher::PatchModule(ptx::MakeSampleModule(),
                                         patch_options);
  if (!patched.ok()) {
    std::printf("patch failed: %s\n", patched.status().ToString().c_str());
    return 1;
  }
  const std::uint64_t base = 1ull << 20;
  const std::uint32_t mem_elems = quick ? 16 * 1024 : 64 * 1024;
  const auto grd_args = ptxpatcher::ComputeGrdArgs(
      patch_options.mode, base, 4ull << 20);
  LaunchParams mem_params;
  mem_params.grid = {(mem_elems + 255) / 256, 1, 1};
  mem_params.block = {256, 1, 1};
  mem_params.args = {KernelArg::U64(base), KernelArg::U64(base + (2ull << 20)),
                     KernelArg::U32(mem_elems), KernelArg::U64(grd_args.arg0),
                     KernelArg::U64(grd_args.arg1)};
  const EngineScores mem = Race(*patched, "copyk", mem_params, reps);

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double alu_speedup = ratio(alu.engine.mips, alu.cold.mips);
  const double mem_speedup = ratio(mem.engine.mips, mem.cold.mips);
  const double alu_fusion_speedup = ratio(alu.engine.mips, alu.unfused.mips);
  const double mem_fusion_speedup = ratio(mem.engine.mips, mem.unfused.mips);

  std::printf("interpreter hot path (%d reps, best; Minstr/s)\n\n", reps);
  std::printf("%-22s %-11s %-11s %-11s %-10s %-9s\n", "workload", "cold",
              "unfused", "engine", "vs cold", "fusion");
  std::printf("%-22s %-11.1f %-11.1f %-11.1f %-9.1fx %-8.2fx\n", "alu loop",
              alu.cold.mips, alu.unfused.mips, alu.engine.mips, alu_speedup,
              alu_fusion_speedup);
  std::printf("%-22s %-11.1f %-11.1f %-11.1f %-9.1fx %-8.2fx\n",
              "fenced copy", mem.cold.mips, mem.unfused.mips, mem.engine.mips,
              mem_speedup, mem_fusion_speedup);
  std::printf("superinstructions: alu %u, fenced copy %u\n",
              alu.superinstructions, mem.superinstructions);

  // ---- phase 2: cold vs cached launch -------------------------------------
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::GrdManager manager(&gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport transport(&manager);
  auto cold_tenant = guardian::GrdLib::Connect(&transport, 8ull << 20);
  auto warm_tenant = guardian::GrdLib::Connect(&transport, 8ull << 20);
  if (!cold_tenant.ok() || !warm_tenant.ok()) {
    std::printf("connect failed\n");
    return 1;
  }
  const std::string sample_ptx = ptx::Print(ptx::MakeSampleModule());
  const std::uint32_t launch_elems = quick ? 4 * 1024 : 16 * 1024;
  const LaunchLatency cold = LoadAndLaunch(*cold_tenant, sample_ptx,
                                           launch_elems);
  const auto& stats = manager.stats();
  // The cold load compiled and fused the module once; its first launch ran
  // on the one engine, so every retired instruction sits in slot 2.
  const std::uint64_t superinstructions_fused = stats.superinstructions_fused;
  const std::uint64_t retired_elsewhere =
      stats.tier_instructions[0] + stats.tier_instructions[1];
  const std::uint64_t tier2_instructions = stats.tier_instructions[2];
  const LaunchLatency cached = LoadAndLaunch(*warm_tenant, sample_ptx,
                                             launch_elems);
  const std::uint64_t programs_compiled = stats.ptx_programs_compiled;

  std::printf("\ncold   module load: %9.1f us (parse + patch + compile); "
              "first launch: %9.1f us\n", cold.load_us, cold.launch_us);
  std::printf("cached module load: %9.1f us (cache hit: hash + compare); "
              "first launch: %9.1f us\n", cached.load_us, cached.launch_us);
  std::printf("programs compiled by the manager: %llu (second tenant "
              "recompiled nothing); superinstructions fused: %llu\n",
              static_cast<unsigned long long>(programs_compiled),
              static_cast<unsigned long long>(superinstructions_fused));
  std::printf("\nMANAGER_STATS %s\n", stats.ToJson().c_str());

  // ---- phase 3: tracing overhead gate -------------------------------------
  // The identical manager-path launch workload with the recorder off vs on,
  // as interleaved pairs (alternating which half runs first) so host drift
  // lands on both sides of every ratio. Tracing is per-request spans (client
  // span, dispatch span, queue wait, execution segment) — never
  // per-instruction — so the median on/off ratio must stay within 5%.
  const int trace_pairs = 10;
  const int trace_launches = quick ? 4 : 3;
  simcuda::Gpu trace_gpu(simgpu::QuadroRtxA4000());
  guardian::GrdManager trace_manager(&trace_gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport trace_transport(&trace_manager);
  auto tenant = guardian::GrdLib::Connect(&trace_transport, 8ull << 20);
  if (!tenant.ok()) {
    std::printf("tracing-phase connect failed\n");
    return 1;
  }
  auto module = tenant->cuModuleLoadData(kAluPtx);
  if (!module.ok()) {
    std::printf("tracing-phase load failed: %s\n",
                module.status().ToString().c_str());
    return 1;
  }
  auto fn = tenant->cuModuleGetFunction(*module, "aluspin");
  if (!fn.ok()) {
    std::printf("tracing-phase get function failed: %s\n",
                fn.status().ToString().c_str());
    return 1;
  }
  simcuda::LaunchConfig config;
  config.grid = {4, 1, 1};
  config.block = {64, 1, 1};
  const std::vector<KernelArg> args = {KernelArg::U64(0x10000),
                                       KernelArg::U32(iters)};
  const auto& trace_stats = trace_manager.stats();
  // Minstr/s of `trace_launches` launches with the recorder set to `tracing`.
  const auto sample_mips = [&](bool tracing) {
    obs::TraceRecorder::Instance().Enable(tracing);
    const std::uint64_t before = trace_stats.tier_instructions[2];
    const auto begin = std::chrono::steady_clock::now();
    for (int l = 0; l < trace_launches; ++l) {
      const Status launched = tenant->cudaLaunchKernel(*fn, config, args);
      if (!launched.ok()) {
        std::printf("tracing-phase launch failed: %s\n",
                    launched.ToString().c_str());
        std::exit(1);
      }
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
    return ratio(static_cast<double>(trace_stats.tier_instructions[2] -
                                     before) /
                     1e6,
                 secs);
  };
  (void)sample_mips(false);  // warm the program lookup and the caches
  std::vector<double> off_samples, on_samples, pair_ratios;
  for (int pair = 0; pair < trace_pairs; ++pair) {
    double off = 0.0, on = 0.0;
    if (pair % 2 == 0) {
      off = sample_mips(false);
      on = sample_mips(true);
    } else {
      on = sample_mips(true);
      off = sample_mips(false);
    }
    off_samples.push_back(off);
    on_samples.push_back(on);
    pair_ratios.push_back(ratio(on, off));
  }
  obs::TraceRecorder::Instance().Enable(false);
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  };
  const double tracing_off_mips = median(off_samples);
  const double tracing_on_mips = median(on_samples);
  const double tracing_ratio = median(pair_ratios);
  std::printf("\ntracing overhead (manager path, %d pairs x %d launches): "
              "off %.1f Minstr/s, on %.1f Minstr/s (median pair ratio "
              "%.3fx)\n",
              trace_pairs, trace_launches, tracing_off_mips, tracing_on_mips,
              tracing_ratio);

  bench::JsonLine json;
  json.Add("alu_cold_mips", alu.cold.mips, 2)
      .Add("alu_unfused_mips", alu.unfused.mips, 2)
      .Add("alu_engine_mips", alu.engine.mips, 2)
      .Add("alu_speedup", alu_speedup, 2)
      .Add("alu_fusion_speedup", alu_fusion_speedup, 2)
      .Add("mem_cold_mips", mem.cold.mips, 2)
      .Add("mem_unfused_mips", mem.unfused.mips, 2)
      .Add("mem_engine_mips", mem.engine.mips, 2)
      .Add("mem_speedup", mem_speedup, 2)
      .Add("mem_fusion_speedup", mem_fusion_speedup, 2)
      .Add("cold_load_us", cold.load_us, 1)
      .Add("cached_load_us", cached.load_us, 1)
      .Add("cold_first_launch_us", cold.launch_us, 1)
      .Add("cached_first_launch_us", cached.launch_us, 1)
      .Add("programs_compiled", programs_compiled)
      .Add("superinstructions_fused", superinstructions_fused)
      .Add("tier2_instructions", tier2_instructions)
      .Add("tracing_off_mips", tracing_off_mips, 2)
      .Add("tracing_on_mips", tracing_on_mips, 2)
      .Add("tracing_overhead_ratio", tracing_ratio, 3)
      .Add("quick", quick)
      .Add("schema_version", std::uint64_t{2});
  json.Emit("interpreter");

  bool ok = true;
  if (alu_speedup < 3.0) {
    std::printf("FAIL: alu speedup %.2fx < 3x over the reference\n",
                alu_speedup);
    ok = false;
  }
  if (mem_speedup < 3.0) {
    std::printf("FAIL: fenced-copy speedup %.2fx < 3x over the reference\n",
                mem_speedup);
    ok = false;
  }
  if (alu_fusion_speedup < 1.5) {
    std::printf("FAIL: alu fusion gain %.2fx < 1.5x over unfused\n",
                alu_fusion_speedup);
    ok = false;
  }
  // The fenced copy is load/store bound, so fusion mostly saves dispatches
  // between memory ops: require no regression (within noise) rather than a
  // multiple.
  if (mem_fusion_speedup < 0.9) {
    std::printf("FAIL: fenced-copy fusion gain %.2fx < 0.9x over unfused\n",
                mem_fusion_speedup);
    ok = false;
  }
  if (programs_compiled != 1) {
    std::printf("FAIL: expected exactly 1 compiled program, saw %llu "
                "(cache hit recompiled?)\n",
                static_cast<unsigned long long>(programs_compiled));
    ok = false;
  }
  if (superinstructions_fused == 0) {
    std::printf("FAIL: the cold load fused no superinstructions\n");
    ok = false;
  }
  if (tier2_instructions == 0 || retired_elsewhere != 0) {
    std::printf("FAIL: expected every instruction of the first launch in "
                "slot 2, saw %llu there and %llu in slots 0-1\n",
                static_cast<unsigned long long>(tier2_instructions),
                static_cast<unsigned long long>(retired_elsewhere));
    ok = false;
  }
  if (tracing_ratio < 0.95) {
    std::printf("FAIL: tracing-on throughput %.3fx of tracing-off < 0.95x\n",
                tracing_ratio);
    ok = false;
  }
  return ok ? 0 : 1;
}
