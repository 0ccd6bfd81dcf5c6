// Kernel-execution hot path on the one engine, plus cold vs cached launch
// latency through the grdManager's compiled-program cache.
//
//  phase 1 — Minstr/s on an ALU-heavy loop kernel, on a patched (fenced)
//            memory-copy kernel, and on the two kernels guardbench's
//            tenants launch most, patched and run as the manager runs them
//            (bitwise fencing with guard elision, no access policy): cuBLAS
//            grd_sgemm at 32x32x32 and saxpy over 1024 floats. Each runs
//            three ways:
//              cold     — the seed string-map reference engine
//              unfused  — the engine on CompileKernel output: one dispatch
//                         per instruction
//              engine   — the engine on FuseKernel output, which is what
//                         every launch runs: the whole loop body retires
//                         per dispatch
//            The served kernels' fused program is also launched one launch
//            at a time (200 launches quick, 400 full), and the median wall
//            time per launch is reported.
//  phase 2 — ModuleLoad + first-launch latency for a cold tenant (parse +
//            patch + compile + fuse) vs fresh tenants whose identical PTX
//            hits the sandbox cache (hash + source compare only); the
//            cached figures are medians over kWarmTenants tenants.
//  phase 3 — tracing overhead gate: the same manager-path launch workload
//            with tracing off vs on (spans emitted for every request,
//            queue wait and execution segment), as interleaved off/on pairs;
//            the median on/off ratio must stay within 5%.
//
// Exits non-zero unless the engine is >= 3x the reference on the ALU loop
// and the fenced copy, fusion is >= 1.5x the unfused program on the hot ALU
// loop (>= 0.9x on the memory copy — fencing is load/store bound), the cold
// load compiled exactly one fused program (superinstructions counted) whose
// first launch retired every instruction in the engine's slot, the cache
// hits compiled nothing and cost at most 0.15x the cold load, and tracing
// stays within 5%. The served kernels carry no gate: their rates and their
// median per-launch wall times are wall time, and their instruction counts
// and replayed block phases (0 while they run in lockstep) are reported for
// comparison. Writes
// the machine-readable line to stdout AND to ./BENCH_interpreter.json.
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
#include "ptxexec/reference.hpp"
#include "ptxpatcher/patcher.hpp"
#include "simgpu/device_spec.hpp"
#include "simlibs/kernels_ptx.hpp"

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

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct EngineScore {
  double mips = 0.0;  // million interpreted instructions per second
  std::uint64_t instructions = 0;
  std::uint64_t replays = 0;  // block phases replayed in thread order
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
  std::uint64_t replays = 0;
  for (const std::uint64_t n : stats.replayed_phases) replays += n;
  if (mips > best->mips) *best = EngineScore{mips, stats.instructions, replays};
}

// One kernel/launch measured on the reference and on the engine, unfused
// and fused.
struct EngineScores {
  EngineScore cold;     // string-map reference engine
  EngineScore unfused;  // the engine on CompileKernel output
  EngineScore engine;   // the engine on FuseKernel output
  std::uint32_t superinstructions = 0;
  double launch_us = 0.0;  // median wall time of one fused launch
};

// `timed_launches` > 0 also times that many back-to-back launches of the
// fused program, one at a time, into EngineScores::launch_us: a median of
// many short launches moves less with the host than a best-of-reps rate.
EngineScores Race(const ptx::Module& module, const std::string& kernel,
                  const LaunchParams& params, int reps,
                  int timed_launches = 0) {
  simgpu::GlobalMemory memory(16ull << 20);
  ptxexec::Interpreter interp(&memory, nullptr, 1);
  ptxexec::ReferenceInterpreter reference(&memory, nullptr, 1);
  EngineScores out;

  for (int rep = 0; rep < reps; ++rep) {
    KeepBest(&out.cold, [&] {
      auto stats = reference.Execute(module, kernel, params);
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
  std::vector<double> launch_us;
  for (int l = 0; l < timed_launches; ++l) {
    const auto begin = std::chrono::steady_clock::now();
    (void)run(fused);
    launch_us.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - begin)
                            .count());
  }
  if (!launch_us.empty()) out.launch_us = Median(std::move(launch_us));
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

  // The served kernels, patched as the manager patches them by default.
  ptxpatcher::PatchOptions served_options;
  served_options.elision_enabled = true;
  const auto served_grd = ptxpatcher::ComputeGrdArgs(served_options.mode,
                                                     base, 1ull << 20);
  auto cublas = ptx::Parse(std::string(simlibs::CublasPtx()));
  ptx::Module saxpy_native;
  saxpy_native.kernels.push_back(ptx::MakeSaxpyKernel("saxpy"));
  if (!cublas.ok()) {
    std::printf("parse failed: %s\n", cublas.status().ToString().c_str());
    return 1;
  }
  auto served_sgemm = ptxpatcher::PatchModule(*cublas, served_options);
  auto served_saxpy = ptxpatcher::PatchModule(saxpy_native, served_options);
  if (!served_sgemm.ok() || !served_saxpy.ok()) {
    std::printf("patch of the served kernels failed\n");
    return 1;
  }
  constexpr std::uint32_t kGemm = 32;  // m = n = k, guardbench's size
  LaunchParams sgemm_params;
  sgemm_params.grid = {kGemm * kGemm / 128, 1, 1};
  sgemm_params.block = {128, 1, 1};
  sgemm_params.args = {KernelArg::U64(base), KernelArg::U64(base + 0x1000),
                       KernelArg::U64(base + 0x2000), KernelArg::U32(kGemm),
                       KernelArg::U32(kGemm), KernelArg::U32(kGemm),
                       KernelArg::U64(served_grd.arg0),
                       KernelArg::U64(served_grd.arg1)};
  const int timed_launches = quick ? 200 : 400;
  const EngineScores sgemm = Race(*served_sgemm, "grd_sgemm", sgemm_params,
                                  reps, timed_launches);
  constexpr std::uint32_t kVector = 1024;
  LaunchParams saxpy_params;
  saxpy_params.grid = {kVector / 256, 1, 1};
  saxpy_params.block = {256, 1, 1};
  saxpy_params.args = {KernelArg::U64(base), KernelArg::U64(base + 0x1000),
                       KernelArg::F32(1.5f), KernelArg::U32(kVector),
                       KernelArg::U64(served_grd.arg0),
                       KernelArg::U64(served_grd.arg1)};
  const EngineScores saxpy =
      Race(*served_saxpy, "saxpy", saxpy_params, reps, timed_launches);

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
  const auto served_row = [&](const char* name, const EngineScores& e) {
    std::printf("%-22s %-11.1f %-11.1f %-11.1f %-9.1fx %-8.2fx\n", name,
                e.cold.mips, e.unfused.mips, e.engine.mips,
                ratio(e.engine.mips, e.cold.mips),
                ratio(e.engine.mips, e.unfused.mips));
  };
  served_row("served sgemm 32^3", sgemm);
  served_row("served saxpy 1024", saxpy);
  std::printf("superinstructions: alu %u, fenced copy %u, sgemm %u, saxpy "
              "%u; instructions per launch: sgemm %llu, saxpy %llu; phases "
              "replayed per launch: sgemm %llu, saxpy %llu\n",
              alu.superinstructions, mem.superinstructions,
              sgemm.superinstructions, saxpy.superinstructions,
              static_cast<unsigned long long>(sgemm.engine.instructions),
              static_cast<unsigned long long>(saxpy.engine.instructions),
              static_cast<unsigned long long>(sgemm.engine.replays),
              static_cast<unsigned long long>(saxpy.engine.replays));
  std::printf("served launch wall time (median of %d fused launches): "
              "sgemm %.1f us, saxpy %.1f us\n",
              timed_launches, sgemm.launch_us, saxpy.launch_us);

  // ---- phase 2: cold vs cached launch -------------------------------------
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::GrdManager manager(&gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport transport(&manager);
  auto cold_tenant = guardian::GrdLib::Connect(&transport, 8ull << 20);
  if (!cold_tenant.ok()) {
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
  // Fresh tenants loading the identical PTX: every load is a cache hit, so
  // none of them may compile. Medians, since one hit costs microseconds and
  // a single sample is at the mercy of the scheduler.
  constexpr int kWarmTenants = 5;
  std::vector<double> warm_load_us, warm_launch_us;
  for (int t = 0; t < kWarmTenants; ++t) {
    auto warm_tenant = guardian::GrdLib::Connect(&transport, 8ull << 20);
    if (!warm_tenant.ok()) {
      std::printf("connect failed\n");
      return 1;
    }
    const LaunchLatency warm =
        LoadAndLaunch(*warm_tenant, sample_ptx, launch_elems);
    warm_load_us.push_back(warm.load_us);
    warm_launch_us.push_back(warm.launch_us);
  }
  const LaunchLatency cached{Median(warm_load_us), Median(warm_launch_us)};
  const double cached_load_ratio = ratio(cached.load_us, cold.load_us);
  const std::uint64_t programs_compiled = stats.ptx_programs_compiled;

  std::printf("\ncold   module load: %9.1f us (parse + patch + compile); "
              "first launch: %9.1f us\n", cold.load_us, cold.launch_us);
  std::printf("cached module load: %9.1f us (cache hit: hash + compare); "
              "first launch: %9.1f us (medians of %d tenants; %.3fx cold)\n",
              cached.load_us, cached.launch_us, kWarmTenants,
              cached_load_ratio);
  std::printf("programs compiled by the manager: %llu (cached tenants "
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
  const double tracing_off_mips = Median(off_samples);
  const double tracing_on_mips = Median(on_samples);
  const double tracing_ratio = Median(pair_ratios);
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
      .Add("schema_version", std::uint64_t{2})
      .Add("sgemm_cold_mips", sgemm.cold.mips, 2)
      .Add("sgemm_unfused_mips", sgemm.unfused.mips, 2)
      .Add("sgemm_engine_mips", sgemm.engine.mips, 2)
      .Add("sgemm_speedup", ratio(sgemm.engine.mips, sgemm.cold.mips), 2)
      .Add("sgemm_fusion_speedup",
           ratio(sgemm.engine.mips, sgemm.unfused.mips), 2)
      .Add("sgemm_instructions", sgemm.engine.instructions)
      .Add("saxpy_cold_mips", saxpy.cold.mips, 2)
      .Add("saxpy_unfused_mips", saxpy.unfused.mips, 2)
      .Add("saxpy_engine_mips", saxpy.engine.mips, 2)
      .Add("saxpy_speedup", ratio(saxpy.engine.mips, saxpy.cold.mips), 2)
      .Add("saxpy_fusion_speedup",
           ratio(saxpy.engine.mips, saxpy.unfused.mips), 2)
      .Add("saxpy_instructions", saxpy.engine.instructions)
      .Add("sgemm_replays", sgemm.engine.replays)
      .Add("saxpy_replays", saxpy.engine.replays)
      .Add("sgemm_launch_us", sgemm.launch_us, 1)
      .Add("saxpy_launch_us", saxpy.launch_us, 1);
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
  // A hit costs one hash plus one source compare; parse, validation, patch
  // and compile belong to the cold load alone.
  if (cached_load_ratio > 0.15) {
    std::printf("FAIL: cached load %.1f us is %.3fx the cold load's %.1f us "
                "> 0.15x\n",
                cached.load_us, cached_load_ratio, cold.load_us);
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
