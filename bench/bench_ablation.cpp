// Ablation of Guardian's design choices (DESIGN.md §4):
//
//  A. Bounds-check mechanism x cache residency: why bitwise fencing wins
//     (the §4.4 tradeoff behind choosing AND/OR over modulo/checking).
//  B. Power-of-two partitions: the internal fragmentation they cost for the
//     evaluation apps vs the per-access cycles arbitrary-size (modulo)
//     fencing would cost — the allocator-vs-instruction tradeoff.
//  C. IPC dispatch-cost sensitivity: how much the Figure 6 Guardian-vs-MPS
//     result depends on the manager's per-launch dispatch cost.
//  D. Guard elision: the patcher's CFG/loop analysis vs full per-access
//     patching on a fenced-loop corpus — static inserted instructions,
//     dynamically executed guard instructions, and effective throughput of
//     the engine on the unfused (CompileKernel) program of the hot
//     pointer-walk loop. Writes the machine-readable
//     line to stdout AND to ./BENCH_guard_elision.json; exits non-zero
//     unless elision removes >= 40% of the executed guard instructions and
//     delivers >= 1.3x effective Minstr/s on the hot loop. GRD_BENCH_QUICK=1
//     shrinks phase D for CI smoke runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.hpp"
#include "common/bits.hpp"
#include "common/strings.hpp"
#include "ptx/generator.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxpatcher/patcher.hpp"
#include "simgpu/device_spec.hpp"
#include "simgpu/timing.hpp"
#include "workloads/apps.hpp"
#include "workloads/harness.hpp"
#include "workloads/table4.hpp"

namespace {

// Executed-instruction count of one engine run (exits on failure).
std::uint64_t RunInstructions(const grd::ptx::Module& module,
                              const std::string& kernel,
                              const grd::ptxexec::LaunchParams& params) {
  grd::simgpu::GlobalMemory memory(8ull << 20);
  grd::simgpu::AllowAllPolicy allow;
  grd::ptxexec::Interpreter interp(&memory, &allow, 1);
  auto stats = interp.Execute(module, kernel, params);
  if (!stats.ok()) {
    std::printf("phase D run failed (%s): %s\n", kernel.c_str(),
                stats.status().ToString().c_str());
    std::exit(1);
  }
  return stats->instructions;
}

// Best-of-`reps` wall time of the hot loop on the engine, in seconds. The
// loop runs CompileKernel output without the fusion pass, so the gate
// measures what elision saves per executed instruction. The one-time
// lowering happens outside the timed region, like every launch after the
// first through the manager's compiled-program cache.
double RunSecondsBest(const grd::ptx::Module& module, const std::string& kernel,
                      const grd::ptxexec::LaunchParams& params, int reps) {
  using Clock = std::chrono::steady_clock;
  grd::simgpu::GlobalMemory memory(8ull << 20);
  grd::simgpu::AllowAllPolicy allow;
  grd::ptxexec::Interpreter interp(&memory, &allow, 1);
  const grd::ptx::Kernel* k = module.FindKernel(kernel);
  auto compiled = grd::ptxexec::CompileKernel(*k);
  if (!compiled.ok()) {
    std::printf("phase D compile failed: %s\n",
                compiled.status().ToString().c_str());
    std::exit(1);
  }
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto begin = Clock::now();
    auto stats = interp.Execute(*compiled, params);
    const double secs =
        std::chrono::duration<double>(Clock::now() - begin).count();
    if (!stats.ok()) {
      std::printf("phase D timed run failed: %s\n",
                  stats.status().ToString().c_str());
      std::exit(1);
    }
    if (secs < best) best = secs;
  }
  return best;
}

}  // namespace

int main() {
  using namespace grd;
  using namespace grd::workloads;
  const simgpu::DeviceSpec spec = simgpu::QuadroRtxA4000();
  const simgpu::TimingModel model(spec);

  // --- A: mechanism x cache residency -----------------------------------
  std::printf("A. Fencing overhead vs cache residency (pure-memory kernel)\n\n");
  std::printf("%-12s %10s %10s %10s\n", "L1 hit", "bitwise", "modulo",
              "checking");
  for (const double l1 : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    simgpu::KernelProfile profile;
    profile.loads = 100;
    profile.cache.l1_hit = l1;
    profile.cache.l2_hit = 0.72;
    std::printf("%-12.0f %9.1f%% %9.1f%% %9.1f%%\n", 100 * l1,
                100 * model.RelativeOverhead(
                          profile, simgpu::ProtectionMode::kFencingBitwise),
                100 * model.RelativeOverhead(
                          profile, simgpu::ProtectionMode::kFencingModulo),
                100 * model.RelativeOverhead(
                          profile, simgpu::ProtectionMode::kChecking));
  }

  // --- B: power-of-two rounding waste ------------------------------------
  std::printf("\nB. Power-of-two partition rounding (the §4.4 allocator "
              "tradeoff)\n\n");
  std::printf("%-14s %12s %12s %8s\n", "app", "requested", "partition",
              "waste");
  double total_requested = 0, total_partition = 0;
  for (const auto& name : AllAppNames()) {
    const AppSpec& app = GetApp(name);
    const std::uint64_t partition = NextPowerOfTwo(app.memory_bytes);
    total_requested += static_cast<double>(app.memory_bytes);
    total_partition += static_cast<double>(partition);
    std::printf("%-14s %12s %12s %7.0f%%\n", name.c_str(),
                HumanBytes(app.memory_bytes).c_str(),
                HumanBytes(partition).c_str(),
                100.0 * (static_cast<double>(partition) /
                             static_cast<double>(app.memory_bytes) -
                         1.0));
  }
  std::printf("\naverage rounding waste: %.0f%%; the alternative (modulo "
              "fencing, arbitrary sizes) costs %+0.0f cycles per access "
              "instead of %.0f\n",
              100.0 * (total_partition / total_requested - 1.0),
              model.ProtectionCyclesPerAccess(
                  simgpu::ProtectionMode::kFencingModulo, 0.0),
              model.ProtectionCyclesPerAccess(
                  simgpu::ProtectionMode::kFencingBitwise, 0.0));

  // --- C: dispatch-cost sensitivity ---------------------------------------
  std::printf("\nC. Sensitivity of the Figure 6 average to the manager's "
              "per-launch dispatch cost\n\n");
  std::printf("%-18s %14s %14s\n", "dispatch cycles", "fencing/MPS",
              "fencing/native");
  for (const double dispatch : {250.0, 750.0, 1500.0, 3000.0, 6000.0}) {
    Harness harness(spec);
    const_cast<HostCostModel&>(harness.costs()).guardian_dispatch = dispatch;
    double vs_mps = 0, vs_native = 0;
    int count = 0;
    for (const auto& mix : Table4Workloads()) {
      const auto runs = Harness::ExpandMix(mix, 20);
      const double mps =
          harness.RunColocated(runs, Deployment::kMps).total_cycles;
      const double native =
          harness.RunColocated(runs, Deployment::kNative).total_cycles;
      const double fence =
          harness.RunColocated(runs, Deployment::kGuardianBitwise)
              .total_cycles;
      vs_mps += fence / mps;
      vs_native += fence / native;
      ++count;
    }
    std::printf("%-18.0f %+13.1f%% %+13.1f%%\n", dispatch,
                100.0 * (vs_mps / count - 1.0),
                100.0 * (vs_native / count - 1.0));
  }
  std::printf("\nEven at 4x the calibrated dispatch cost, spatial Guardian "
              "stays well ahead of time-sharing; the MPS gap is what moves.\n");

  // --- D: guard elision vs full per-access patching -----------------------
  using ptxexec::KernelArg;
  using ptxexec::LaunchParams;
  const bool quick = std::getenv("GRD_BENCH_QUICK") != nullptr;
  std::printf("\nD. Guard elision (patcher CFG/loop analysis) vs full "
              "per-access patching\n\n");

  // Fenced-loop corpus: two affine pointer-walk loops (versioned behind one
  // preheader range check) and a straight-line repeated-RMW kernel (fences
  // dominated by identical earlier fences).
  ptx::Module corpus;
  corpus.kernels.push_back(ptx::MakePointerWalkKernel("walk1", 1));
  corpus.kernels.push_back(ptx::MakePointerWalkKernel("walk2", 2));
  corpus.kernels.push_back(ptx::MakeRepeatedRmwKernel("rmw", 4));

  ptxpatcher::PatchOptions full_options;  // bitwise, elision off
  ptxpatcher::PatchStats full_stats;
  auto full = ptxpatcher::PatchModule(corpus, full_options, &full_stats);
  ptxpatcher::PatchOptions elide_options;
  elide_options.elision_enabled = true;
  ptxpatcher::PatchStats elide_stats;
  auto elided = ptxpatcher::PatchModule(corpus, elide_options, &elide_stats);
  if (!full.ok() || !elided.ok()) {
    std::printf("phase D patch failed\n");
    return 1;
  }

  // Dynamic guard cost: executed instructions of each patched flavor minus
  // the unpatched kernel, summed over the corpus. This is the number that
  // matters — a versioned loop trades a constant preheader check (plus a
  // never-executed slow clone, which inflates the *static* count) for zero
  // in-loop fences.
  const std::uint64_t elision_base = 1ull << 20;  // 1 MiB partition, aligned
  const std::uint64_t elision_size = 1ull << 20;
  const auto elision_grd = ptxpatcher::ComputeGrdArgs(
      full_options.mode, elision_base, elision_size);
  const std::uint32_t dyn_iters = quick ? 32 : 128;
  std::uint64_t native_dyn = 0, full_dyn = 0, elided_dyn = 0;
  for (const auto& k : corpus.kernels) {
    LaunchParams params;
    params.block = {32, 1, 1};
    params.args = {KernelArg::U64(elision_base)};
    if (k.name != "rmw") params.args.push_back(KernelArg::U32(dyn_iters));
    LaunchParams patched_params = params;
    patched_params.args.push_back(KernelArg::U64(elision_grd.arg0));
    patched_params.args.push_back(KernelArg::U64(elision_grd.arg1));
    native_dyn += RunInstructions(corpus, k.name, params);
    full_dyn += RunInstructions(*full, k.name, patched_params);
    elided_dyn += RunInstructions(*elided, k.name, patched_params);
  }
  const std::uint64_t full_guards = full_dyn - native_dyn;
  const std::uint64_t elided_guards = elided_dyn - native_dyn;
  const double guard_reduction =
      full_guards > 0
          ? 1.0 - static_cast<double>(elided_guards) /
                      static_cast<double>(full_guards)
          : 0.0;

  // Hot-loop throughput: effective Minstr/s = native-equivalent instructions
  // per second, so both flavors are scored on useful work, not on how many
  // guard instructions they manage to retire.
  const std::uint32_t hot_iters = quick ? 256 : 2048;
  LaunchParams hot;
  hot.block = {32, 1, 1};
  hot.args = {KernelArg::U64(elision_base), KernelArg::U32(hot_iters),
              KernelArg::U64(elision_grd.arg0),
              KernelArg::U64(elision_grd.arg1)};
  LaunchParams hot_native = hot;
  hot_native.args.resize(2);
  const std::uint64_t hot_useful =
      RunInstructions(corpus, "walk2", hot_native);
  const int reps = quick ? 3 : 7;
  const double full_secs = RunSecondsBest(*full, "walk2", hot, reps);
  const double elided_secs = RunSecondsBest(*elided, "walk2", hot, reps);
  const double full_mips =
      static_cast<double>(hot_useful) / full_secs / 1e6;
  const double elided_mips =
      static_cast<double>(hot_useful) / elided_secs / 1e6;
  const double speedup = full_mips > 0.0 ? elided_mips / full_mips : 0.0;

  std::printf("%-34s %12s %12s\n", "", "full patch", "elision");
  std::printf("%-34s %12llu %12llu\n", "static inserted instructions",
              static_cast<unsigned long long>(full_stats.inserted_instructions),
              static_cast<unsigned long long>(
                  elide_stats.inserted_instructions));
  std::printf("%-34s %12llu %12llu\n", "executed guard instructions",
              static_cast<unsigned long long>(full_guards),
              static_cast<unsigned long long>(elided_guards));
  std::printf("%-34s %12.1f %12.1f\n", "hot-loop effective Minstr/s",
              full_mips, elided_mips);
  std::printf("\nguard elision: %llu elided, %llu hoisted, %llu loops "
              "versioned; %.0f%% fewer executed guard instructions, %.2fx "
              "hot-loop throughput\n",
              static_cast<unsigned long long>(elide_stats.guards_elided),
              static_cast<unsigned long long>(elide_stats.guards_hoisted),
              static_cast<unsigned long long>(elide_stats.loop_range_checks),
              100.0 * guard_reduction, speedup);

  bench::JsonLine json;
  json.Add("full_inserted", full_stats.inserted_instructions)
      .Add("elided_inserted", elide_stats.inserted_instructions)
      .Add("full_guard_instructions", full_guards)
      .Add("elided_guard_instructions", elided_guards)
      .Add("guard_reduction", guard_reduction, 3)
      .Add("guards_elided", elide_stats.guards_elided)
      .Add("guards_hoisted", elide_stats.guards_hoisted)
      .Add("loop_range_checks", elide_stats.loop_range_checks)
      .Add("hot_full_mips", full_mips, 2)
      .Add("hot_elided_mips", elided_mips, 2)
      .Add("hot_speedup", speedup, 2)
      .Add("quick", quick);
  json.Emit("guard_elision");

  bool ok = true;
  if (guard_reduction < 0.40) {
    std::printf("FAIL: executed guard reduction %.0f%% < 40%%\n",
                100.0 * guard_reduction);
    ok = false;
  }
  if (speedup < 1.3) {
    std::printf("FAIL: hot-loop speedup %.2fx < 1.3x\n", speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
