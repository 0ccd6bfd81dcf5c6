// Ablation of Guardian's design choices (DESIGN.md §4):
//
//  A. Bounds-check mechanism x cache residency: why bitwise fencing wins
//     (the §4.4 tradeoff behind choosing AND/OR over modulo/checking).
//  B. Power-of-two partitions: the internal fragmentation they cost for the
//     evaluation apps vs the per-access cycles arbitrary-size (modulo)
//     fencing would cost — the allocator-vs-instruction tradeoff.
//  C. IPC dispatch-cost sensitivity: how much the Figure 6 Guardian-vs-MPS
//     result depends on the manager's per-launch dispatch cost.
//  D. Guard elision vs full per-access patching on the library guardbench
//     serves (the Table 3 cuRAND corpus at seed 1): every kernel launched
//     once natively, fully patched and elided, each with one 32-thread
//     block, an honest pointer and a 1 MiB partition. Reports executed guard
//     instructions, the cold load (parse + validate + patch + compile,
//     median of 5) and the compiled program's bytes for each flavor. Writes
//     the machine-readable line to stdout AND to ./BENCH_guard_elision.json;
//     exits non-zero unless elision removes >= 80% of the executed guard
//     instructions.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/bits.hpp"
#include "common/strings.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptx/validator.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxexec/program.hpp"
#include "ptxpatcher/patcher.hpp"
#include "simgpu/device_spec.hpp"
#include "simgpu/timing.hpp"
#include "workloads/apps.hpp"
#include "workloads/harness.hpp"
#include "workloads/table4.hpp"

namespace {

// One flavor of the library: unpatched (no options), fully patched or
// elided.
struct LibraryFlavor {
  const char* name = nullptr;
  const grd::ptxpatcher::PatchOptions* options = nullptr;
  grd::ptxpatcher::PatchStats stats{};
  std::shared_ptr<const grd::ptxexec::CompiledModule> program{};
  double cold_load_ms = 0;
  std::uint64_t executed = 0;
};

// The manager's sandbox-cache miss: parse, validate, patch (unless native)
// and compile. Exits on failure.
std::shared_ptr<const grd::ptxexec::CompiledModule> ColdLoad(
    const std::string& source, LibraryFlavor& flavor) {
  auto module = grd::ptx::Parse(source);
  grd::Status status =
      module.ok() ? grd::ptx::ValidateOrError(*module) : module.status();
  if (status.ok() && flavor.options != nullptr) {
    flavor.stats = {};
    auto patched =
        grd::ptxpatcher::PatchModule(*module, *flavor.options, &flavor.stats);
    if (patched.ok()) {
      module = std::move(patched);
    } else {
      status = patched.status();
    }
  }
  if (!status.ok()) {
    std::printf("phase D load failed (%s): %s\n", flavor.name,
                status.ToString().c_str());
    std::exit(1);
  }
  return grd::ptxexec::CompiledModule::Compile(*module);
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

  // --- D: guard elision on the served library -----------------------------
  using ptxexec::KernelArg;
  using ptxexec::LaunchParams;
  std::printf("\nD. Guard elision vs full per-access patching on guardbench's "
              "library (Table 3 cuRAND corpus, seed 1)\n\n");
  ptx::Module corpus;
  for (const ptx::LibraryCorpusSpec& spec : ptx::Table3Corpora())
    if (spec.name.rfind("cuRAND", 0) == 0)
      ptx::GenerateCorpus(spec, 1, [&corpus](const ptx::Kernel& kernel) {
        corpus.kernels.push_back(kernel);
      });
  const std::string library = ptx::Print(corpus);

  ptxpatcher::PatchOptions full_options;  // bitwise, elision off
  ptxpatcher::PatchOptions elided_options = full_options;
  elided_options.elision_enabled = true;
  LibraryFlavor flavors[] = {{"native", nullptr},
                             {"full patch", &full_options},
                             {"elision", &elided_options}};
  const std::uint64_t partition_base = 1ull << 20;
  const std::uint64_t partition_size = 1ull << 20;
  const auto grd_args = ptxpatcher::ComputeGrdArgs(
      full_options.mode, partition_base, partition_size);
  for (LibraryFlavor& flavor : flavors) {
    std::vector<double> load_ms;
    for (int rep = 0; rep < 5; ++rep) {
      const auto begin = std::chrono::steady_clock::now();
      flavor.program = ColdLoad(library, flavor);
      load_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - begin)
                            .count());
    }
    std::sort(load_ms.begin(), load_ms.end());
    flavor.cold_load_ms = load_ms[load_ms.size() / 2];

    simgpu::GlobalMemory memory(4ull << 20);
    ptxexec::Interpreter interp(&memory, nullptr, 1);
    for (const ptx::Kernel& kernel : corpus.kernels) {
      LaunchParams params;
      params.block = {32, 1, 1};
      params.args = {KernelArg::U64(partition_base), KernelArg::U32(0)};
      if (flavor.options != nullptr) {
        params.args.push_back(KernelArg::U64(grd_args.arg0));
        params.args.push_back(KernelArg::U64(grd_args.arg1));
      }
      auto program = flavor.program->Find(kernel.name);
      auto stats = program.ok() ? interp.Execute(**program, params)
                                : Result<ptxexec::ExecStats>(program.status());
      if (!stats.ok()) {
        std::printf("phase D launch failed (%s %s): %s\n", flavor.name,
                    kernel.name.c_str(), stats.status().ToString().c_str());
        return 1;
      }
      flavor.executed += stats->instructions;
    }
  }
  const LibraryFlavor& native = flavors[0];
  const LibraryFlavor& full = flavors[1];
  const LibraryFlavor& elided = flavors[2];
  // Guard instructions: what a flavor executes beyond the native kernels.
  const std::uint64_t full_guards = full.executed - native.executed;
  const std::uint64_t elided_guards = elided.executed - native.executed;
  const double guard_reduction =
      full_guards > 0
          ? 1.0 - static_cast<double>(elided_guards) /
                      static_cast<double>(full_guards)
          : 0.0;

  std::printf("%-34s %12s %12s %12s\n", "", native.name, full.name,
              elided.name);
  std::printf("%-34s %12d %12zu %12zu\n", "static inserted instructions", 0,
              full.stats.inserted_instructions,
              elided.stats.inserted_instructions);
  std::printf("%-34s %12d %12llu %12llu\n", "executed guard instructions", 0,
              static_cast<unsigned long long>(full_guards),
              static_cast<unsigned long long>(elided_guards));
  std::printf("%-34s %12.2f %12.2f %12.2f\n", "cold load ms (median of 5)",
              native.cold_load_ms, full.cold_load_ms, elided.cold_load_ms);
  std::printf("%-34s %12llu %12llu %12llu\n", "compiled program bytes",
              static_cast<unsigned long long>(native.program->bytes()),
              static_cast<unsigned long long>(full.program->bytes()),
              static_cast<unsigned long long>(elided.program->bytes()));
  std::printf("\nguard elision over %zu kernels: %zu accesses reuse a fence; "
              "%.1f%% fewer executed guard instructions\n",
              corpus.kernels.size(), elided.stats.guards_elided,
              100.0 * guard_reduction);

  bench::JsonLine json;
  json.Add("kernels", corpus.kernels.size())
      .Add("full_inserted", full.stats.inserted_instructions)
      .Add("elided_inserted", elided.stats.inserted_instructions)
      .Add("guards_elided", elided.stats.guards_elided)
      .Add("native_instructions", native.executed)
      .Add("full_guard_instructions", full_guards)
      .Add("elided_guard_instructions", elided_guards)
      .Add("guard_reduction", guard_reduction, 3)
      .Add("native_cold_load_ms", native.cold_load_ms, 2)
      .Add("full_cold_load_ms", full.cold_load_ms, 2)
      .Add("elided_cold_load_ms", elided.cold_load_ms, 2)
      .Add("native_bytes", native.program->bytes())
      .Add("full_bytes", full.program->bytes())
      .Add("elided_bytes", elided.program->bytes())
      .Add("schema_version", std::uint64_t{1});
  json.Emit("guard_elision");

  if (guard_reduction < 0.80) {
    std::printf("FAIL: executed guard reduction %.1f%% < 80%%\n",
                100.0 * guard_reduction);
    return 1;
  }
  return 0;
}
