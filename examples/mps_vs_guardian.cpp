// Scenario: the §2.2 fault-isolation experiment.
//
// The same two-tenant OOB attack is run under three sharing mechanisms:
//   1. a bare shared context (GPU streams, Figure 1)  -> silent corruption;
//   2. NVIDIA MPS                                      -> everyone dies;
//   3. Guardian (bitwise fencing)                      -> victim unharmed,
//      attacker confined to its own partition.
#include <cstdio>

#include "baselines/mps.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptxexec/interpreter.hpp"
#include "simgpu/device_spec.hpp"

using namespace grd;
using ptxexec::KernelArg;
using simcuda::DevicePtr;

namespace {

const std::string kPtx = ptx::Print(ptx::MakeSampleModule());

void SharedContextScenario() {
  std::printf("--- 1. bare shared context (spatial sharing, no checks) ---\n");
  simgpu::GlobalMemory memory(64ull << 20);
  // One context, one address space: no per-access policy.
  ptxexec::Interpreter interp(&memory, /*policy=*/nullptr, /*client=*/1);
  auto module = ptx::Parse(kPtx);

  const std::uint64_t attacker_buf = 1ull << 20;
  const std::uint64_t victim_buf = 8ull << 20;
  (void)memory.Store<std::uint32_t>(victim_buf, 777);

  ptxexec::LaunchParams params;
  params.args = {KernelArg::U64(attacker_buf),
                 KernelArg::U64(victim_buf - attacker_buf),
                 KernelArg::U32(666)};
  (void)interp.Execute(*module, "oob_writer", params);
  const auto v = memory.Load<std::uint32_t>(victim_buf);
  std::printf("victim data after attack: %u  -> %s\n\n", *v,
              *v == 777 ? "intact" : "SILENTLY CORRUPTED");
}

void MpsScenario() {
  std::printf("--- 2. NVIDIA MPS ---\n");
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  baselines::MpsServer server(&gpu);
  auto attacker = server.CreateClient();
  auto victim = server.CreateClient();

  DevicePtr victim_buf = 0;
  (void)victim->cudaMalloc(&victim_buf, 4096);
  DevicePtr mine = 0;
  (void)attacker->cudaMalloc(&mine, 4096);
  auto module = attacker->cuModuleLoadData(kPtx);
  auto fn = attacker->cuModuleGetFunction(*module, "oob_writer");

  const Status s = attacker->cudaLaunchKernel(
      *fn, simcuda::LaunchConfig{},
      {KernelArg::U64(mine), KernelArg::U64(victim_buf - mine),
       KernelArg::U32(666)});
  std::printf("attack launch: %s\n", s.ToString().c_str());
  DevicePtr probe = 0;
  const Status victim_alive = victim->cudaMalloc(&probe, 64);
  std::printf("innocent victim's next call: %s  -> %s\n\n",
              victim_alive.ToString().c_str(),
              victim_alive.ok() ? "survived" : "KILLED BY NEIGHBOUR'S FAULT");
}

void GuardianScenario() {
  std::printf("--- 3. Guardian (address fencing, bitwise) ---\n");
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::GrdManager manager(&gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport transport(&manager);
  auto attacker = guardian::GrdLib::Connect(&transport, 1 << 20);
  auto victim = guardian::GrdLib::Connect(&transport, 1 << 20);

  DevicePtr victim_buf = 0;
  (void)victim->cudaMalloc(&victim_buf, 4096);
  const std::uint32_t secret = 777;
  (void)victim->cudaMemcpyH2D(victim_buf, &secret, 4);
  DevicePtr mine = 0;
  (void)attacker->cudaMalloc(&mine, 4096);
  auto module = attacker->cuModuleLoadData(kPtx);
  auto fn = attacker->cuModuleGetFunction(*module, "oob_writer");

  const Status s = attacker->cudaLaunchKernel(
      *fn, simcuda::LaunchConfig{},
      {KernelArg::U64(mine), KernelArg::U64(victim_buf - mine),
       KernelArg::U32(666)});
  std::printf("attack launch: %s\n", s.ToString().c_str());

  std::uint32_t check = 0;
  (void)victim->cudaMemcpy(&check, victim_buf, 4,
                           simcuda::MemcpyKind::kDeviceToHost);
  DevicePtr probe = 0;
  const Status victim_alive = victim->cudaMalloc(&probe, 64);
  std::printf("victim data: %u, victim's next call: %s  -> %s\n", check,
              victim_alive.ToString().c_str(),
              check == 777 && victim_alive.ok() ? "fully isolated"
                                                : "ISOLATION FAILED");
}

}  // namespace

int main() {
  std::printf("Fault isolation under three sharing mechanisms "
              "(paper §2.2, Table 1)\n\n");
  SharedContextScenario();
  MpsScenario();
  GuardianScenario();
  return 0;
}
