// Multi-device fleet coverage (ctest label `process`): session adoption and
// live migration.
//
// The death test SIGKILLs the only worker mid-kernel and proves the session
// is ADOPTED, not failed: the respawned worker rebuilds it from the shared
// journal under the SAME client id and partition bounds, the interrupted
// launch resumes from its journaled block checkpoint, and the grid total in
// kernel_blocks_executed stays exact — no completed block replayed, no block
// lost with the dead worker. The thread-mode tests cover least-loaded
// placement at registration and GrdManager::Migrate moving a session (memory
// bytes included) between devices while one of its kernels is mid-grid.
//
// Children never run gtest assertions: they report through exit codes and
// arm alarm() as a hang backstop, following the process_mode_test pattern.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/process_server.hpp"
#include "guardian/shared_state.hpp"
#include "guardian/transport.hpp"
#include "simgpu/device_spec.hpp"

namespace grd::guardian {
namespace {

using ptxexec::KernelArg;
using simcuda::DevicePtr;

// Finite kernel with tunable per-block work: every block spins `iters`
// times, then stores its id. Long enough to be killed (or migrated) with
// only a prefix of the grid checkpointed, short enough that the resumed
// remainder finishes well inside the alarm() backstop.
constexpr char kBlockWorkPtx[] = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry blockwork(
    .param .u64 dst,
    .param .u32 iters
)
{
    .reg .b32 %r<6>;
    .reg .b64 %rd<4>;
    .reg .pred %p1;
    mov.u32 %r1, %ctaid.x;
    ld.param.u32 %r4, [iters];
    mov.u32 %r2, 0;
LOOP:
    add.s32 %r2, %r2, 1;
    setp.lt.u32 %p1, %r2, %r4;
    @%p1 bra LOOP;
    ld.param.u64 %rd1, [dst];
    cvta.to.global.u64 %rd2, %rd1;
    mul.wide.u32 %rd3, %r1, 4;
    add.s64 %rd2, %rd2, %rd3;
    st.global.u32 [%rd2], %r1;
    ret;
}
)";

constexpr std::uint32_t kBlocks = 64;
constexpr std::uint32_t kIters = 200'000;

pid_t ForkChild(const std::function<int()>& body) {
  const pid_t pid = fork();
  if (pid == 0) {
    alarm(30);  // hang backstop: SIGALRM-terminated children fail the test
    _exit(body());
  }
  return pid;
}

int WaitExit(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

bool PollUntil(const std::function<bool()>& predicate, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// Completed blocks the (single) active session has journaled so far.
std::uint64_t JournaledBlocks(SharedServingState& state,
                              std::uint32_t max_sessions) {
  for (std::uint32_t i = 0; i < max_sessions; ++i) {
    SharedSessionSlot& slot = state.session_slot(i);
    if (slot.state.load(std::memory_order_acquire) !=
        static_cast<std::uint32_t>(SessionSlotState::kActive))
      continue;
    std::uint64_t done = 0;
    for (const auto& word : slot.journal.pending_done)
      done += static_cast<std::uint64_t>(
          __builtin_popcountll(word.load(std::memory_order_acquire)));
    return done;
  }
  return 0;
}

// ---- adoption: worker SIGKILLed mid-kernel --------------------------------

TEST(AdoptionTest, KilledWorkerSessionIsAdoptedAndKernelResumesMidGrid) {
  ProcessServerOptions options;
  options.workers = 1;
  options.channels = 1;
  options.layout.ring_bytes = 1 << 20;
  // The work kernel must genuinely run until SIGKILLed, not trip the budget.
  options.manager.max_kernel_instructions = 1ull << 40;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  int ready[2];  // client -> test: "work launch is next"
  ASSERT_EQ(pipe(ready), 0);

  // The client sends ONE synchronous launch and expects it to succeed: the
  // kill lands mid-grid, the supervisor answers kUnavailable synthetically,
  // and grdLib's attach-first recovery must resume the kernel transparently
  // on the respawned worker — same client id, same partition, no replay.
  const pid_t client = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(0));
    GrdLibOptions recovery;
    recovery.recovery_attempts = 20;
    auto lib = GrdLib::Connect(&transport, 8 << 20, recovery);
    if (!lib.ok()) return 10;
    const ClientId id = lib->client_id();
    const std::uint64_t base = lib->partition_base();

    auto module = lib->cuModuleLoadData(kBlockWorkPtx);
    if (!module.ok()) return 11;
    auto fn = lib->cuModuleGetFunction(*module, "blockwork");
    if (!fn.ok()) return 12;
    DevicePtr dst = 0;
    if (!lib->cudaMalloc(&dst, kBlocks * 4).ok()) return 13;
    simcuda::EventId before_kill = 0;
    if (!lib->cudaEventCreateWithFlags(&before_kill, 0).ok()) return 23;

    if (write(ready[1], "L", 1) != 1) return 14;
    simcuda::LaunchConfig config;
    config.grid = {kBlocks, 1, 1};
    config.block = {1, 1, 1};
    // Default stream: synchronous — the worker dies underneath this call.
    const Status done = lib->cudaLaunchKernel(
        *fn, config, {KernelArg::U64(dst), KernelArg::U32(kIters)});
    if (!done.ok()) return 15;

    // Adoption, not a rebuild: the session identity survived the crash.
    if (lib->client_id() != id) return 16;
    if (lib->partition_base() != base) return 17;
    if (lib->resume_attaches() < 1) return 18;

    // The grid completed across the two worker generations: every block's
    // id is in place, the ones the dead worker stored included (the
    // replacement serves the same device bytes).
    std::uint32_t out[kBlocks] = {};
    if (!lib->cudaMemcpy(out, dst, sizeof(out),
                         simcuda::MemcpyKind::kDeviceToHost)
             .ok())
      return 19;
    for (std::uint32_t i = 0; i < kBlocks; ++i)
      if (out[i] != i) return 20;

    // The rebuilt session never reissues an id the client may still hold.
    simcuda::EventId after_adoption = 0;
    if (!lib->cudaEventCreateWithFlags(&after_adoption, 0).ok()) return 24;
    if (after_adoption == before_kill) return 25;
    return 0;
  });

  // Wait until the kernel has checkpointed a few blocks into the shared
  // journal — the deferred stats accounting shows nothing until completion,
  // so the journal bitmap is the only honest mid-kernel progress signal —
  // then SIGKILL the worker with most of the grid still to run.
  close(ready[1]);
  char go = 0;
  ASSERT_EQ(read(ready[0], &go, 1), 1)
      << "client exited before arming the work launch";
  SharedServingState& state = (*server)->state();
  ASSERT_TRUE(PollUntil(
      [&] { return JournaledBlocks(state, options.layout.max_sessions) >= 4; },
      10'000))
      << "kernel never journaled completed blocks";
  ASSERT_EQ(kill((*server)->worker_pid(0), SIGKILL), 0);

  EXPECT_EQ(WaitExit(client), 0)
      << "20: a block the dead worker completed reads back wrong";

  // Supervisor adopted instead of failing; the adopting worker resumed the
  // checkpointed kernel; and the block accounting is EXACT: the dead
  // worker's partial run contributed nothing, the resumed run counted the
  // full grid once.
  EXPECT_GE(state.counters().workers_respawned.load(), 1u);
  EXPECT_GE(state.counters().sessions_adopted.load(), 1u);
  EXPECT_EQ(state.counters().sessions_crash_failed.load(), 0u);
  EXPECT_GE(state.stats().sessions_adopted.load(), 1u);
  EXPECT_GE(state.stats().checkpoint_kernels_resumed.load(), 1u);
  EXPECT_EQ(state.stats().kernel_blocks_executed.load(), kBlocks);

  (*server)->Stop();
  close(ready[0]);
}

// ---- multi-device placement and live migration (thread mode) --------------

TEST(MigrationTest, RegistrationPlacesSessionsLeastLoadedAcrossDevices) {
  simcuda::Gpu gpu0(simgpu::QuadroRtxA4000());
  simcuda::Gpu gpu1(simgpu::QuadroRtxA4000());
  GrdManager manager({&gpu0, &gpu1}, ManagerOptions{});
  LoopbackTransport transport(&manager);

  auto a = GrdLib::Connect(&transport, 1 << 20);
  auto b = GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(a.ok() && b.ok());
  // Two idle devices, two registrations: one session each.
  EXPECT_NE(a->device_id(), b->device_id());
  EXPECT_LT(a->device_id(), 2u);
  EXPECT_LT(b->device_id(), 2u);
}

TEST(MigrationTest, LiveMigrationMovesMemoryAndResumesKernelExactly) {
  ManagerOptions options;
  options.migrate_queue_threshold = 0;  // explicit Migrate only
  options.max_kernel_instructions = 1ull << 40;
  simcuda::Gpu gpu0(simgpu::QuadroRtxA4000());
  simcuda::Gpu gpu1(simgpu::QuadroRtxA4000());
  GrdManager manager({&gpu0, &gpu1}, options);
  LoopbackTransport transport(&manager);

  auto lib = GrdLib::Connect(&transport, 8 << 20);
  ASSERT_TRUE(lib.ok());
  const std::uint32_t source = lib->device_id();
  const std::uint32_t target = source == 0 ? 1 : 0;

  // A bystander buffer whose bytes must survive the partition move.
  constexpr std::uint32_t kPatternWords = 256;
  DevicePtr pattern = 0;
  ASSERT_TRUE(lib->cudaMalloc(&pattern, kPatternWords * 4).ok());
  std::vector<std::uint32_t> expected(kPatternWords);
  for (std::uint32_t i = 0; i < kPatternWords; ++i) expected[i] = i * 7 + 3;
  ASSERT_TRUE(
      lib->cudaMemcpyH2D(pattern, expected.data(), kPatternWords * 4).ok());

  auto module = lib->cuModuleLoadData(kBlockWorkPtx);
  ASSERT_TRUE(module.ok()) << module.status();
  auto fn = lib->cuModuleGetFunction(*module, "blockwork");
  ASSERT_TRUE(fn.ok());
  DevicePtr dst = 0;
  ASSERT_TRUE(lib->cudaMalloc(&dst, kBlocks * 4).ok());
  simcuda::StreamId stream = 0;
  ASSERT_TRUE(lib->cudaStreamCreate(&stream).ok());

  simcuda::LaunchConfig config;
  config.grid = {kBlocks, 1, 1};
  config.block = {1, 1, 1};
  config.stream = stream;
  ASSERT_TRUE(
      lib->cudaLaunchKernel(*fn, config,
                            {KernelArg::U64(dst), KernelArg::U32(kIters)})
          .ok());

  // Migrate with the kernel mid-grid (thread mode counts per block, so a
  // non-zero counter means at least one block completed on the source).
  ASSERT_TRUE(PollUntil(
      [&] { return manager.stats().kernel_blocks_executed.load() > 0; },
      10'000));
  ASSERT_TRUE(manager.Migrate(lib->client_id(), target).ok());
  ASSERT_TRUE(lib->cudaStreamSynchronize(stream).ok());

  // The revoked kernel resumed on the target from its checkpoint: exact
  // block total, no replay, and the migration counters say so.
  EXPECT_EQ(manager.stats().kernel_blocks_executed.load(), kBlocks);
  EXPECT_EQ(manager.stats().sessions_migrated.load(), 1u);
  EXPECT_GE(manager.stats().checkpoint_kernels_resumed.load(), 1u);

  // Every block stored its id — the prefix on the source device survived
  // the byte copy, the remainder ran on the target.
  std::vector<std::uint32_t> out(kBlocks);
  ASSERT_TRUE(lib->cudaMemcpy(out.data(), dst, kBlocks * 4,
                              simcuda::MemcpyKind::kDeviceToHost)
                  .ok());
  for (std::uint32_t i = 0; i < kBlocks; ++i) EXPECT_EQ(out[i], i) << i;

  // And the bystander allocation moved byte-exact.
  std::vector<std::uint32_t> moved(kPatternWords);
  ASSERT_TRUE(lib->cudaMemcpy(moved.data(), pattern, kPatternWords * 4,
                              simcuda::MemcpyKind::kDeviceToHost)
                  .ok());
  EXPECT_EQ(moved, expected);
}

}  // namespace
}  // namespace grd::guardian
