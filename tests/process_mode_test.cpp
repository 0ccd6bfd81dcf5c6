// Process-mode manager coverage (ctest label `process`): the SharedRegion
// session registry, the robust-mutex crash recovery, and — the point of the
// suite — fork-based death tests against the ProcessServer worker pool:
// SIGKILL a worker mid-kernel and prove the in-flight request answers with
// a clean synthetic status, surviving workers keep serving, the parent
// respawns a replacement that ADOPTS the dead worker's sessions from their
// shared journals (with respawn off they crash-fail instead), and fresh
// registrations succeed on the orphaned channel.
//
// Children never run gtest assertions: they report through exit codes
// (unique per failure point) and arm alarm() as a hang backstop, following
// the ipc_test fork pattern.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "guardian/grdlib.hpp"
#include "guardian/process_server.hpp"
#include "guardian/shared_state.hpp"
#include "guardian/transport.hpp"
#include "ipc/robust_mutex.hpp"
#include "obs/trace.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"

namespace grd::guardian {
namespace {

using ptxexec::KernelArg;
using simcuda::DevicePtr;

// Kernel whose block 3 spins forever (blocks 0..2 store their id and exit):
// launched on the default stream it parks the serving worker inside
// HandleRequest indefinitely — the "mid-kernel" window the death tests
// SIGKILL into.
constexpr char kSpinTailPtx[] = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry spintail(
    .param .u64 dst
)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    .reg .pred %p1;
    mov.u32 %r1, %ctaid.x;
    setp.lt.u32 %p1, %r1, 3;
    @%p1 bra STORE;
LOOP:
    add.s32 %r2, %r2, 1;
    bra LOOP;
STORE:
    ld.param.u64 %rd1, [dst];
    cvta.to.global.u64 %rd2, %rd1;
    mul.wide.u32 %rd3, %r1, 4;
    add.s64 %rd2, %rd2, %rd3;
    st.global.u32 [%rd2], %r1;
    ret;
}
)";

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

// The honest tenant workload of the process_isolation example: sample
// kernel over 16 threads, last thread's value read back.
int RunHonestWorkload(GrdLib& lib) {
  auto module = lib.cuModuleLoadData(ptx::Print(ptx::MakeSampleModule()));
  if (!module.ok()) return 1;
  auto fn = lib.cuModuleGetFunction(*module, "kernel");
  if (!fn.ok()) return 2;
  DevicePtr buf = 0;
  if (!lib.cudaMalloc(&buf, 4096).ok()) return 3;
  simcuda::LaunchConfig config;
  config.block = {16, 1, 1};
  if (!lib.cudaLaunchKernel(*fn, config,
                            {KernelArg::U64(buf), KernelArg::U32(3)})
           .ok())
    return 4;
  std::uint32_t value = 0;
  if (!lib.cudaMemcpy(&value, buf + 12, 4, simcuda::MemcpyKind::kDeviceToHost)
           .ok())
    return 5;
  if (value != 15) return 6;
  return lib.cudaFree(buf).ok() ? 0 : 7;
}

std::vector<std::uint64_t> AlignedBuffer(std::uint64_t bytes) {
  return std::vector<std::uint64_t>((bytes + 7) / 8);
}

// ---- SharedServingState units (no fork) ------------------------------------

TEST(SharedStateTest, SessionSlotLifecycleExhaustionAndRecycling) {
  SharedServingLayout layout;
  layout.max_sessions = 3;
  layout.max_channels = 1;
  layout.max_workers = 2;
  layout.ring_bytes = 4096;
  auto buffer = AlignedBuffer(SharedServingState::RegionSize(layout));
  SharedServingState* state =
      SharedServingState::Initialize(buffer.data(), layout);
  ASSERT_TRUE(SharedServingState::Attach(buffer.data()).ok());

  PartitionBounds bounds{1 << 20, 1 << 20};
  auto a = state->AllocateSession(0, bounds, protocol::PriorityClass::kNormal);
  auto b = state->AllocateSession(0, bounds, protocol::PriorityClass::kBatch);
  auto c = state->AllocateSession(1, bounds, protocol::PriorityClass::kNormal);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(*a, *b);
  EXPECT_NE(*b, *c);
  EXPECT_EQ(state->ActiveSessions(), 3u);

  // Full: the fourth registration fails cleanly.
  auto overflow =
      state->AllocateSession(1, bounds, protocol::PriorityClass::kNormal);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfMemory);

  // Clean release frees the slot for a NEW id.
  ASSERT_TRUE(state->ReleaseSession(*b).ok());
  EXPECT_EQ(state->FindSession(*b), nullptr);
  auto d = state->AllocateSession(1, bounds, protocol::PriorityClass::kNormal);
  ASSERT_TRUE(d.ok());
  EXPECT_GT(*d, *c);

  // Crash-failing worker 0 hits only its sessions; the failed slot still
  // resolves (clean-error path) and is recycled only under pressure.
  EXPECT_EQ(state->FailSessionsOfWorker(0), 1u);  // session a
  ASSERT_NE(state->FindSession(*a), nullptr);
  EXPECT_EQ(state->FindSession(*a)->state.load(),
            static_cast<std::uint32_t>(SessionSlotState::kFailed));
  ASSERT_NE(state->FindSession(*c), nullptr);
  EXPECT_EQ(state->FindSession(*c)->state.load(),
            static_cast<std::uint32_t>(SessionSlotState::kActive));
  auto e = state->AllocateSession(1, bounds, protocol::PriorityClass::kNormal);
  ASSERT_TRUE(e.ok());  // recycled a's slot: no free slot remained
  EXPECT_EQ(state->FindSession(*a), nullptr);
  EXPECT_EQ(state->FailedSessions(), 0u);

  const SharedPoolCounters& counters = state->counters();
  EXPECT_EQ(counters.sessions_registered.load(), 5u);
  EXPECT_EQ(counters.sessions_released.load(), 1u);
  EXPECT_EQ(counters.sessions_crash_failed.load(), 1u);
}

TEST(SharedStateTest, AttachRejectsForeignRegion) {
  auto buffer = AlignedBuffer(4096);
  EXPECT_FALSE(SharedServingState::Attach(buffer.data()).ok());
}

TEST(SharedStateTest, ChannelClaimCasExcludesDoubleOwnership) {
  SharedServingLayout layout;
  layout.max_sessions = 2;
  layout.max_channels = 2;
  layout.max_workers = 3;
  layout.ring_bytes = 4096;
  auto buffer = AlignedBuffer(SharedServingState::RegionSize(layout));
  SharedServingState* state =
      SharedServingState::Initialize(buffer.data(), layout);

  EXPECT_TRUE(state->ClaimChannel(0, 0));
  EXPECT_TRUE(state->ClaimChannel(0, 0));   // idempotent for the owner
  EXPECT_FALSE(state->ClaimChannel(0, 1));  // sticky against everyone else
  EXPECT_TRUE(state->ClaimChannel(1, 1));

  // Supervisor reassignment: worker 0's channels are released and re-aimed
  // at worker 2, which can now claim them; worker 1's claim is untouched.
  state->ReassignChannelsOfWorker(0, 2);
  EXPECT_EQ(state->channel_slot(0).owner.load(), kNoWorker);
  EXPECT_EQ(state->channel_slot(0).preferred.load(), 2u);
  EXPECT_EQ(state->channel_slot(1).owner.load(), 1u);
  EXPECT_TRUE(state->ClaimChannel(0, 2));
}

TEST(SharedStateTest, AuditReleasesSlotTornMidAllocation) {
  SharedServingLayout layout;
  layout.max_sessions = 2;
  layout.max_channels = 1;
  layout.max_workers = 2;
  layout.ring_bytes = 4096;
  auto buffer = AlignedBuffer(SharedServingState::RegionSize(layout));
  SharedServingState* state =
      SharedServingState::Initialize(buffer.data(), layout);

  // Forge the torn shape a worker killed between claiming a slot and
  // publishing its client id would leave: state set, id still 0.
  state->session_slot(0).state.store(
      static_cast<std::uint32_t>(SessionSlotState::kActive));
  state->session_slot(0).owner_worker.store(0);
  EXPECT_EQ(state->FindSession(0), nullptr);  // id 0 never resolves

  EXPECT_EQ(state->AuditAfterWorkerDeath(), 1u);
  EXPECT_EQ(state->session_slot(0).state.load(), 0u);
  EXPECT_EQ(state->session_slot(0).owner_worker.load(), kNoWorker);
  EXPECT_EQ(state->counters().registry_repairs.load(), 1u);
  EXPECT_EQ(state->AuditAfterWorkerDeath(), 0u);  // clean registry: no-op
}

// The launch mirror keeps a launch's shape, not its argument values, so a
// launch is mirrored (and resumable after adoption) whatever its argument
// count.
TEST(SharedStateTest, LaunchMirrorArmsAndMatchesThirteenArgumentLaunch) {
  SharedSessionJournal journal;
  ptxexec::LaunchParams params;
  params.grid = {4, 1, 1};
  params.block = {32, 1, 1};
  for (std::uint32_t i = 0; i < 13; ++i)
    params.args.push_back(KernelArg::U32(i));
  ASSERT_TRUE(journal.ArmLaunch(7, 1, params));
  EXPECT_TRUE(journal.MatchLaunch(7, 1, params));
  EXPECT_FALSE(journal.MatchLaunch(7, 2, params)) << "another stream";
  params.args.pop_back();
  EXPECT_FALSE(journal.MatchLaunch(7, 1, params)) << "another argument count";
  journal.DisarmLaunch();
  params.args.push_back(KernelArg::U32(12));
  EXPECT_FALSE(journal.MatchLaunch(7, 1, params)) << "disarmed";
}

TEST(RobustMutexTest, LockRecoversFromOwnerKilledInCriticalSection) {
  auto region = ipc::SharedRegion::Create(sizeof(ipc::RobustMutex));
  ASSERT_TRUE(region.ok());
  auto* mu = static_cast<ipc::RobustMutex*>(region->addr());
  mu->Init();

  // Child takes the lock and dies holding it.
  const pid_t pid = ForkChild([&] {
    mu->Lock();
    return 0;  // _exit without Unlock
  });
  ASSERT_EQ(WaitExit(pid), 0);

  // Parent: EOWNERDEAD surfaces exactly once, then the mutex is consistent.
  EXPECT_TRUE(mu->Lock());
  mu->Unlock();
  EXPECT_FALSE(mu->Lock());
  mu->Unlock();
}

// ---- fork-based death tests against the worker pool ------------------------

TEST(ProcessModeTest, CrashAdoptsItsSessionsSurvivorsServeAndParentRespawns) {
  ProcessServerOptions options;
  options.workers = 2;
  options.channels = 2;
  options.layout.ring_bytes = 1 << 20;
  // The spin kernel must genuinely run until SIGKILLed, not trip the budget.
  options.manager.max_kernel_instructions = 1ull << 40;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  int victim_ready[2];  // victim client -> test: "spin launch is next"
  int survivor_stop[2];  // test -> survivor client: "you may stop"
  ASSERT_EQ(pipe(victim_ready), 0);
  ASSERT_EQ(pipe(survivor_stop), 0);
  ASSERT_EQ(fcntl(survivor_stop[0], F_SETFL, O_NONBLOCK), 0);

  // Victim tenant on channel 0: honest workload, then a spin launch that
  // parks its worker mid-kernel. After the kill the in-flight request
  // answers with the clean synthetic failure, but the session itself
  // SURVIVES: the respawned worker adopts it from the shared journal before
  // it serves, so a straggler op succeeds under the same client id.
  const pid_t victim = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(0));
    auto lib = GrdLib::Connect(&transport, 8 << 20);
    if (!lib.ok()) return 10;
    if (RunHonestWorkload(*lib) != 0) return 11;

    auto module = lib->cuModuleLoadData(kSpinTailPtx);
    if (!module.ok()) return 12;
    auto spin = lib->cuModuleGetFunction(*module, "spintail");
    if (!spin.ok()) return 13;
    DevicePtr buf = 0;
    if (!lib->cudaMalloc(&buf, 4096).ok()) return 14;

    if (write(victim_ready[1], "L", 1) != 1) return 15;
    simcuda::LaunchConfig config;
    config.grid = {4, 1, 1};
    config.block = {1, 1, 1};
    // Default stream: synchronous — blocks until the worker dies under it.
    const Status killed =
        lib->cudaLaunchKernel(*spin, config, {KernelArg::U64(buf)});
    // 1. the in-flight request answers with the supervisor's synthetic
    //    kUnavailable, not a hang and not success.
    if (killed.ok()) return 16;
    if (killed.code() != StatusCode::kUnavailable) return 17;

    // 2. a straggler on the killed session is served by the replacement
    //    worker, which adopted the session from its shared journal — same
    //    client id, same partition, handles still valid.
    DevicePtr straggler = 0;
    if (!lib->cudaMalloc(&straggler, 64).ok()) return 18;

    // 4. a fresh registration on the same channel reaches the respawned
    //    worker and serves a full workload.
    auto fresh = GrdLib::Connect(&transport, 8 << 20);
    if (!fresh.ok()) return 19;
    if (RunHonestWorkload(*fresh) != 0) return 20;
    return 0;
  });

  // Survivor tenant on channel 1: keeps serving straight through the crash
  // window until the test releases it. Its calls carry a deadline well under
  // the child's alarm, and every step exits with its own code, so a call
  // that blocks names itself instead of tripping the alarm.
  const pid_t survivor = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(1),
                               std::chrono::seconds(10));
    auto lib = GrdLib::Connect(&transport, 8 << 20);
    if (!lib.ok()) return 30;
    char go = 0;
    int rounds = 0;
    while (read(survivor_stop[0], &go, 1) != 1) {
      // RunHonestWorkload's failing step n (1..7) exits 30 + n.
      if (const int step = RunHonestWorkload(*lib); step != 0)
        return 30 + step;
      ++rounds;
    }
    return rounds > 0 ? 0 : 38;
  });

  // Wait for the victim's signal, then for its worker to consume the spin
  // launch (request consumed, no response yet), then SIGKILL mid-kernel.
  // The parent's copy of the write end closes first so a victim child that
  // dies before signalling delivers EOF here (fast failure, not a hang).
  close(victim_ready[1]);
  char ready = 0;
  ASSERT_EQ(read(victim_ready[0], &ready, 1), 1)
      << "victim child exited before arming the spin launch";
  ipc::Channel& victim_channel = (*server)->channel(0);
  ASSERT_TRUE(PollUntil(
      [&] {
        return victim_channel.request().messages_read() >
               victim_channel.response().messages_written();
      },
      10'000));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint32_t victim_worker = (*server)->channel_owner(0);
  ASSERT_LT(victim_worker, options.workers);
  const std::uint64_t generation_before =
      (*server)->state().worker_slot(victim_worker).generation.load();
  ASSERT_EQ(kill((*server)->worker_pid(victim_worker), SIGKILL), 0);

  EXPECT_EQ(WaitExit(victim), 0);
  ASSERT_EQ(write(survivor_stop[1], "Q", 1), 1);
  EXPECT_EQ(WaitExit(survivor), 0)
      << "30: connect; 31-37: RunHonestWorkload step 1-7; 38: no round";

  SharedServingState& state = (*server)->state();
  EXPECT_GE(state.counters().workers_respawned.load(), 1u);
  EXPECT_GE(state.counters().synthetic_responses.load(), 1u);
  EXPECT_GT(state.worker_slot(victim_worker).generation.load(),
            generation_before);
  // 3. with respawn on, the journaled session was adopted, not failed —
  //    and the survivor's session was never touched by the crash.
  EXPECT_GE(state.counters().sessions_adopted.load(), 1u);
  EXPECT_EQ(state.counters().sessions_crash_failed.load(), 0u);
  EXPECT_EQ(state.FailedSessions(), 0u);

  (*server)->Stop();
  for (const int fd : {victim_ready[0], survivor_stop[0], survivor_stop[1]})
    close(fd);
}

// Device memory is mapped before the workers fork, so a worker respawned
// into a slot serves the bytes its predecessor wrote: a session adopted
// from an idle worker reads back what it copied in before the kill.
TEST(ProcessModeTest, AdoptedSessionReadsBackBytesWrittenBeforeTheKill) {
  ProcessServerOptions options;
  options.workers = 1;
  options.channels = 1;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  int written[2];  // client -> test: "the pattern is on the device"
  int adopted[2];  // test -> client: "the worker was replaced"
  ASSERT_EQ(pipe(written), 0);
  ASSERT_EQ(pipe(adopted), 0);
  constexpr std::uint32_t kBytes = 64 << 10;  // spans many pages

  const pid_t client = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(0));
    auto lib = GrdLib::Connect(&transport, 1 << 20);
    if (!lib.ok()) return 10;
    std::vector<std::uint8_t> pattern(kBytes);
    for (std::uint32_t i = 0; i < kBytes; ++i)
      pattern[i] = static_cast<std::uint8_t>(0xAB ^ i ^ (i >> 8));
    DevicePtr buf = 0;
    if (!lib->cudaMalloc(&buf, kBytes).ok()) return 11;
    if (!lib->cudaMemcpyH2D(buf, pattern.data(), kBytes).ok()) return 12;
    if (write(written[1], "W", 1) != 1) return 13;
    char go = 0;
    if (read(adopted[0], &go, 1) != 1) return 14;
    std::vector<std::uint8_t> back(kBytes);
    const Status read_back = lib->cudaMemcpy(
        back.data(), buf, kBytes, simcuda::MemcpyKind::kDeviceToHost);
    if (!read_back.ok()) return 15;
    return back == pattern ? 0 : 16;
  });

  close(written[1]);
  char ready = 0;
  ASSERT_EQ(read(written[0], &ready, 1), 1)
      << "client exited before writing its pattern";
  SharedServingState& state = (*server)->state();
  ASSERT_EQ(kill((*server)->worker_pid(0), SIGKILL), 0);
  ASSERT_TRUE(PollUntil(
      [&] { return state.counters().workers_respawned.load() >= 1; }, 5000));
  ASSERT_TRUE((*server)->WaitForChannelOwners());
  ASSERT_EQ(write(adopted[1], "A", 1), 1);

  EXPECT_EQ(WaitExit(client), 0) << "16: the adopted session's bytes changed";
  EXPECT_EQ(state.counters().sessions_adopted.load(), 1u);
  EXPECT_EQ(state.stats().sessions_adopted.load(), 1u);
  (*server)->Stop();
  for (const int fd : {written[0], adopted[0], adopted[1]}) close(fd);
}

// The replacement worker rebuilds the sessions promised to it before it
// serves anything. Tenant A registers on channel 0 and writes a pattern,
// the idle worker is SIGKILLed, and after the respawn tenant B registers on
// channel 1 before A sends another request: B must get a partition of its
// own, and A must read its bytes back under its old session.
TEST(ProcessModeTest, ReplacementAdoptsBeforeServingAFreshRegistration) {
  ProcessServerOptions options;
  options.workers = 1;
  options.channels = 2;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  int written[2];  // A -> test: A's partition base, once its pattern is in
  int replaced[2];  // test -> A: "B registered on the replacement"
  ASSERT_EQ(pipe(written), 0);
  ASSERT_EQ(pipe(replaced), 0);
  constexpr std::uint32_t kBytes = 64 << 10;

  const pid_t tenant_a = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(0));
    auto lib = GrdLib::Connect(&transport, 1 << 20);
    if (!lib.ok()) return 10;
    std::vector<std::uint8_t> pattern(kBytes);
    for (std::uint32_t i = 0; i < kBytes; ++i)
      pattern[i] = static_cast<std::uint8_t>(0x5A ^ i ^ (i >> 8));
    DevicePtr buf = 0;
    if (!lib->cudaMalloc(&buf, kBytes).ok()) return 11;
    if (!lib->cudaMemcpyH2D(buf, pattern.data(), kBytes).ok()) return 12;
    const std::uint64_t base = lib->partition_base();
    if (write(written[1], &base, sizeof(base)) != sizeof(base)) return 13;
    char go = 0;
    if (read(replaced[0], &go, 1) != 1) return 14;
    std::vector<std::uint8_t> back(kBytes);
    if (!lib->cudaMemcpy(back.data(), buf, kBytes,
                         simcuda::MemcpyKind::kDeviceToHost)
             .ok())
      return 15;
    if (back != pattern) return 16;
    return lib->resume_attaches() == 0 ? 0 : 17;
  });

  close(written[1]);
  std::uint64_t base_a = 0;
  ASSERT_EQ(read(written[0], &base_a, sizeof(base_a)),
            static_cast<ssize_t>(sizeof(base_a)))
      << "tenant A exited before writing its pattern";
  SharedServingState& state = (*server)->state();
  ASSERT_EQ(kill((*server)->worker_pid(0), SIGKILL), 0);
  ASSERT_TRUE(PollUntil(
      [&] { return state.counters().workers_respawned.load() >= 1; }, 5000));
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  const pid_t tenant_b = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(1));
    auto lib = GrdLib::Connect(&transport, 1 << 20);
    if (!lib.ok()) return 20;
    return lib->partition_base() != base_a ? 0 : 21;
  });
  EXPECT_EQ(WaitExit(tenant_b), 0) << "21: B was handed A's partition";
  ASSERT_EQ(write(replaced[1], "B", 1), 1);

  EXPECT_EQ(WaitExit(tenant_a), 0)
      << "15: A's session was lost; 16: A's bytes changed; 17: A had to "
         "recover";
  EXPECT_EQ(state.counters().sessions_adopted.load(), 1u);
  EXPECT_EQ(state.stats().sessions_adopted.load(), 1u);
  EXPECT_EQ(state.counters().sessions_crash_failed.load(), 0u);
  (*server)->Stop();
  for (const int fd : {written[0], replaced[0], replaced[1]}) close(fd);
}

TEST(ProcessModeTest, StressRegisterLaunchUnregisterAcrossProcesses) {
  constexpr std::uint32_t kClients = 6;
  constexpr int kIterations = 8;

  ProcessServerOptions options;
  options.workers = 3;
  options.channels = kClients;
  options.layout.max_sessions = 32;
  options.layout.ring_bytes = 1 << 20;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  std::vector<pid_t> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(ForkChild([&, c]() -> int {
      ChannelTransport transport(&(*server)->channel(c));
      for (int i = 0; i < kIterations; ++i) {
        auto lib = GrdLib::Connect(&transport, 1 << 20);
        if (!lib.ok()) return 40;
        const int workload = RunHonestWorkload(*lib);
        if (workload != 0) return 50 + workload;
        if (!lib->Disconnect().ok()) return 41;
      }
      return 0;
    }));
  }
  for (const pid_t pid : clients) EXPECT_EQ(WaitExit(pid), 0);

  SharedServingState& state = (*server)->state();
  // No leaked or failed registry slots once every tenant disconnected.
  EXPECT_EQ(state.ActiveSessions(), 0u);
  EXPECT_EQ(state.FailedSessions(), 0u);
  // Registration/release accounting balances exactly.
  EXPECT_EQ(state.counters().sessions_registered.load(),
            kClients * static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(state.counters().sessions_released.load(),
            kClients * static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(state.counters().sessions_crash_failed.load(), 0u);
  // The pool-wide ManagerStats aggregate the per-worker serving exactly:
  // one sandboxed launch and one checked D2H transfer per iteration.
  EXPECT_EQ(state.stats().launches.load(),
            kClients * static_cast<std::uint64_t>(kIterations));
  EXPECT_EQ(state.stats().transfers_checked.load(),
            kClients * static_cast<std::uint64_t>(kIterations));
  // No channel ended up double-claimed or orphaned: every owner is a live
  // worker, and sticky claims kept the parent's deterministic assignment.
  for (std::uint32_t i = 0; i < options.channels; ++i) {
    const std::uint32_t owner = (*server)->channel_owner(i);
    ASSERT_LT(owner, options.workers);
    EXPECT_EQ(owner, i % options.workers);
    EXPECT_EQ(state.worker_slot(owner).alive.load(), 1u);
  }
  (*server)->Stop();
}

TEST(ProcessModeTest, NoRespawnStillFailsSessionsAndReleasesChannels) {
  ProcessServerOptions options;
  options.workers = 1;
  options.channels = 1;
  options.respawn = false;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  // Register a session and leave it live (no disconnect).
  const pid_t client = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(0));
    auto lib = GrdLib::Connect(&transport, 1 << 20);
    return lib.ok() ? 0 : 10;
  });
  ASSERT_EQ(WaitExit(client), 0);
  SharedServingState& state = (*server)->state();
  ASSERT_TRUE(PollUntil([&] { return state.ActiveSessions() == 1; }, 5000));

  ASSERT_EQ(kill((*server)->worker_pid(0), SIGKILL), 0);
  ASSERT_TRUE(PollUntil([&] { return state.FailedSessions() == 1; }, 5000));
  EXPECT_EQ(state.counters().sessions_crash_failed.load(), 1u);
  EXPECT_EQ(state.counters().workers_respawned.load(), 0u);
  // Channels are released, not reassigned: no replacement is coming.
  ASSERT_TRUE(PollUntil(
      [&] { return (*server)->channel_owner(0) == kNoWorker; }, 5000));
  (*server)->Stop();
}

TEST(ProcessModeTest, GrowPartitionPublishesBoundsToSharedSlot) {
  ProcessServerOptions options;
  options.workers = 1;
  options.channels = 1;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  const pid_t client = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(0));
    auto lib = GrdLib::Connect(&transport, 1 << 20);
    if (!lib.ok()) return 10;
    const std::uint64_t before = lib->partition_size();
    if (!lib->GrowPartition().ok()) return 11;
    if (lib->partition_size() != 2 * before) return 12;
    return 0;  // exit WITHOUT disconnect: the slot must stay published
  });
  ASSERT_EQ(WaitExit(client), 0);

  // The worker's in-place doubling is visible to this (parent) process
  // through the SharedRegion bounds, which adoption rebuilds the partition
  // from after a crash.
  SharedServingState& state = (*server)->state();
  ASSERT_EQ(state.ActiveSessions(), 1u);
  SharedSessionSlot* slot = nullptr;
  for (std::uint32_t i = 0; i < options.layout.max_sessions && !slot; ++i)
    if (state.session_slot(i).state.load() != 0) slot = &state.session_slot(i);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->partition_size.load(), 2ull << 20);
  EXPECT_NE(slot->partition_base.load(), 0u);
  (*server)->Stop();
}

// Every tenant process maps the session slots, so a slot's bounds are
// attacker-writable. The worker checks each transfer against its private
// copy of the session's partition: an attacker that widens its own slot to
// cover a co-tenant on the same worker is still refused both directions.
TEST(ProcessModeTest, ForgedSlotBoundsDoNotWidenTransferChecks) {
  ProcessServerOptions options;
  options.workers = 1;
  options.channels = 2;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());
  SharedServingState& state = (*server)->state();

  int victim_ready[2];  // victim -> test: its secret buffer's address
  int victim_stop[2];   // test -> victim: "the attack is over"
  ASSERT_EQ(pipe(victim_ready), 0);
  ASSERT_EQ(pipe(victim_stop), 0);
  constexpr char kSecret[17] = "victim-secret-16";

  const pid_t victim = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(0));
    auto lib = GrdLib::Connect(&transport, 1 << 20);
    if (!lib.ok()) return 10;
    DevicePtr secret = 0;
    if (!lib->cudaMalloc(&secret, 16).ok()) return 11;
    if (!lib->cudaMemcpyH2D(secret, kSecret, 16).ok()) return 12;
    if (write(victim_ready[1], &secret, sizeof(secret)) != sizeof(secret))
      return 13;
    char go = 0;
    if (read(victim_stop[0], &go, 1) != 1) return 14;
    char after[16] = {};
    if (!lib->cudaMemcpy(after, secret, 16,
                         simcuda::MemcpyKind::kDeviceToHost)
             .ok())
      return 15;
    return std::memcmp(after, kSecret, 16) == 0 ? 0 : 16;
  });
  close(victim_ready[1]);
  DevicePtr secret = 0;
  ASSERT_EQ(read(victim_ready[0], &secret, sizeof(secret)),
            static_cast<ssize_t>(sizeof(secret)))
      << "victim exited before publishing its buffer";

  const pid_t attacker = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(1));
    auto lib = GrdLib::Connect(&transport, 1 << 20);
    if (!lib.ok()) return 20;
    SharedSessionSlot* own = nullptr;
    for (std::uint32_t i = 0; i < options.layout.max_sessions; ++i)
      if (state.session_slot(i).client.load() == lib->client_id())
        own = &state.session_slot(i);
    if (own == nullptr) return 21;
    // Widen the slot to the whole address space, as any tenant mapping the
    // region can.
    own->partition_base.store(0);
    own->partition_size.store(std::uint64_t{1} << 62);
    char stolen[16] = {};
    const Status read_back = lib->cudaMemcpy(
        stolen, secret, 16, simcuda::MemcpyKind::kDeviceToHost);
    if (read_back.ok()) return 22;
    if (read_back.code() != StatusCode::kPermissionDenied) return 23;
    const Status overwrite = lib->cudaMemcpyH2D(secret, "attacker-bytes-!", 16);
    if (overwrite.ok()) return 24;
    if (overwrite.code() != StatusCode::kPermissionDenied) return 25;
    return 0;
  });
  EXPECT_EQ(WaitExit(attacker), 0)
      << "22: forged D2H read the secret; 24: forged H2D was accepted";
  EXPECT_EQ(state.stats().transfers_rejected.load(), 2u);

  ASSERT_EQ(write(victim_stop[1], "Q", 1), 1);
  EXPECT_EQ(WaitExit(victim), 0) << "16: the victim's bytes changed";
  (*server)->Stop();
  for (const int fd : {victim_ready[0], victim_stop[0], victim_stop[1]})
    close(fd);
}

// The SharedRegion span arena survives its writer: a worker SIGKILLed
// mid-kernel leaves its committed spans — including the unterminated 'B'
// execution span — readable by the parent, with no torn records. This is
// the crash-forensics story of the tracing tentpole.
TEST(ProcessModeTest, KilledWorkerSpansAreFlushedFromSharedArena) {
  obs::TraceRecorder::Instance().Reset();

  ProcessServerOptions options;
  options.workers = 1;
  options.channels = 1;
  options.respawn = false;
  options.manager.tracing_enabled = true;
  options.manager.max_kernel_instructions = 1ull << 40;
  options.layout.ring_bytes = 1 << 20;
  auto server = ProcessServer::Create(options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  ASSERT_TRUE((*server)->WaitForChannelOwners());

  int ready[2];  // client -> test: "spin launch is next"
  ASSERT_EQ(pipe(ready), 0);

  // The client forked after Start() inherits the arena binding too, so its
  // client.* spans land in the same shared arena as the worker's.
  const pid_t client = ForkChild([&]() -> int {
    ChannelTransport transport(&(*server)->channel(0));
    auto lib = GrdLib::Connect(&transport, 8 << 20);
    if (!lib.ok()) return 10;
    auto module = lib->cuModuleLoadData(kSpinTailPtx);
    if (!module.ok()) return 11;
    auto spin = lib->cuModuleGetFunction(*module, "spintail");
    if (!spin.ok()) return 12;
    DevicePtr buf = 0;
    if (!lib->cudaMalloc(&buf, 4096).ok()) return 13;
    if (write(ready[1], "L", 1) != 1) return 14;
    simcuda::LaunchConfig config;
    config.grid = {4, 1, 1};
    config.block = {1, 1, 1};
    const Status killed =
        lib->cudaLaunchKernel(*spin, config, {KernelArg::U64(buf)});
    if (killed.ok() || killed.code() != StatusCode::kUnavailable) return 15;
    return 0;
  });

  close(ready[1]);
  char go = 0;
  ASSERT_EQ(read(ready[0], &go, 1), 1)
      << "client exited before arming the spin launch";
  ipc::Channel& channel = (*server)->channel(0);
  ASSERT_TRUE(PollUntil(
      [&] {
        return channel.request().messages_read() >
               channel.response().messages_written();
      },
      10'000));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(kill((*server)->worker_pid(0), SIGKILL), 0);
  EXPECT_EQ(WaitExit(client), 0);
  SharedServingState& state = (*server)->state();
  ASSERT_TRUE(PollUntil([&] { return state.FailedSessions() == 1; }, 5000));

  // The supervisor commits the worker.killed instant after it fails the
  // sessions (the condition polled above) and unblocks waiters, so poll the
  // async trace sink until the mark lands before snapshotting.
  std::vector<obs::SpanRecord> spans;
  ASSERT_TRUE(PollUntil(
      [&] {
        spans.clear();
        obs::TraceRecorder::Instance().Collect(&spans);
        for (const obs::SpanRecord& rec : spans)
          if (std::strcmp(rec.name, "worker.killed") == 0) return true;
        return false;
      },
      5000))
      << "worker.killed instant never reached the shared arena";

  // Only whole records surface: the commit-word protocol means a torn
  // record is invisible, never garbled.
  ASSERT_FALSE(spans.empty());
  for (const obs::SpanRecord& rec : spans) {
    EXPECT_TRUE(rec.phase == 'X' || rec.phase == 'B' || rec.phase == 'i')
        << rec.phase;
    EXPECT_NE(rec.name[0], '\0');
    EXPECT_EQ(rec.name[obs::SpanRecord::kNameCap - 1], '\0');
    EXPECT_NE(rec.begin_ns, 0u);
    EXPECT_GT(rec.pid, 0);
  }

  // The kill mid-kernel left an execution span opened ('B') and never
  // completed: no 'X' record shares its span id. It carries the dead
  // worker's pid, not ours.
  const obs::SpanRecord* unterminated = nullptr;
  for (const obs::SpanRecord& rec : spans) {
    if (rec.phase != 'B' || std::strncmp(rec.name, "exec.t", 6) != 0) continue;
    bool completed = false;
    for (const obs::SpanRecord& other : spans)
      if (other.phase == 'X' && other.span_id == rec.span_id) completed = true;
    if (!completed) unterminated = &rec;
  }
  ASSERT_NE(unterminated, nullptr)
      << "no unterminated exec span from the killed worker";
  EXPECT_NE(unterminated->pid, getpid());

  // The worker got as far as serving the session setup: its dispatch spans
  // were committed before the kill...
  bool worker_dispatch = false;
  for (const obs::SpanRecord& rec : spans)
    if (std::strcmp(rec.name, "ModuleLoadData") == 0) worker_dispatch = true;
  EXPECT_TRUE(worker_dispatch);
  // ...and the supervisor marked the death in the same trace stream.
  bool killed_mark = false;
  for (const obs::SpanRecord& rec : spans)
    if (std::strcmp(rec.name, "worker.killed") == 0 && rec.phase == 'i')
      killed_mark = true;
  EXPECT_TRUE(killed_mark);

  // The export path renders the evidence: an unterminated "exec." slice.
  const std::string json = obs::TraceExporter::ToChromeJson(spans);
  EXPECT_NE(json.find("\"name\":\"exec.t"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);

  // Unbind before the SharedRegion goes away with the server.
  obs::TraceRecorder::Instance().Reset();
  (*server)->Stop();
  close(ready[0]);
}

}  // namespace
}  // namespace grd::guardian
