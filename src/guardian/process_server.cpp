#include "guardian/process_server.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "common/logging.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "obs/trace.hpp"
#include "simcuda/gpu.hpp"

namespace grd::guardian {
namespace {

// EINTR-safe absolute-ish sleep for supervision polling: a signal landing
// mid-sleep retries the remainder instead of silently shortening the pause
// (the same discipline as ipc::ShmRing::ReadWithDeadline — see the audit in
// shm_ring.hpp).
void SleepMicros(std::int64_t us) {
  timespec deadline;
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_nsec += us * 1000;
  while (deadline.tv_nsec >= 1'000'000'000) {
    deadline.tv_sec += 1;
    deadline.tv_nsec -= 1'000'000'000;
  }
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline, nullptr) ==
         EINTR) {
  }
}

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<std::unique_ptr<ProcessServer>> ProcessServer::Create(
    ProcessServerOptions options) {
  if (options.workers == 0 || options.workers > options.layout.max_workers)
    return Status(InvalidArgument("worker count outside layout capacity"));
  if (options.channels == 0 || options.channels > options.layout.max_channels)
    return Status(InvalidArgument("channel count outside layout capacity"));

  std::unique_ptr<ProcessServer> server(new ProcessServer(std::move(options)));
  const ProcessServerOptions& opts = server->options_;

  GRD_ASSIGN_OR_RETURN(
      ipc::SharedRegion region,
      ipc::SharedRegion::Create(SharedServingState::RegionSize(opts.layout)));
  server->region_ = std::make_unique<ipc::SharedRegion>(std::move(region));
  server->state_ =
      SharedServingState::Initialize(server->region_->addr(), opts.layout);

  // Each slot's devices, mapped here so that the slot's worker and every
  // replacement forked into it share the same device bytes.
  server->devices_.resize(opts.workers);
  for (auto& gpus : server->devices_) {
    gpus.push_back(std::make_unique<simcuda::Gpu>(opts.device));
    for (const simgpu::DeviceSpec& spec : opts.extra_devices)
      gpus.push_back(std::make_unique<simcuda::Gpu>(spec));
  }

  for (std::uint32_t i = 0; i < opts.channels; ++i) {
    server->channels_.push_back(std::make_unique<ipc::Channel>(
        server->state_->channel_region(i), opts.layout.ring_bytes,
        /*initialize=*/true));
    // Deterministic initial distribution; workers claim (CAS) only channels
    // preferring them, so the assignment is also race-free.
    server->state_->channel_slot(i).preferred.store(
        i % opts.workers, std::memory_order_release);
  }
  return server;
}

ProcessServer::~ProcessServer() { Stop(); }

Status ProcessServer::Start() {
  if (started_) return FailedPrecondition("process server already started");
  started_ = true;
  // Bind the recorder to the SharedRegion span arena BEFORE forking: the
  // children inherit the enabled flag and the (MAP_SHARED) arena pointer,
  // so their spans land where the parent can flush them even after a
  // SIGKILL mid-kernel.
  if (options_.manager.tracing_enabled) {
    obs::TraceRecorder::Instance().Enable(true);
    obs::TraceRecorder::Instance().BindArena(state_->span_arena());
  }
  for (std::uint32_t i = 0; i < options_.workers; ++i)
    GRD_RETURN_IF_ERROR(SpawnWorker(i));
  supervisor_ = std::thread([this] { SuperviseLoop(); });
  return OkStatus();
}

Status ProcessServer::SpawnWorker(std::uint32_t index) {
  SharedWorkerSlot& slot = state_->worker_slot(index);
  const pid_t pid = ::fork();
  if (pid < 0) return Internal("fork() failed for manager worker");
  if (pid == 0) WorkerMain(index);  // never returns
  slot.generation.fetch_add(1, std::memory_order_acq_rel);
  slot.pid.store(pid, std::memory_order_release);
  slot.alive.store(1, std::memory_order_release);
  state_->counters().workers_spawned.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

void ProcessServer::WorkerMain(std::uint32_t index) {
  // Fresh address space (post-fork) over the slot's devices: build the
  // manager, bound to the pool's shared registry, journals and stats.
  {
    std::vector<simcuda::Gpu*> gpus;
    for (const auto& gpu : devices_[index]) gpus.push_back(gpu.get());
    GrdManager manager(gpus, options_.manager, state_, index);
    // Sessions the dead predecessor left are rebuilt before this worker
    // claims a channel: until then their partitions are free in this
    // worker's allocator, and a registration could be handed one.
    manager.AdoptPendingSessions();

    // Sticky claims: CAS our preferred channels; a channel claimed once is
    // pumped by this worker until it dies (the supervisor releases claims).
    std::vector<std::unique_ptr<ipc::Channel>> owned;
    ManagerServer pump(&manager);
    for (std::uint32_t i = 0; i < options_.channels; ++i) {
      if (state_->channel_slot(i).preferred.load(std::memory_order_acquire) !=
          index)
        continue;
      if (!state_->ClaimChannel(i, index)) continue;
      owned.push_back(std::make_unique<ipc::Channel>(
          state_->channel_region(i), options_.layout.ring_bytes,
          /*initialize=*/false));
      pump.AddChannel(owned.back().get());
    }
    pump.Run(state_->stop_flag());
  }
  // Clean shutdown: scheduler joined and manager destroyed above; leave the
  // shared claims in place for the parent's teardown accounting.
  ::_exit(0);
}

bool ProcessServer::WaitForChannelOwners(std::int64_t timeout_ms) {
  const std::int64_t deadline = NowMs() + timeout_ms;
  while (true) {
    bool all = true;
    for (std::uint32_t i = 0; i < options_.channels && all; ++i) {
      const std::uint32_t owner = channel_owner(i);
      all = owner != kNoWorker &&
            state_->worker_slot(owner).alive.load(std::memory_order_acquire) !=
                0;
    }
    if (all) return true;
    if (NowMs() > deadline) return false;
    SleepMicros(200);
  }
}

void ProcessServer::WriteSyntheticResponses(std::uint32_t worker) {
  // The dead worker was the only consumer of its request rings and the only
  // producer of its response rings; with its claims still held (released
  // only after this repair) the parent is momentarily the sole producer, so
  // writing here cannot interleave with a live worker. Every request the
  // worker consumed without answering gets a clean error so blocked clients
  // unblock with kUnavailable instead of hanging on a silent ring.
  const ipc::Bytes error = protocol::EncodeError(Unavailable(
      "manager worker crashed mid-request; retry after recovery"));
  for (std::uint32_t i = 0; i < options_.channels; ++i) {
    if (state_->channel_slot(i).owner.load(std::memory_order_acquire) !=
        worker)
      continue;
    ipc::Channel& channel = *channels_[i];
    const std::uint64_t consumed = channel.request().messages_read();
    const std::uint64_t answered = channel.response().messages_written();
    for (std::uint64_t n = answered; n < consumed; ++n) {
      // The synthetic response is a ring message like any other; keep the
      // shared write counter exact — and AHEAD of the publish, so the
      // unblocked client can never observe it lagging the ring's own.
      ++state_->stats().ring_messages_written;
      // Bounded write: a stalled client that never drains its response ring
      // must not wedge the SUPERVISOR (which still has other channels to
      // repair and a replacement worker to spawn).
      if (!channel.response()
               .WriteWithDeadline(error, std::chrono::milliseconds(100))
               .ok()) {
        --state_->stats().ring_messages_written;
        break;
      }
      state_->counters().synthetic_responses.fetch_add(
          1, std::memory_order_relaxed);
    }
  }
}

void ProcessServer::HandleWorkerDeath(std::uint32_t index, int wait_status) {
  SharedWorkerSlot& slot = state_->worker_slot(index);
  slot.alive.store(0, std::memory_order_release);
  slot.pid.store(0, std::memory_order_release);

  const bool clean_exit =
      WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
  if (clean_exit || stopping_.load(std::memory_order_acquire)) return;

  // Crash containment, in dependency order: recover the registry mutex if
  // the worker died holding it and sweep torn slots, re-home journaled
  // sessions onto the replacement worker (adoption), fail whatever could
  // not be adopted (so the replacement answers stragglers with the clean
  // status), then unblock clients waiting on consumed requests, and only
  // then hand the channels to a replacement.
  state_->AuditAfterWorkerDeath();
  // Adoption before the fail sweep: slots flagged adoption_pending are
  // skipped by FailSessionsOfWorker. The replacement spawns into the SAME
  // slot, so the dead worker's sessions re-home onto worker `index`, and
  // the replacement rebuilds them from their journals before it serves.
  const std::size_t adopted =
      options_.respawn ? state_->AdoptSessionsOfWorker(index, index) : 0;
  const std::size_t failed = state_->FailSessionsOfWorker(index);
  WriteSyntheticResponses(index);
  // Marks the death in the trace next to whatever unterminated 'B' spans
  // the worker left in the shared arena.
  obs::TraceRecorder::Instance().EmitInstant("worker.killed",
                                             obs::CurrentContext(), index,
                                             failed);
  GRD_LOG_WARN("ProcessServer")
      << "worker " << index << " died ("
      << (WIFSIGNALED(wait_status)
              ? "signal " + std::to_string(WTERMSIG(wait_status))
              : "exit " + std::to_string(WEXITSTATUS(wait_status)))
      << "), adopted " << adopted << ", failed " << failed << " session(s)";

  if (!options_.respawn) {
    state_->ReassignChannelsOfWorker(index, kNoWorker);
    return;
  }
  state_->ReassignChannelsOfWorker(index, index);
  if (SpawnWorker(index).ok())
    state_->counters().workers_respawned.fetch_add(1,
                                                   std::memory_order_relaxed);
}

void ProcessServer::SuperviseLoop() {
  std::int64_t kill_deadline_ms = -1;
  while (true) {
    bool any_alive = false;
    for (std::uint32_t i = 0; i < options_.workers; ++i) {
      SharedWorkerSlot& slot = state_->worker_slot(i);
      if (slot.alive.load(std::memory_order_acquire) == 0) continue;
      const pid_t pid =
          static_cast<pid_t>(slot.pid.load(std::memory_order_acquire));
      int status = 0;
      pid_t reaped;
      // waitpid is interruptible: retry on EINTR instead of treating a
      // signal as "still running" forever (the process-mode twin of the
      // ring-wait audit).
      do {
        reaped = ::waitpid(pid, &status, WNOHANG);
      } while (reaped < 0 && errno == EINTR);
      if (reaped == pid) {
        HandleWorkerDeath(i, status);
        continue;
      }
      any_alive = true;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      if (!any_alive) return;
      if (kill_deadline_ms < 0) {
        kill_deadline_ms = NowMs() + 3000;
      } else if (NowMs() > kill_deadline_ms) {
        // Grace expired: a worker is wedged; SIGKILL and keep reaping.
        for (std::uint32_t i = 0; i < options_.workers; ++i) {
          SharedWorkerSlot& slot = state_->worker_slot(i);
          if (slot.alive.load(std::memory_order_acquire) == 0) continue;
          const pid_t pid =
              static_cast<pid_t>(slot.pid.load(std::memory_order_acquire));
          if (pid > 0) ::kill(pid, SIGKILL);
        }
      }
    }
    SleepMicros(500);
  }
}

void ProcessServer::Stop() {
  if (!started_) return;
  state_->RequestStop();
  stopping_.store(true, std::memory_order_release);
  if (supervisor_.joinable()) supervisor_.join();
  // Unbind the recorder from OUR span arena before the SharedRegion can be
  // unmapped: a later Collect through the stale pointer would fault. Export
  // (TraceExporter::WriteFile) must happen before Stop.
  if (options_.manager.tracing_enabled &&
      obs::TraceRecorder::Instance().arena() == state_->span_arena()) {
    obs::TraceRecorder::Instance().BindArena(nullptr);
    obs::TraceRecorder::Instance().Enable(false);
  }
  started_ = false;
}

}  // namespace grd::guardian
