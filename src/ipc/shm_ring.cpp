#include "ipc/shm_ring.hpp"

#include <time.h>

#include <array>
#include <cerrno>
#include <climits>
#include <cstring>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace grd::ipc {
namespace {
// Spin for a while before yielding; IPC latency dominates the paper's
// "Guardian w/o protection" overhead, so the fast path must stay in
// user space.
constexpr int kSpinsBeforeYield = 256;

void Backoff(int& spins) {
  if (++spins < kSpinsBeforeYield) return;
  std::this_thread::yield();
  spins = 0;
}

timespec DeadlineAfter(std::chrono::nanoseconds timeout) {
  timespec deadline;
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_sec += timeout.count() / 1'000'000'000;
  deadline.tv_nsec += timeout.count() % 1'000'000'000;
  if (deadline.tv_nsec >= 1'000'000'000) {
    deadline.tv_sec += 1;
    deadline.tv_nsec -= 1'000'000'000;
  }
  return deadline;
}

bool PastDeadline(const timespec& now, const timespec& deadline) {
  return now.tv_sec > deadline.tv_sec ||
         (now.tv_sec == deadline.tv_sec && now.tv_nsec >= deadline.tv_nsec);
}

// Sleep one short slice toward (never past) the absolute deadline.
// clock_nanosleep with TIMER_ABSTIME returns EINTR when a signal lands
// mid-sleep; the caller's loop re-polls and re-sleeps against the SAME
// deadline, so signals can never shorten the overall wait (the
// spurious-timeout bug a relative-sleep retry loop would have).
void SleepSliceUntil(const timespec& now, const timespec& deadline) {
  timespec slice = now;
  slice.tv_nsec += 100'000;  // 100 µs
  if (slice.tv_nsec >= 1'000'000'000) {
    slice.tv_sec += 1;
    slice.tv_nsec -= 1'000'000'000;
  }
  if (PastDeadline(slice, deadline)) slice = deadline;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &slice, nullptr) ==
         EINTR) {
  }
}

#if defined(__linux__)
// The futex word is the dedicated 32-bit doorbell sequence counter (one
// bump per publish; see Header::doorbell for why it is not the low half of
// the byte-counted tail). Plain FUTEX_WAIT/WAKE — not _PRIVATE — because
// the ring may be a MAP_SHARED mapping spanning forked processes.
std::uint32_t* FutexWord(std::atomic<std::uint32_t>* doorbell) {
  return reinterpret_cast<std::uint32_t*>(doorbell);
}

void FutexWait(std::atomic<std::uint32_t>* doorbell, std::uint32_t expected,
               const timespec* rel_timeout) {
  ::syscall(SYS_futex, FutexWord(doorbell), FUTEX_WAIT, expected, rel_timeout,
            nullptr, 0);
}

// Set once futex_waitv has refused to wait (ENOSYS on a pre-5.16 kernel, or
// a seccomp filter's error); every later multi-ring wait reports
// kNoDoorbell without trying again.
std::atomic<bool> futex_waitv_missing{false};

// One futex_waitv over the doorbell words, each expected to still hold its
// snapshot. FUTEX_32 without FUTEX_PRIVATE_FLAG, for the same MAP_SHARED
// reason as FutexWait. Returns false when the call cannot wait at all.
bool FutexWaitv(std::span<std::atomic<std::uint32_t>* const> doorbells,
                const std::uint32_t* expected, const timespec& deadline) {
#if defined(SYS_futex_waitv) && defined(FUTEX_WAITV_MAX)
  static_assert(ShmRing::kMaxWaitRings == FUTEX_WAITV_MAX);
  std::array<futex_waitv, FUTEX_WAITV_MAX> waiters{};
  for (std::size_t i = 0; i < doorbells.size(); ++i) {
    waiters[i].val = expected[i];
    waiters[i].uaddr =
        reinterpret_cast<std::uintptr_t>(FutexWord(doorbells[i]));
    waiters[i].flags = FUTEX_32;
  }
  if (::syscall(SYS_futex_waitv, waiters.data(), doorbells.size(), 0,
                &deadline, CLOCK_MONOTONIC) >= 0)
    return true;
  // EAGAIN (a word already moved), ETIMEDOUT and EINTR end a sleep the
  // caller re-checks; any other error means this call can never sleep, and
  // retrying it would turn the caller's idle loop into a spin.
  if (errno == EAGAIN || errno == ETIMEDOUT || errno == EINTR) return true;
#else
  (void)doorbells, (void)expected, (void)deadline;
#endif
  futex_waitv_missing.store(true, std::memory_order_relaxed);
  return false;
}

void FutexWakeAll(std::atomic<std::uint32_t>* doorbell) {
  ::syscall(SYS_futex, FutexWord(doorbell), FUTEX_WAKE, INT_MAX, nullptr,
            nullptr, 0);
}
#endif
}  // namespace

ShmRing::ShmRing(void* region, std::uint64_t data_capacity, bool initialize) {
  header_ = static_cast<Header*>(region);
  data_ = static_cast<std::uint8_t*>(region) + sizeof(Header);
  if (initialize) {
    new (header_) Header();
    header_->capacity = data_capacity;
  }
}

void ShmRing::CopyIn(std::uint64_t pos, const void* src, std::uint64_t len) {
  const std::uint64_t cap = header_->capacity;
  const std::uint64_t offset = pos % cap;
  const std::uint64_t first = std::min(len, cap - offset);
  std::memcpy(data_ + offset, src, first);
  if (first < len) {
    std::memcpy(data_, static_cast<const std::uint8_t*>(src) + first,
                len - first);
  }
}

void ShmRing::CopyOut(std::uint64_t pos, void* dst, std::uint64_t len) const {
  const std::uint64_t cap = header_->capacity;
  const std::uint64_t offset = pos % cap;
  const std::uint64_t first = std::min(len, cap - offset);
  std::memcpy(dst, data_ + offset, first);
  if (first < len) {
    std::memcpy(static_cast<std::uint8_t*>(dst) + first, data_, len - first);
  }
}

Status ShmRing::ProbeSpace(std::uint64_t needed) {
  if (needed > header_->capacity)
    return InvalidArgument("message larger than ring capacity");
  if (header_->closed.load(std::memory_order_acquire))
    return Unavailable("ring closed");
  const std::uint64_t head = header_->head.load(std::memory_order_acquire);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  if (header_->capacity - (tail - head) >= needed) return OkStatus();
  return NotFound("ring full");
}

Status ShmRing::WaitForSpace(std::uint64_t needed) {
  int spins = 0;
  while (true) {
    const Status probe = ProbeSpace(needed);
    if (probe.code() != StatusCode::kNotFound) return probe;
    Backoff(spins);
  }
}

void ShmRing::WakeDoorbell() {
#if defined(__linux__)
  // Ring the doorbell for every publish (and close), even with no waiter
  // registered yet: a consumer that snapshots the sequence BEFORE its empty
  // check can then never miss a publish — any publish after the snapshot
  // leaves the word != snapshot and its futex sleep returns EAGAIN.
  header_->doorbell.fetch_add(1, std::memory_order_release);
  // Store-buffer litmus with WaitForAny: the doorbell bump (RMW above)
  // must be globally ordered before this waiters load, and the waiter's
  // registration (seq_cst RMW) before its doorbell re-check — otherwise
  // both sides could miss each other and the waiter sleeps through a
  // publish.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (header_->waiters.load(std::memory_order_relaxed) > 0)
    FutexWakeAll(&header_->doorbell);
#endif
}

void ShmRing::PublishFrame(const Bytes& message) {
  const std::uint64_t frame = sizeof(std::uint32_t) + message.size();
  // Counter BEFORE the publish (the read side counts after): if the writer
  // dies between the two stores, the counter over-reports by one and a
  // crash supervisor diffing the pair computes a smaller deficit — it
  // writes one synthetic response too FEW (a stuck, retriable client),
  // never one too many (which would permanently shift every later reply on
  // the channel by one). The unpublished partial frame is overwritten by
  // the next producer, since tail was never advanced.
  header_->messages_written.fetch_add(1, std::memory_order_release);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  const auto len = static_cast<std::uint32_t>(message.size());
  CopyIn(tail, &len, sizeof(len));
  if (!message.empty())
    CopyIn(tail + sizeof(len), message.data(), message.size());
  header_->tail.store(tail + frame, std::memory_order_release);
  WakeDoorbell();
}

Status ShmRing::Write(const Bytes& message) {
  GRD_RETURN_IF_ERROR(WaitForSpace(sizeof(std::uint32_t) + message.size()));
  PublishFrame(message);
  return OkStatus();
}

Status ShmRing::TryWrite(const Bytes& message) {
  GRD_RETURN_IF_ERROR(ProbeSpace(sizeof(std::uint32_t) + message.size()));
  PublishFrame(message);
  return OkStatus();
}

Status ShmRing::WriteWithDeadline(const Bytes& message,
                                  std::chrono::nanoseconds timeout) {
  const timespec deadline = DeadlineAfter(timeout);
  int spins = 0;
  while (true) {
    const Status probe = ProbeSpace(sizeof(std::uint32_t) + message.size());
    if (probe.ok()) {
      PublishFrame(message);
      return OkStatus();
    }
    if (probe.code() != StatusCode::kNotFound) return probe;
    timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    if (PastDeadline(now, deadline)) {
      // Deadline-edge re-probe: space freed between the probe above and the
      // clock read was still freed BEFORE the deadline — report the write,
      // not a spurious timeout.
      const Status last = ProbeSpace(sizeof(std::uint32_t) + message.size());
      if (last.ok()) {
        PublishFrame(message);
        return OkStatus();
      }
      if (last.code() != StatusCode::kNotFound) return last;
      return DeadlineExceeded("ring write timed out");
    }
    if (++spins < kSpinsBeforeYield) continue;
    // No doorbell on the head word (space frees rarely relative to message
    // publishes); sleep in short EINTR-safe slices toward the deadline.
    SleepSliceUntil(now, deadline);
  }
}

Status ShmRing::InjectRaw(const void* bytes, std::uint64_t len) {
  GRD_RETURN_IF_ERROR(WaitForSpace(len));
  header_->messages_written.fetch_add(1, std::memory_order_release);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  if (len > 0) CopyIn(tail, bytes, len);
  header_->tail.store(tail + len, std::memory_order_release);
  WakeDoorbell();
  return OkStatus();
}

Result<Bytes> ShmRing::TryRead() {
  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  if (tail == head) {
    if (header_->closed.load(std::memory_order_acquire))
      return Status(Unavailable("ring closed"));
    return Status(NotFound("ring empty"));
  }
  // Frame validation (torn-frame containment, see the file comment): the
  // length prefix must be complete and the whole frame must lie inside the
  // published [head, tail) window. An impossible frame means the producer
  // side tore or forged a write; the buffered bytes have no recoverable
  // message boundaries, so discard them all and surface kAborted once.
  const std::uint64_t avail = tail - head;
  std::uint32_t len = 0;
  bool corrupt = avail < sizeof(len);
  if (!corrupt) {
    CopyOut(head, &len, sizeof(len));
    corrupt = len > header_->capacity || sizeof(len) + len > avail;
  }
  if (corrupt) {
    header_->frames_corrupt.fetch_add(1, std::memory_order_release);
    header_->head.store(tail, std::memory_order_release);
    // Count the discarded garbage as one consumed message; the pairing on
    // a corrupted ring is approximate by nature (Header comment).
    header_->messages_read.fetch_add(1, std::memory_order_release);
    return Status(Aborted("corrupt ring frame discarded"));
  }
  Bytes message(len);
  if (len > 0) CopyOut(head + sizeof(len), message.data(), len);
  header_->head.store(head + sizeof(len) + len, std::memory_order_release);
  header_->messages_read.fetch_add(1, std::memory_order_release);
  return message;
}

ShmRing::WaitResult ShmRing::WaitForAny(std::span<ShmRing* const> rings,
                                        std::chrono::nanoseconds timeout) {
  if (rings.size() > kMaxWaitRings) return WaitResult::kNoDoorbell;
  // Snapshot each doorbell BEFORE its ring's emptiness check: any publish
  // that lands after the load bumps the word away from the snapshot, so the
  // sleep below returns EAGAIN instead of sleeping through it.
  std::array<std::uint32_t, kMaxWaitRings> seq{};
  for (std::size_t i = 0; i < rings.size(); ++i) {
    const Header& h = *rings[i]->header_;
    seq[i] = h.doorbell.load(std::memory_order_acquire);
    if (h.tail.load(std::memory_order_acquire) !=
            h.head.load(std::memory_order_relaxed) ||
        h.closed.load(std::memory_order_acquire) != 0)
      return WaitResult::kReady;
  }
  if (rings.empty()) {
    const timespec deadline = DeadlineAfter(timeout);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                           nullptr) == EINTR) {
    }
    return WaitResult::kTimedOut;
  }
#if defined(__linux__)
  const bool one = rings.size() == 1;
  if (!one && futex_waitv_missing.load(std::memory_order_relaxed))
    return WaitResult::kNoDoorbell;
  std::array<std::atomic<std::uint32_t>*, kMaxWaitRings> doorbells{};
  for (std::size_t i = 0; i < rings.size(); ++i) {
    rings[i]->header_->waiters.fetch_add(1, std::memory_order_seq_cst);
    doorbells[i] = &rings[i]->header_->doorbell;
  }
  // Re-check AFTER registering (pairs with WakeDoorbell's fence): for every
  // ring, either this load sees the new doorbell, or the producer sees our
  // registration and wakes the futex.
  const auto rang = [&] {
    for (std::size_t i = 0; i < rings.size(); ++i) {
      const Header& h = *rings[i]->header_;
      if (h.doorbell.load(std::memory_order_seq_cst) != seq[i] ||
          h.closed.load(std::memory_order_acquire) != 0)
        return true;
    }
    return false;
  };
  WaitResult result = WaitResult::kReady;
  if (!rang()) {
    // EINTR / EAGAIN / timeout all fall through to the re-check; the
    // caller loops against its own deadline, so an interrupted wait can
    // only shorten this one slice, never a whole wait.
    bool slept = true;
    if (one) {
      timespec rel;
      rel.tv_sec = timeout.count() / 1'000'000'000;
      rel.tv_nsec = timeout.count() % 1'000'000'000;
      FutexWait(doorbells[0], seq[0], &rel);
    } else {
      slept = FutexWaitv({doorbells.data(), rings.size()}, seq.data(),
                         DeadlineAfter(timeout));
    }
    result = !slept   ? WaitResult::kNoDoorbell
             : rang() ? WaitResult::kReady
                      : WaitResult::kTimedOut;
  }
  for (ShmRing* ring : rings)
    ring->header_->waiters.fetch_sub(1, std::memory_order_release);
  return result;
#else
  return WaitResult::kNoDoorbell;
#endif
}

bool ShmRing::WaitForMessage(std::chrono::nanoseconds timeout) {
  ShmRing* const self = this;
  return WaitForAny({&self, 1}, timeout) == WaitResult::kReady;
}

Result<Bytes> ShmRing::ReadWithDeadline(std::chrono::nanoseconds timeout) {
  const timespec deadline = DeadlineAfter(timeout);
  int spins = 0;
  while (true) {
    auto message = TryRead();
    if (message.ok()) return message;
    if (message.status().code() != StatusCode::kNotFound)
      return message.status();  // closed, or a corrupt frame was discarded
    timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    if (PastDeadline(now, deadline)) {
      // Deadline-edge re-probe: a frame published between the TryRead above
      // and the clock read landed BEFORE the deadline — a doorbell wake (or
      // publish) racing the deadline must deliver the message, never lose
      // it behind a spurious DeadlineExceeded.
      message = TryRead();
      if (message.status().code() != StatusCode::kNotFound) return message;
      return Status(DeadlineExceeded("ring read timed out"));
    }
    if (++spins < kSpinsBeforeYield) continue;
    // Prefer the futex doorbell (wakes on the next publish); fall back to
    // EINTR-safe sleep slices toward the absolute deadline elsewhere.
    if constexpr (kFutexDoorbell) {
      std::int64_t remaining_ns =
          (deadline.tv_sec - now.tv_sec) * 1'000'000'000 +
          (deadline.tv_nsec - now.tv_nsec);
      if (remaining_ns > 1'000'000) remaining_ns = 1'000'000;  // 1 ms slice
      WaitForMessage(std::chrono::nanoseconds(remaining_ns));
    } else {
      SleepSliceUntil(now, deadline);
    }
  }
}

Result<Bytes> ShmRing::Read() {
  int spins = 0;
  while (true) {
    auto message = TryRead();
    if (message.ok()) return message;
    if (message.status().code() != StatusCode::kNotFound)
      return message.status();
    if constexpr (kFutexDoorbell) {
      if (++spins >= kSpinsBeforeYield) {
        WaitForMessage(std::chrono::milliseconds(1));
        spins = 0;
        continue;
      }
    } else {
      Backoff(spins);
    }
  }
}

void ShmRing::Close() {
  header_->closed.store(1, std::memory_order_release);
  WakeDoorbell();
}

bool ShmRing::closed() const noexcept {
  return header_->closed.load(std::memory_order_acquire) != 0;
}

}  // namespace grd::ipc
