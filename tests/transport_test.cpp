// ManagerServer coverage: round-robin fairness across loaded channels,
// response parking for a stalled reader, dropped-response accounting, two
// pumps sharing one manager, shutdown, the idle wait on every channel, and
// idle backoff.
#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "simgpu/device_spec.hpp"

namespace grd::guardian {
namespace {

using simcuda::DevicePtr;
using simcuda::MemcpyKind;

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : gpu_(simgpu::QuadroRtxA4000()), manager_(&gpu_, ManagerOptions{}) {}

  // Registers a client directly and returns its id.
  ClientId Register() {
    ipc::Writer request;
    protocol::WriteHeader(request, protocol::Op::kRegisterClient, 0);
    request.Put<std::uint64_t>(1 << 20);
    const auto response = manager_.HandleRequest(std::move(request).Take());
    auto reader = protocol::DecodeResponse(response);
    if (!reader.ok()) return 0;
    auto id = reader->Get<std::uint64_t>();
    return id.ok() ? *id : 0;
  }

  // Enqueues `n` device-synchronize requests for `client` on `channel`.
  void EnqueueSyncs(ipc::Channel& channel, ClientId client, int n) {
    for (int i = 0; i < n; ++i) {
      ipc::Writer request;
      protocol::WriteHeader(request, protocol::Op::kDeviceSynchronize, client);
      ASSERT_TRUE(channel.request().Write(std::move(request).Take()).ok());
    }
  }

  // Enqueues `n` reads of a fresh `bytes`-byte buffer of `client`'s.
  void EnqueueReads(ipc::Channel& channel, ClientId client,
                    std::uint64_t bytes, int n) {
    ipc::Writer malloc_request;
    protocol::WriteHeader(malloc_request, protocol::Op::kMalloc, client);
    malloc_request.Put<std::uint64_t>(bytes);
    const ipc::Bytes malloc_reply =
        manager_.HandleRequest(std::move(malloc_request).Take());
    auto malloc_reader = protocol::DecodeResponse(malloc_reply);
    ASSERT_TRUE(malloc_reader.ok()) << malloc_reader.status();
    auto buffer = malloc_reader->Get<std::uint64_t>();
    ASSERT_TRUE(buffer.ok());
    for (int i = 0; i < n; ++i) {
      ipc::Writer read;
      protocol::WriteHeader(read, protocol::Op::kMemcpyD2H, client);
      read.Put<std::uint64_t>(*buffer);
      read.Put<std::uint64_t>(bytes);
      ASSERT_TRUE(channel.request().Write(std::move(read).Take()).ok());
    }
  }

  static std::size_t Drain(ipc::Channel& channel) {
    std::size_t count = 0;
    while (channel.response().TryRead().ok()) ++count;
    return count;
  }

  simcuda::Gpu gpu_;
  GrdManager manager_;
};

TEST_F(TransportTest, RoundRobinIsFairAcrossLoadedChannels) {
  ipc::HeapChannel a, b, c;
  ManagerServer server(&manager_);
  server.AddChannel(&a.channel());
  server.AddChannel(&b.channel());
  server.AddChannel(&c.channel());
  const ClientId ca = Register(), cb = Register(), cc = Register();
  EnqueueSyncs(a.channel(), ca, 5);
  EnqueueSyncs(b.channel(), cb, 5);
  EnqueueSyncs(c.channel(), cc, 5);
  // Every sweep serves exactly one request per loaded channel.
  for (int sweep = 1; sweep <= 5; ++sweep) {
    EXPECT_EQ(server.ServeOnce(), 3u) << "sweep " << sweep;
  }
  EXPECT_EQ(server.ServeOnce(), 0u);  // drained
  EXPECT_EQ(Drain(a.channel()), 5u);
  EXPECT_EQ(Drain(b.channel()), 5u);
  EXPECT_EQ(Drain(c.channel()), 5u);
}

TEST_F(TransportTest, DroppedResponseIsCountedNotSilent) {
  ipc::HeapChannel heap;
  ManagerServer server(&manager_);
  server.AddChannel(&heap.channel());
  const ClientId id = Register();
  EnqueueSyncs(heap.channel(), id, 1);
  // The client vanishes before its response can be delivered.
  heap.channel().response().Close();
  EXPECT_EQ(server.ServeOnce(), 1u);  // request was still served
  EXPECT_EQ(manager_.stats().responses_dropped, 1u);
}

TEST_F(TransportTest, StalledReaderParksOnlyItsChannel) {
  // The tenant's 4096-byte response ring holds one 3000-byte read reply but
  // not two, and the tenant reads no replies until told to below.
  ipc::HeapChannel stalled(4096), neighbor;
  ManagerServer server(&manager_);
  server.AddChannel(&stalled.channel());
  server.AddChannel(&neighbor.channel());
  const ClientId tenant = Register(), other = Register();
  EnqueueReads(stalled.channel(), tenant, 3000, 3);
  EnqueueSyncs(neighbor.channel(), other, 3);

  ipc::ShmRing& requests = stalled.channel().request();
  ipc::ShmRing& replies = stalled.channel().response();
  const auto neighbor_replies = [&] {
    return neighbor.channel().response().messages_written();
  };
  // Sweep 1 delivers reply 1; sweep 2 reads request 2 and parks its reply.
  EXPECT_EQ(server.ServeOnce(), 2u);
  EXPECT_EQ(neighbor_replies(), 1u);
  EXPECT_EQ(server.ServeOnce(), 2u);
  EXPECT_EQ(neighbor_replies(), 2u);
  EXPECT_EQ(requests.messages_read(), 2u);
  EXPECT_EQ(replies.messages_written(), 1u);
  // Sweep 3: the parked reply still has no room, so request 3 stays unread
  // while the neighbor is served as on every sweep.
  EXPECT_EQ(server.ServeOnce(), 1u);
  EXPECT_EQ(neighbor_replies(), 3u);
  EXPECT_EQ(requests.messages_read(), 2u);
  EXPECT_EQ(replies.messages_written(), 1u);

  // The tenant drains one reply: the next sweep delivers the parked reply
  // and reads nothing from that channel.
  ASSERT_TRUE(replies.TryRead().ok());
  EXPECT_EQ(server.ServeOnce(), 1u);
  EXPECT_EQ(replies.messages_written(), 2u);
  EXPECT_EQ(requests.messages_read(), 2u);

  // Once drained again, request 3 is served like any other.
  ASSERT_TRUE(replies.TryRead().ok());
  EXPECT_EQ(server.ServeOnce(), 1u);
  EXPECT_EQ(requests.messages_read(), 3u);
  auto last = replies.TryRead();
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(protocol::DecodeResponse(*last).ok());
  EXPECT_EQ(server.ServeOnce(), 0u);

  EXPECT_EQ(manager_.stats().ring_messages_read,
            requests.messages_read() +
                neighbor.channel().request().messages_read());
  EXPECT_EQ(manager_.stats().ring_messages_written,
            replies.messages_written() + neighbor_replies());
  EXPECT_EQ(manager_.stats().responses_dropped, 0u);
}

TEST_F(TransportTest, StopIsCheckedAtEverySweepBoundary) {
  // Stop wins over a backlog: a tenant that keeps its ring full cannot hold
  // shutdown open, because Run checks `stop` before every sweep.
  ipc::HeapChannel heap;
  ManagerServer server(&manager_);
  server.AddChannel(&heap.channel());
  EnqueueSyncs(heap.channel(), Register(), 50);
  const std::atomic<bool> stop{true};
  server.Run(stop);
  EXPECT_EQ(heap.channel().request().messages_read(), 0u);
}

TEST_F(TransportTest, MultiWorkerServesConcurrentClientsCorrectly) {
  // Two pumps share one manager, each owning half the channels, so
  // HandleRequest runs on two threads at once.
  constexpr int kClients = 6;
  constexpr int kOpsPerClient = 40;
  std::vector<std::unique_ptr<ipc::HeapChannel>> heaps;
  ManagerServer even(&manager_), odd(&manager_);
  for (int i = 0; i < kClients; ++i) {
    heaps.push_back(std::make_unique<ipc::HeapChannel>());
    (i % 2 == 0 ? even : odd).AddChannel(&heaps.back()->channel());
  }
  even.Start();
  odd.Start();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      ChannelTransport transport(&heaps[i]->channel());
      auto lib = GrdLib::Connect(&transport, 4 << 20);
      if (!lib.ok()) {
        ++failures;
        return;
      }
      for (int op = 0; op < kOpsPerClient; ++op) {
        DevicePtr p = 0;
        if (!lib->cudaMalloc(&p, 4096).ok()) ++failures;
        const std::uint64_t v = i * 1000000 + op;
        if (!lib->cudaMemcpyH2D(p, &v, 8).ok()) ++failures;
        std::uint64_t back = 0;
        if (!lib->cudaMemcpy(&back, p, 8, MemcpyKind::kDeviceToHost).ok())
          ++failures;
        if (back != v) ++failures;
        if (!lib->cudaFree(p).ok()) ++failures;
      }
      if (!lib->Disconnect().ok()) ++failures;
    });
  }
  for (auto& c : clients) c.join();
  even.Stop();
  odd.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager_.active_clients(), 0u);
}

TEST_F(TransportTest, PumpPreservesPerSessionOrdering) {
  // One channel hammered with sequenced writes to the same address: the
  // pump serves the session's requests in ring order, so the last write
  // wins.
  ipc::HeapChannel heap;
  ManagerServer server(&manager_);
  server.AddChannel(&heap.channel());
  server.Start();

  ChannelTransport transport(&heap.channel());
  auto lib = GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(lib.ok());
  DevicePtr p = 0;
  ASSERT_TRUE(lib->cudaMalloc(&p, 8).ok());
  for (std::uint64_t v = 1; v <= 200; ++v) {
    ASSERT_TRUE(lib->cudaMemcpyH2D(p, &v, 8).ok());
  }
  std::uint64_t back = 0;
  ASSERT_TRUE(lib->cudaMemcpy(&back, p, 8, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back, 200u);
  server.Stop();
}

TEST_F(TransportTest, IdleServerStopsPromptlyDespiteBackoff) {
  ipc::HeapChannel heap;
  ManagerServer server(&manager_);
  server.AddChannel(&heap.channel());
  std::atomic<bool> stop{false};
  std::thread pump([&] { server.Run(stop); });
  // Let the pump go idle (doorbell waits, or the backoff's sleep phase).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto begin = std::chrono::steady_clock::now();
  stop.store(true);
  pump.join();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  // Idle waits are bounded (≤1 ms), so shutdown is fast.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            500);
}

TEST_F(TransportTest, IdlePumpWaitsOnEveryChannel) {
  // Channels on raw regions, so the test can read each request ring's
  // header, as DoorbellSurvivesWriteIndexWrap does.
  constexpr std::uint64_t kRingBytes = 1 << 16;
  std::vector<std::vector<std::uint8_t>> regions;
  std::vector<std::unique_ptr<ipc::Channel>> channels;
  std::vector<ipc::ShmRing::Header*> requests;
  ManagerServer server(&manager_);
  for (int i = 0; i < 3; ++i) {
    regions.emplace_back(ipc::Channel::RegionSize(kRingBytes));
    channels.push_back(std::make_unique<ipc::Channel>(
        regions.back().data(), kRingBytes, /*initialize=*/true));
    requests.push_back(
        reinterpret_cast<ipc::ShmRing::Header*>(regions.back().data()));
    server.AddChannel(channels.back().get());
  }
  server.Start();

  // The idle pump is registered on all three doorbells at the same time.
  bool all_waited = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!all_waited && std::chrono::steady_clock::now() < give_up) {
    all_waited = true;
    for (ipc::ShmRing::Header* header : requests)
      all_waited = all_waited && header->waiters.load() == 1;
  }
  EXPECT_TRUE(all_waited);

  // A call on the third channel is answered.
  ChannelTransport transport(channels[2].get());
  auto lib = GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(lib.ok()) << lib.status();
  DevicePtr p = 0;
  EXPECT_TRUE(lib->cudaMalloc(&p, 64).ok());
  EXPECT_TRUE(lib->Disconnect().ok());
  server.Stop();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

TEST_F(TransportTest, ClosedOrStalledChannelDoesNotSpinThePump) {
  // A closed request ring and a stalled reader's buffered request are both
  // always "ready"; an idle pump that waited on either would never sleep.
  ipc::HeapChannel closed, stalled(4096), neighbor;
  ManagerServer server(&manager_);
  server.AddChannel(&closed.channel());
  server.AddChannel(&stalled.channel());
  server.AddChannel(&neighbor.channel());
  closed.channel().request().Close();
  const ClientId tenant = Register(), other = Register();
  // Sweep 1 delivers reply 1, sweep 2 parks reply 2; request 3 stays
  // buffered (see StalledReaderParksOnlyItsChannel).
  EnqueueReads(stalled.channel(), tenant, 3000, 3);
  EXPECT_EQ(server.ServeOnce(), 1u);
  EXPECT_EQ(server.ServeOnce(), 1u);
  EXPECT_EQ(stalled.channel().request().messages_read(), 2u);

  std::atomic<bool> stop{false}, running{false};
  double cpu_s = 0, wall_s = 0;
  std::thread pump([&] {
    const double cpu_begin = ThreadCpuSeconds();
    const auto wall_begin = std::chrono::steady_clock::now();
    running.store(true);
    server.Run(stop);
    cpu_s = ThreadCpuSeconds() - cpu_begin;
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall_begin)
                 .count();
  });
  while (!running.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The neighbor is still served.
  EnqueueSyncs(neighbor.channel(), other, 1);
  auto reply =
      neighbor.channel().response().ReadWithDeadline(std::chrono::seconds(2));
  stop.store(true);
  pump.join();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_TRUE(protocol::DecodeResponse(*reply).ok());
  EXPECT_GE(wall_s, 0.2);
  EXPECT_LT(cpu_s, wall_s / 4) << "pump CPU " << cpu_s << " s of " << wall_s
                               << " s wall";
  EXPECT_EQ(stalled.channel().request().messages_read(), 2u);
}

TEST(IdleBackoffTest, EscalatesAndResets) {
  IdleBackoff backoff;
  // The spin and yield phases never sleep.
  for (int i = 0; i < 96; ++i) {
    backoff.Pause();
    ASSERT_EQ(backoff.sleep_us(), 0u) << "pause " << i;
  }
  // The sleep phase actually sleeps.
  const auto sleep_begin = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) backoff.Pause();
  const auto slept = std::chrono::steady_clock::now() - sleep_begin;
  EXPECT_GT(backoff.sleep_us(), 0u);
  EXPECT_GT(std::chrono::duration_cast<std::chrono::microseconds>(slept)
                .count(),
            300);
  backoff.Reset();  // back to the hot phase
  EXPECT_EQ(backoff.sleep_us(), 0u);
  for (int i = 0; i < 32; ++i) {
    backoff.Pause();
    ASSERT_EQ(backoff.sleep_us(), 0u) << "pause " << i << " after Reset";
  }
}

}  // namespace
}  // namespace grd::guardian
