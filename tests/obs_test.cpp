// Observability layer coverage: the metrics registry (Log2Histogram,
// ShardedCounter, registration-ordered JSON / Prometheus rendering) and the
// structured tracer (thread rings, shared span arena, context propagation,
// Chrome trace-event export) — plus end-to-end trace propagation through
// the loopback manager, including kBatch compacted envelopes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "guardian/execution.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"
#include "simgpu/device_spec.hpp"

namespace grd {
namespace {

using obs::Log2Histogram;
using obs::MetricsRegistry;
using obs::ShardedCounter;
using obs::SpanArenaHeader;
using obs::SpanRecord;
using obs::TraceContext;
using obs::TraceExporter;
using obs::TraceRecorder;

// ---- metrics ---------------------------------------------------------------

TEST(Log2HistogramTest, BucketsPercentilesAndMax) {
  Log2Histogram hist;
  EXPECT_EQ(hist.PercentileNs(0.5), 0u);  // empty histogram

  // Three 1 µs samples land in bucket 0, one 1024 µs sample in bucket 10.
  for (int i = 0; i < 3; ++i) hist.Record(1'000);
  hist.Record(1'024'000);

  EXPECT_EQ(hist.count.load(), 4u);
  EXPECT_EQ(hist.total_ns.load(), 3'000u + 1'024'000u);
  EXPECT_EQ(hist.max_ns.load(), 1'024'000u);
  EXPECT_EQ(hist.bucket[0].load(), 3u);
  EXPECT_EQ(hist.bucket[10].load(), 1u);
  // Percentiles report the upper bound (ns) of the holding bucket.
  EXPECT_EQ(hist.PercentileNs(0.50), 2'000u);
  EXPECT_EQ(hist.PercentileNs(1.00), 2'048'000u);
}

TEST(ShardedCounterTest, SumsAcrossThreads) {
  ShardedCounter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) counter.Add();
    });
  for (auto& thread : threads) thread.join();
  counter.Add(42);
  EXPECT_EQ(counter.Value(), kThreads * kIncrements + 42u);
}

TEST(MetricsRegistryTest, JsonIsRegistrationOrderedWithCoalescedGroups) {
  std::atomic<std::uint64_t> a{1};
  std::atomic<std::uint64_t> g{7};
  Log2Histogram x, y;
  x.Record(1'000);

  MetricsRegistry registry;
  registry.Counter("a", &a);
  registry.Histogram("lat", "x", &x);
  registry.Gauge("g", &g);
  registry.Histogram("lat", "y", &y);  // joins group at x's position
  registry.OwnedCounter("own").Add(5);

  // Byte-exact: this shape is what keeps ManagerStats::ToJson stable for
  // its historical consumers.
  EXPECT_EQ(registry.ToJson(),
            "{\"a\":1,"
            "\"lat\":{"
            "\"x\":{\"count\":1,\"total_ns\":1000,\"max_ns\":1000,"
            "\"p50_ns\":2000,\"p99_ns\":2000,\"buckets_us_log2\":{\"0\":1}},"
            "\"y\":{\"count\":0,\"total_ns\":0,\"max_ns\":0,"
            "\"p50_ns\":0,\"p99_ns\":0,\"buckets_us_log2\":{}}},"
            "\"g\":7,"
            "\"own\":5}");
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  std::atomic<std::uint64_t> a{1};
  std::atomic<std::uint64_t> g{7};
  Log2Histogram x;
  x.Record(1'000);

  MetricsRegistry registry;
  registry.Counter("a", &a);
  registry.Gauge("g", &g);
  registry.Histogram("lat", "x", &x);
  registry.OwnedCounter("own").Add(5);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE grd_a counter\ngrd_a 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE grd_g gauge\ngrd_g 7\n"), std::string::npos);
  EXPECT_NE(text.find("grd_lat_x_us_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("grd_lat_x_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("grd_lat_x_us_sum 1\n"), std::string::npos);
  EXPECT_NE(text.find("grd_lat_x_us_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("grd_own 5\n"), std::string::npos);
}

TEST(ManagerStatsTest, JsonKeepsHistoricalKeyOrderAndRingCounters) {
  guardian::ManagerStats stats;
  stats.launches.store(3);
  stats.ring_messages_read.store(11);
  stats.ring_messages_written.store(9);
  const std::string json = stats.ToJson();

  // Leading key unchanged since the first MANAGER_STATS emission.
  EXPECT_EQ(json.rfind("{\"launches\":3,", 0), 0u);
  // The new ring counters slot in after the tier counters, before the
  // wait histograms — appended, never reordered.
  const auto tier = json.find("\"tier2_instructions\":");
  const auto read = json.find("\"ring_messages_read\":11");
  const auto written = json.find("\"ring_messages_written\":9");
  const auto hist = json.find("\"wait_histograms\":{");
  ASSERT_NE(tier, std::string::npos);
  ASSERT_NE(read, std::string::npos);
  ASSERT_NE(written, std::string::npos);
  ASSERT_NE(hist, std::string::npos);
  EXPECT_LT(tier, read);
  EXPECT_LT(read, written);
  EXPECT_LT(written, hist);
  // One histogram per priority class, in class order.
  EXPECT_LT(json.find("\"realtime\":{", hist), json.find("\"normal\":{", hist));
  EXPECT_LT(json.find("\"normal\":{", hist), json.find("\"batch\":{", hist));
  // The schema version closes the object; retired keys stay out.
  const std::string tail = ",\"schema_version\":2}";
  ASSERT_GE(json.size(), tail.size());
  EXPECT_EQ(json.compare(json.size() - tail.size(), tail.size(), tail), 0)
      << json;
  EXPECT_EQ(json.find("\"tier0_instructions\""), std::string::npos);

  const std::string prom = stats.ToPrometheus();
  EXPECT_NE(prom.find("grd_launches 3\n"), std::string::npos);
  EXPECT_NE(prom.find("grd_ring_messages_read 11\n"), std::string::npos);
}

// ---- tracing ---------------------------------------------------------------

// Every trace test starts from a clean recorder and leaves it disabled:
// the recorder is a process-wide singleton shared with the other suites in
// this binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { TraceRecorder::Instance().Reset(); }
  void TearDown() override { TraceRecorder::Instance().Reset(); }

  static std::vector<SpanRecord> Collect() {
    std::vector<SpanRecord> spans;
    TraceRecorder::Instance().Collect(&spans);
    return spans;
  }
  static const SpanRecord* Find(const std::vector<SpanRecord>& spans,
                                const char* name) {
    for (const SpanRecord& rec : spans)
      if (std::strcmp(rec.name, name) == 0) return &rec;
    return nullptr;
  }
};

TEST_F(TraceTest, DisabledRecorderEmitsNothing) {
  ASSERT_FALSE(TraceRecorder::Instance().enabled());
  TraceRecorder::Instance().EmitComplete("noop", TraceContext{1, 2}, 0, 10,
                                         20);
  {
    obs::ScopedSpan span("noop2");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(Collect().empty());
  // Disabled ScopedSpan must not perturb the ambient context either.
  EXPECT_EQ(obs::CurrentContext().trace_id, 0u);
}

TEST_F(TraceTest, RingEmitRoundTripsAllFields) {
  TraceRecorder::Instance().Enable(true);
  TraceRecorder::Instance().EmitComplete("alpha", TraceContext{10, 20}, 30,
                                         100, 250, 4, 5);
  TraceRecorder::Instance().EmitInstant("mark", TraceContext{10, 20}, 6);

  const auto spans = Collect();
  const SpanRecord* alpha = Find(spans, "alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->trace_id, 10u);
  EXPECT_EQ(alpha->span_id, 20u);
  EXPECT_EQ(alpha->parent_span_id, 30u);
  EXPECT_EQ(alpha->begin_ns, 100u);
  EXPECT_EQ(alpha->end_ns, 250u);
  EXPECT_EQ(alpha->arg1, 4u);
  EXPECT_EQ(alpha->arg2, 5u);
  EXPECT_EQ(alpha->phase, 'X');
  EXPECT_EQ(alpha->pid, getpid());

  const SpanRecord* mark = Find(spans, "mark");
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(mark->phase, 'i');
  EXPECT_EQ(mark->trace_id, 10u);
  EXPECT_EQ(mark->parent_span_id, 20u);  // instant hangs off the open span
  EXPECT_EQ(mark->begin_ns, mark->end_ns);
}

TEST_F(TraceTest, ContextScopeNestsAndRestores) {
  TraceRecorder::Instance().Enable(true);
  EXPECT_FALSE(obs::CurrentContext().valid());
  {
    obs::ContextScope outer(TraceContext{42, 7});
    EXPECT_EQ(obs::CurrentContext().trace_id, 42u);
    {
      obs::ScopedSpan child("child");
      ASSERT_TRUE(child.active());
      // The span inherits the trace and becomes the ambient span.
      EXPECT_EQ(obs::CurrentContext().trace_id, 42u);
      EXPECT_NE(obs::CurrentContext().span_id, 7u);
    }
    EXPECT_EQ(obs::CurrentContext().span_id, 7u);  // restored
  }
  EXPECT_FALSE(obs::CurrentContext().valid());

  const auto spans = Collect();
  const SpanRecord* child = Find(spans, "child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->trace_id, 42u);
  EXPECT_EQ(child->parent_span_id, 7u);
  EXPECT_LE(child->begin_ns, child->end_ns);
}

TEST_F(TraceTest, ScopedSpanStartsFreshTraceWithoutAmbientContext) {
  TraceRecorder::Instance().Enable(true);
  { obs::ScopedSpan root("root"); }
  const auto spans = Collect();
  const SpanRecord* root = Find(spans, "root");
  ASSERT_NE(root, nullptr);
  EXPECT_NE(root->trace_id, 0u);
  EXPECT_EQ(root->parent_span_id, 0u);
}

TEST_F(TraceTest, ArenaCommitsOnlyFinishedRecordsAndCountsDrops) {
  constexpr std::uint64_t kCapacity = 4;
  std::vector<std::uint64_t> buffer(
      (SpanArenaHeader::RegionSize(kCapacity) + 7) / 8);
  SpanArenaHeader* arena =
      SpanArenaHeader::Initialize(buffer.data(), kCapacity);
  TraceRecorder::Instance().Enable(true);
  TraceRecorder::Instance().BindArena(arena);

  TraceRecorder::Instance().EmitComplete("one", TraceContext{1, 1}, 0, 1, 2);
  TraceRecorder::Instance().EmitComplete("two", TraceContext{1, 2}, 0, 3, 4);

  // Forge what a SIGKILLed writer leaves behind: a claimed slot whose
  // payload was written but whose commit word never was.
  const std::uint64_t torn = arena->next.fetch_add(1);
  ASSERT_LT(torn, kCapacity);
  SpanRecord uncommitted;
  uncommitted.trace_id = 99;
  arena->records()[torn].CopyPayloadFrom(uncommitted);

  auto spans = Collect();
  EXPECT_EQ(spans.size(), 2u);  // the uncommitted claim is invisible
  EXPECT_NE(Find(spans, "one"), nullptr);
  EXPECT_NE(Find(spans, "two"), nullptr);

  // Overflow: claims beyond capacity are dropped and accounted.
  for (int i = 0; i < 3; ++i)
    TraceRecorder::Instance().EmitComplete("spill", TraceContext{1, 3}, 0, 5,
                                           6);
  EXPECT_EQ(TraceRecorder::Instance().dropped(), 2u);
  spans = Collect();
  EXPECT_EQ(spans.size(), 3u);  // one spill fit in the last slot

  TraceRecorder::Instance().BindArena(nullptr);  // buffer dies with the test
}

TEST_F(TraceTest, ExporterElidesMatchedBeginsAndRendersShape) {
  auto make = [](char phase, const char* name, std::uint64_t span_id,
                 std::uint64_t begin, std::uint64_t end) {
    SpanRecord rec;
    rec.phase = phase;
    rec.trace_id = 1;
    rec.span_id = span_id;
    rec.begin_ns = begin;
    rec.end_ns = end;
    rec.pid = 7;
    rec.tid = 8;
    std::snprintf(rec.name, sizeof(rec.name), "%s", name);
    return rec;
  };
  std::vector<SpanRecord> spans;
  spans.push_back(make('B', "done", 5, 1'000, 0));    // elided: 'X' follows
  spans.push_back(make('X', "done", 5, 1'000, 3'500));
  spans.push_back(make('B', "killed", 6, 2'000, 0));  // survives: no 'X'
  spans.push_back(make('i', "mark\"q", 7, 4'000, 4'000));

  const std::string json = TraceExporter::ToChromeJson(spans);
  // One "done" event only — the complete one, with a microsecond duration.
  EXPECT_EQ(json.find("\"name\":\"done\""),
            json.rfind("\"name\":\"done\""));
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500"),
            std::string::npos);
  // The unmatched begin renders as an unterminated slice, without "dur".
  const auto killed = json.find("\"name\":\"killed\",\"ph\":\"B\"");
  ASSERT_NE(killed, std::string::npos);
  const std::string killed_event =
      json.substr(killed, json.find("}}", killed) - killed);
  EXPECT_EQ(killed_event.find("\"dur\""), std::string::npos);
  // Instants carry thread scope; names are JSON-escaped.
  EXPECT_NE(json.find("\"name\":\"mark\\\"q\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
}

// ---- end-to-end propagation through the manager ----------------------------

TEST_F(TraceTest, RequestSpansPropagateThroughDispatchAndExecution) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::ManagerOptions options;
  options.tracing_enabled = true;
  guardian::GrdManager manager(&gpu, options);
  guardian::LoopbackTransport transport(&manager);

  auto lib = guardian::GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(lib.ok());
  auto module = lib->cuModuleLoadData(ptx::Print(ptx::MakeSampleModule()));
  ASSERT_TRUE(module.ok());
  auto fn = lib->cuModuleGetFunction(*module, "kernel");
  ASSERT_TRUE(fn.ok());
  simcuda::DevicePtr buf = 0;
  ASSERT_TRUE(lib->cudaMalloc(&buf, 4096).ok());
  simcuda::LaunchConfig config;
  config.block = {8, 1, 1};
  // Default stream: synchronous, so the exec span has completed by return.
  ASSERT_TRUE(lib->cudaLaunchKernel(*fn, config,
                                    {ptxexec::KernelArg::U64(buf),
                                     ptxexec::KernelArg::U32(0)})
                  .ok());

  const auto spans = Collect();
  const SpanRecord* client = Find(spans, "client.LaunchKernel");
  const SpanRecord* dispatch = Find(spans, "LaunchKernel");
  ASSERT_NE(client, nullptr);
  ASSERT_NE(dispatch, nullptr);
  // One trace id flows from the client call through dispatch...
  EXPECT_EQ(dispatch->trace_id, client->trace_id);
  EXPECT_NE(client->trace_id, 0u);

  // ...into the queue-wait and per-tier execution spans.
  const SpanRecord* queue = Find(spans, "queue.wait");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->trace_id, client->trace_id);
  const SpanRecord* exec = nullptr;
  for (const SpanRecord& rec : spans)
    if (std::strncmp(rec.name, "exec.t", 6) == 0 && rec.phase == 'X')
      exec = &rec;
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->trace_id, client->trace_id);
  EXPECT_EQ(exec->arg2, 0u);  // outcome code: completed
  EXPECT_GT(exec->arg1, 0u);  // instructions retired

  // The module load passed through the sandbox patch/compile spans.
  EXPECT_NE(Find(spans, "sandbox.patch"), nullptr);
  EXPECT_NE(Find(spans, "ModuleLoadData"), nullptr);
}

TEST_F(TraceTest, BatchSubRequestsCarryTheirOwnTraceContexts) {
  simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
  guardian::ManagerOptions options;
  options.tracing_enabled = true;
  guardian::GrdManager manager(&gpu, options);
  guardian::LoopbackTransport transport(&manager);

  auto lib = guardian::GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(lib.ok());
  auto module = lib->cuModuleLoadData(ptx::Print(ptx::MakeSampleModule()));
  ASSERT_TRUE(module.ok());
  auto fn = lib->cuModuleGetFunction(*module, "kernel");
  ASSERT_TRUE(fn.ok());
  simcuda::DevicePtr buf = 0;
  ASSERT_TRUE(lib->cudaMalloc(&buf, 4096).ok());
  simcuda::StreamId stream = 0;
  ASSERT_TRUE(lib->cudaStreamCreate(&stream).ok());

  lib->EnableBatching(8);
  simcuda::LaunchConfig config;
  config.block = {8, 1, 1};
  config.stream = stream;  // async => batchable
  const std::vector<ptxexec::KernelArg> args = {ptxexec::KernelArg::U64(buf),
                                                ptxexec::KernelArg::U32(0)};
  ASSERT_TRUE(lib->cudaLaunchKernel(*fn, config, args).ok());
  ASSERT_TRUE(lib->cudaLaunchKernel(*fn, config, args).ok());
  ASSERT_TRUE(lib->FlushBatch().ok());
  ASSERT_TRUE(lib->cudaStreamSynchronize(stream).ok());
  ASSERT_EQ(lib->batches_sent(), 1u);

  const auto spans = Collect();
  // The envelope produced one client span (arg1 = sub-request count) and
  // one dispatch span.
  const SpanRecord* client_batch = Find(spans, "client.Batch");
  const SpanRecord* batch = Find(spans, "Batch");
  ASSERT_NE(client_batch, nullptr);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(client_batch->arg1, 2u);
  EXPECT_EQ(batch->trace_id, client_batch->trace_id);

  // Each buffered sub-request was stamped with its own context at build
  // time; RunBatch dispatches every one under that context, so the two
  // launch spans carry two distinct trace ids — both different from the
  // envelope's.
  std::vector<const SpanRecord*> launches;
  for (const SpanRecord& rec : spans)
    if (std::strcmp(rec.name, "LaunchKernel") == 0) launches.push_back(&rec);
  ASSERT_EQ(launches.size(), 2u);
  EXPECT_NE(launches[0]->trace_id, launches[1]->trace_id);
  EXPECT_NE(launches[0]->trace_id, client_batch->trace_id);
  EXPECT_NE(launches[1]->trace_id, client_batch->trace_id);
  EXPECT_NE(launches[0]->trace_id, 0u);
  EXPECT_NE(launches[1]->trace_id, 0u);

  // The manager really served it as one compacted batch.
  EXPECT_EQ(manager.stats().batches_decoded.load(), 1u);
  EXPECT_EQ(manager.stats().batched_ops.load(), 2u);
}

}  // namespace
}  // namespace grd
