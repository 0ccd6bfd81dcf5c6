// bench_guardian: the repository's end-to-end benchmark.
//
// Stands up the paper's deployment -- one forked grdManager worker serving
// tenants over shared-memory rings (ProcessServer: 1 worker, 1 device,
// default ManagerOptions) -- and drives it from this process with at most
// three tenant threads, each with its own channel and ChannelTransport.
// Every input (arrival schedules, payloads, PTX modules) is generated from
// --seed, and every result the device returns is checked on the host.
//
//   bench_guardian --workload infer|train|mixed|churn [--seed N]
//                  [--seconds S] [--trace 0|1] [--out DIR]
//
// --trace 0 measures the end-to-end metrics and writes
// DIR/BENCH_guardian.json. --trace 1 runs the window once untraced and once
// with ManagerOptions::tracing_enabled (S/2 each), derives the per-layer
// metrics from the spans and writes DIR/BENCH_guardian_layers.json and
// DIR/trace.json. Either way every metric is printed as
// `workload metric value unit`, and the last stdout line is a JSON verdict
// {"correct", "attempted", "failed", "metrics"}. A wrong result exits 1.
// README.md documents the workloads and metrics.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/process_server.hpp"
#include "guardian/transport.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptx/validator.hpp"
#include "ptxexec/program.hpp"
#include "ptxpatcher/patcher.hpp"
#include "report.hpp"
#include "simlibs/cublas.hpp"

namespace guardbench {
namespace {

namespace guardian = grd::guardian;
namespace obs = grd::obs;
namespace ptx = grd::ptx;
namespace simcuda = grd::simcuda;
using grd::Result;
using grd::Rng;
using grd::Status;
using grd::ptxexec::KernelArg;
using simcuda::DevicePtr;

constexpr std::uint32_t kVector = 1024;  // saxpy elements: 4 KiB of f32
constexpr std::uint64_t kVectorBytes = kVector * sizeof(float);
constexpr std::uint32_t kGemm = 32;      // sgemm m = n = k: 4 KiB matrices
constexpr std::uint32_t kDot = 1024;     // ddot elements (f64)
constexpr std::uint64_t kDotBytes = kDot * sizeof(double);
constexpr std::uint64_t kPartitionBytes = 16ull << 20;
constexpr auto kCallDeadline = std::chrono::seconds(10);
// The longest run the workloads are designed for. churn makes about 25
// sessions/s, one in four with a never-seen module, and the modules of one
// deployment (a traced run's half: 30 s) must stay below the sandbox
// cache's capacity of 256 (CheckNoEvictions).
constexpr double kMaxSeconds = 60;
constexpr int kSetupRepeats = 21;
// The end-to-end window runs in this many segments (see RunEndToEnd).
constexpr int kSegments = 4;
constexpr int kTimingRepeats = 5;
constexpr int kPayloads = 32;
// Grouped percentiles (see GroupedPercentile): 100 samples leave ten above
// a group's p90.
constexpr std::size_t kGroupSamples = 100;
constexpr std::size_t kMaxGroups = 20;
// An open-loop request that starts this much after its due time is late;
// one not started this long after the window closed is failed.
constexpr std::uint64_t kLateNs = 1'000'000;
constexpr std::uint64_t kGraceNs = 1'000'000'000;
// infer: share of the window spent in the closed-loop capacity phase.
constexpr double kCapacityShare = 0.3;
// Trace arena records per traced second, about twice what the busiest
// phase (infer's closed loop) records.
constexpr std::uint64_t kSpansPerSecond = 30'000;

std::uint64_t Now() { return obs::MonotonicNowNs(); }

void SleepUntil(std::uint64_t ns) {
  timespec deadline{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                         nullptr) == EINTR) {
  }
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull)).Next();
}

// ---- CPU placement --------------------------------------------------------

// Every thread of a deployment runs on one CPU: the forked manager worker
// (pump and executors), ProcessServer's supervisor, the tenant threads and
// an IdleSpinner. On the shared 4-vCPU VM the benchmark was built on, a
// wake-up that crosses virtual CPUs is slow, and slower still while the
// host is busy; a switch on one CPU is not. Measured interleaved on a busy
// host, with the worker alone on one CPU and the tenants on the other
// three, infer's capacity ranged 1160-3190 req/s between segments and its
// p90 2.0-12.9 ms; with everything on one CPU 2020-2470 req/s and
// 2.1-4.9 ms, and churn ran 15% faster. A run so measures the work the
// stack does per request more than the VM's cross-CPU wake-ups. The CPU is
// the one that is fastest when the deployment stands up, because on a
// shared host one virtual CPU can run a third slower than the others for
// seconds to minutes.
//
// Times a fixed loop on each CPU the process was started on, five rounds
// interleaved, and pins the calling thread to the one with the lowest
// median time. Threads and processes started from it afterwards inherit it.
void PinToFastestCpu() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  std::vector<std::vector<double>> times(cpus.size());
  for (int round = 0; round < 5; ++round)
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i], &one);
      sched_setaffinity(0, sizeof(one), &one);
      const std::uint64_t begin = Now();
      volatile std::uint64_t x = 1;
      for (int k = 0; k < 1'000'000; ++k) x = x * 6364136223846793005ull + 1;
      times[i].push_back(static_cast<double>(Now() - begin));
    }
  std::size_t fastest = 0;
  for (std::size_t i = 1; i < cpus.size(); ++i)
    if (Median(times[i]) < Median(times[fastest])) fastest = i;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[fastest], &one);
  sched_setaffinity(0, sizeof(one), &one);
  std::fprintf(stderr, "bench_guardian: deployment on CPU %d\n",
               cpus[fastest]);
}

// Keeps the deployment's CPU from halting while every thread on it waits.
// The guest kernel does not poll when idle, so an idle virtual CPU halts, and
// waking it (a tenant's next due time, the pump's 500 us doorbell timeout)
// takes a trip through the host's scheduler. In open loop that wake-up, not
// the stack, set a third of the latency: interleaved on one CPU, infer's
// p50 read 1320-1409 us without the spinner and 933-939 us with it over
// three seeds. The spinner runs under SCHED_IDLE, so any other thread that
// becomes runnable on the CPU preempts it at once. It starts on the calling
// thread's CPUs; a process forked afterwards does not inherit it.
class IdleSpinner {
 public:
  IdleSpinner()
      : thread_([this] {
          sched_param param{};
          sched_setscheduler(0, SCHED_IDLE, &param);
          while (!stop_.load(std::memory_order_relaxed)) {
          }
        }) {}
  ~IdleSpinner() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- workloads ------------------------------------------------------------

enum class Role { kInfer, kTrain, kChurn };

struct WorkloadSpec {
  const char* name;
  std::vector<Role> tenants;
  double infer_rate_hz;  // per inference tenant, Poisson arrivals
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"infer", {Role::kInfer, Role::kInfer, Role::kInfer}, 150},
      {"train", {Role::kTrain, Role::kTrain, Role::kTrain}, 0},
      {"mixed", {Role::kInfer, Role::kInfer, Role::kTrain}, 50},
      {"churn", {Role::kChurn}, 0},
  };
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return &spec;
  return nullptr;
}

bool Has(const WorkloadSpec& spec, Role role) {
  return std::find(spec.tenants.begin(), spec.tenants.end(), role) !=
         spec.tenants.end();
}

// ---- inputs ---------------------------------------------------------------

struct Inputs {
  std::uint64_t seed = 0;
  // Shared "framework library" every tenant loads: the cuRAND row of
  // Table 3 (204 kernels, ~600 KB of PTX).
  std::string library_ptx;
  std::string app_ptx;  // the tenants' own saxpy kernel
};

std::string SaxpyModule() {
  ptx::Module module;
  module.kernels.push_back(ptx::MakeSaxpyKernel("saxpy"));
  return ptx::Print(module);
}

std::string LibraryModule(std::uint64_t seed) {
  ptx::Module module;
  for (const ptx::LibraryCorpusSpec& spec : ptx::Table3Corpora())
    if (spec.name.rfind("cuRAND", 0) == 0)
      ptx::GenerateCorpus(spec, seed, [&](const ptx::Kernel& kernel) {
        module.kernels.push_back(kernel);
      });
  return ptx::Print(module);
}

// churn's cache miss: saxpy plus seven random kernels, so the module text
// (and its content hash) is new every time.
std::string UniqueModule(std::uint64_t seed, std::uint64_t index) {
  Rng rng(Mix(seed, index + 1000));
  ptx::Module module;
  module.kernels.push_back(ptx::MakeSaxpyKernel("saxpy"));
  for (int j = 0; j < 7; ++j) {
    std::string name = "u";
    name += std::to_string(index) + "_" + std::to_string(j);
    module.kernels.push_back(ptx::MakeRandomKernel(rng, name, 8, 4));
  }
  return ptx::Print(module);
}

std::vector<float> RandomFloats(Rng& rng, std::size_t n, float lo, float hi) {
  std::vector<float> out(n);
  for (float& v : out)
    v = lo + (hi - lo) * static_cast<float>(rng.NextDouble());
  return out;
}

// The simulated device's fma.rn: product and sum evaluated in double, then
// rounded once to the register type. Host references use it so results can
// be compared bit for bit.
float DeviceFma(float a, float b, float c) {
  return static_cast<float>(static_cast<double>(a) * b + c);
}
double DeviceFma(double a, double b, double c) { return a * b + c; }

// Host references with the device kernels' exact operation order.
void GemmRef(const std::vector<float>& a, const std::vector<float>& b,
             std::vector<float>& c) {
  for (std::uint32_t i = 0; i < kGemm; ++i)
    for (std::uint32_t j = 0; j < kGemm; ++j) {
      float acc = 0;
      for (std::uint32_t k = 0; k < kGemm; ++k)
        acc = DeviceFma(a[i * kGemm + k], b[k * kGemm + j], acc);
      c[i * kGemm + j] = acc;
    }
}

// ---- tenants --------------------------------------------------------------

std::atomic<int> g_reported_failures{0};

// Logs the first few failing calls to stderr; the count is the verdict.
bool Ok(const Status& status, const char* what) {
  if (status.ok()) return true;
  if (g_reported_failures++ < 5)
    std::fprintf(stderr, "bench_guardian: %s failed: %s\n", what,
                 status.ToString().c_str());
  return false;
}

// Tags every call made inside it with one trace id and records the unit as
// a "bench.<unit>" span, so the trace analysis can attribute client, ring
// and manager spans to the unit of work that caused them. With tracing off
// the emission is a no-op.
class UnitSpan {
 public:
  explicit UnitSpan(const char* name)
      : name_(name),
        ctx_{obs::NewTraceId(), obs::NewSpanId()},
        scope_(ctx_),
        begin_(Now()) {}
  ~UnitSpan() {
    obs::TraceRecorder::Instance().EmitComplete(name_, ctx_, 0, begin_, Now());
  }
  UnitSpan(const UnitSpan&) = delete;
  UnitSpan& operator=(const UnitSpan&) = delete;

 private:
  const char* name_;
  obs::TraceContext ctx_;
  obs::ContextScope scope_;
  std::uint64_t begin_;
};

// A module load inside the current unit, recorded on the unit's trace.
Result<simcuda::ModuleId> Load(guardian::GrdLib& lib, const std::string& ptx,
                               const char* step) {
  const obs::TraceContext unit = obs::CurrentContext();
  const std::uint64_t begin = Now();
  auto module = lib.cuModuleLoadData(ptx);
  obs::TraceRecorder::Instance().EmitComplete(
      step, {unit.trace_id, obs::NewSpanId()}, unit.span_id, begin, Now());
  return module;
}

struct Tenant {
  Role role = Role::kInfer;
  Rng rng;
  std::unique_ptr<guardian::ChannelTransport> transport;
  std::optional<guardian::GrdLib> lib;
  std::optional<grd::simlibs::Cublas> blas;  // after lib: destroyed first
  simcuda::FunctionId saxpy = 0;
  DevicePtr x = 0, y = 0;
  std::vector<float> y_host;  // host mirror of y
  std::vector<std::vector<float>> payloads;
  std::vector<float> alphas;
  std::vector<float> scratch, expected;
  // train
  simcuda::StreamId stream = 0;
  DevicePtr a = 0, b = 0, c = 0, d = 0, dx = 0, dy = 0;
  std::vector<float> b_host, c_host;  // c_host: C of the previous iteration
  double dot_expected = 0;
  // churn
  std::uint64_t sessions = 0;
};

Status SetUpTenant(Tenant& t, const Inputs& in, grd::ipc::Channel& channel) {
  UnitSpan unit("bench.setup");
  t.transport =
      std::make_unique<guardian::ChannelTransport>(&channel, kCallDeadline);
  GRD_ASSIGN_OR_RETURN(guardian::GrdLib connected,
                       guardian::GrdLib::Connect(t.transport.get(),
                                                 kPartitionBytes));
  t.lib.emplace(std::move(connected));
  guardian::GrdLib& lib = *t.lib;
  using guardian::protocol::PriorityClass;
  if (t.role == Role::kInfer)
    GRD_RETURN_IF_ERROR(lib.SetPriority(PriorityClass::kRealtime));
  if (t.role == Role::kTrain)
    GRD_RETURN_IF_ERROR(lib.SetPriority(PriorityClass::kBatch));
  GRD_RETURN_IF_ERROR(Load(lib, in.library_ptx, "bench.load.library").status());
  GRD_ASSIGN_OR_RETURN(simcuda::ModuleId app, lib.cuModuleLoadData(in.app_ptx));
  GRD_ASSIGN_OR_RETURN(t.saxpy, lib.cuModuleGetFunction(app, "saxpy"));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.x, kVectorBytes));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.y, kVectorBytes));
  t.y_host = RandomFloats(t.rng, kVector, 0, 1);
  GRD_RETURN_IF_ERROR(lib.cudaMemcpyH2D(t.y, t.y_host.data(), kVectorBytes));
  for (int i = 0; i < kPayloads; ++i) {
    t.payloads.push_back(RandomFloats(t.rng, kVector, -1, 1));
    t.alphas.push_back(0.5f + static_cast<float>(t.rng.NextDouble()));
  }
  t.scratch.resize(2 * kVector);
  t.expected.resize(kVector);
  if (t.role != Role::kTrain) return grd::OkStatus();

  GRD_ASSIGN_OR_RETURN(grd::simlibs::Cublas blas,
                       grd::simlibs::Cublas::Create(lib));
  t.blas.emplace(std::move(blas));
  GRD_RETURN_IF_ERROR(lib.cudaStreamCreate(&t.stream));
  for (DevicePtr* p : {&t.a, &t.b, &t.c, &t.d})
    GRD_RETURN_IF_ERROR(lib.cudaMalloc(p, kVectorBytes));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.dx, kDotBytes));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.dy, kDotBytes));
  t.b_host = RandomFloats(t.rng, kVector, -1, 1);
  t.c_host.assign(kVector, 0.0f);
  GRD_RETURN_IF_ERROR(lib.cudaMemcpyH2D(t.b, t.b_host.data(), kVectorBytes));
  GRD_RETURN_IF_ERROR(lib.cudaMemcpyH2D(t.c, t.c_host.data(), kVectorBytes));
  std::vector<double> dx(kDot), dy(kDot);
  t.dot_expected = 0;
  for (std::uint32_t i = 0; i < kDot; ++i) {
    dx[i] = 2 * t.rng.NextDouble() - 1;
    dy[i] = 2 * t.rng.NextDouble() - 1;
    t.dot_expected = DeviceFma(dx[i], dy[i], t.dot_expected);
  }
  GRD_RETURN_IF_ERROR(lib.cudaMemcpyH2D(t.dx, dx.data(), kDotBytes));
  GRD_RETURN_IF_ERROR(lib.cudaMemcpyH2D(t.dy, dy.data(), kDotBytes));
  lib.EnableBatching(8);
  return grd::OkStatus();
}

enum class Outcome { kOk, kFailed, kWrong };

simcuda::LaunchConfig SaxpyConfig(simcuda::StreamId stream) {
  simcuda::LaunchConfig config;
  config.block = {256, 1, 1};
  config.grid = {kVector / 256, 1, 1};
  config.stream = stream;
  return config;
}

// H2D 4 KiB -> default-stream saxpy y = alpha*x + y -> D2H 4 KiB of y,
// checked against the host mirror of y.
Outcome InferRequest(Tenant& t, const char* unit_name) {
  UnitSpan unit(unit_name);
  guardian::GrdLib& lib = *t.lib;
  const std::size_t k = t.rng.NextBelow(t.payloads.size());
  const std::vector<float>& x = t.payloads[k];
  const float alpha = t.alphas[k];
  if (!Ok(lib.cudaMemcpyH2D(t.x, x.data(), kVectorBytes), "infer H2D") ||
      !Ok(lib.cudaLaunchKernel(t.saxpy, SaxpyConfig(simcuda::kDefaultStream),
                               {KernelArg::U64(t.x), KernelArg::U64(t.y),
                                KernelArg::F32(alpha),
                                KernelArg::U32(kVector)}),
          "infer saxpy") ||
      !Ok(lib.cudaMemcpy(t.scratch.data(), t.y, kVectorBytes,
                         simcuda::MemcpyKind::kDeviceToHost),
          "infer D2H"))
    return Outcome::kFailed;
  for (std::uint32_t i = 0; i < kVector; ++i)
    t.y_host[i] = DeviceFma(alpha, x[i], t.y_host[i]);
  return std::memcmp(t.scratch.data(), t.y_host.data(), kVectorBytes) == 0
             ? Outcome::kOk
             : Outcome::kWrong;
}

// One training step. The async H2D of this step's A and the update
// y += alpha*C(previous step) go out on the tenant's stream as one batched
// message; then C = A*B and D = C*B (cuBLAS sgemm, default stream), a ddot
// with its implicit calls, a D2H of D and a stream synchronize. D and the
// dot product are checked every step, y at teardown.
Outcome TrainIteration(Tenant& t) {
  UnitSpan unit("bench.iteration");
  guardian::GrdLib& lib = *t.lib;
  const std::size_t k = t.rng.NextBelow(t.payloads.size());
  const std::vector<float>& a = t.payloads[k];
  const float alpha = t.alphas[k];
  if (!Ok(lib.cudaMemcpyH2DAsync(t.a, a.data(), kVectorBytes, t.stream),
          "train H2D") ||
      !Ok(lib.cudaLaunchKernel(t.saxpy, SaxpyConfig(t.stream),
                               {KernelArg::U64(t.c), KernelArg::U64(t.y),
                                KernelArg::F32(alpha),
                                KernelArg::U32(kVector)}),
          "train update") ||
      !Ok(t.blas->Sgemm(t.a, t.b, t.c, kGemm, kGemm, kGemm), "train sgemm") ||
      !Ok(t.blas->Sgemm(t.c, t.b, t.d, kGemm, kGemm, kGemm), "train sgemm"))
    return Outcome::kFailed;
  auto dot = t.blas->Ddot(t.dx, t.dy, kDot);
  if (!Ok(dot.status(), "train ddot") ||
      !Ok(lib.cudaMemcpy(t.scratch.data(), t.d, kVectorBytes,
                         simcuda::MemcpyKind::kDeviceToHost),
          "train D2H") ||
      !Ok(lib.cudaStreamSynchronize(t.stream), "train sync"))
    return Outcome::kFailed;
  for (std::uint32_t i = 0; i < kVector; ++i)
    t.y_host[i] = DeviceFma(alpha, t.c_host[i], t.y_host[i]);
  GemmRef(a, t.b_host, t.c_host);
  GemmRef(t.c_host, t.b_host, t.expected);
  const bool right =
      std::memcmp(t.scratch.data(), t.expected.data(), kVectorBytes) == 0 &&
      std::memcmp(&*dot, &t.dot_expected, sizeof(double)) == 0;
  return right ? Outcome::kOk : Outcome::kWrong;
}

// Connect -> load the library (cache hit) and the app module -> in some
// sessions also a never-seen module (cache miss) -> malloc, H2D, one saxpy
// launch, checked D2H, free -> Disconnect.
Outcome ChurnSession(Tenant& t, const Inputs& in, const std::string* unique) {
  UnitSpan unit("bench.session");
  auto connected =
      guardian::GrdLib::Connect(t.transport.get(), kPartitionBytes);
  if (!Ok(connected.status(), "churn connect")) return Outcome::kFailed;
  guardian::GrdLib& lib = *connected;
  auto library = Load(lib, in.library_ptx, "bench.load.library");
  auto module = lib.cuModuleLoadData(in.app_ptx);
  if (!Ok(library.status(), "churn library load") ||
      !Ok(module.status(), "churn app load"))
    return Outcome::kFailed;
  if (unique != nullptr) {
    module = Load(lib, *unique, "bench.load.unique");
    if (!Ok(module.status(), "churn unique load")) return Outcome::kFailed;
  }
  auto fn = lib.cuModuleGetFunction(*module, "saxpy");
  if (!Ok(fn.status(), "churn get function")) return Outcome::kFailed;

  const std::size_t k = t.rng.NextBelow(t.payloads.size());
  const std::vector<float>& x = t.payloads[k];
  const std::vector<float>& y0 = t.payloads[(k + 1) % t.payloads.size()];
  const float alpha = t.alphas[k];
  std::copy(x.begin(), x.end(), t.scratch.begin());
  std::copy(y0.begin(), y0.end(), t.scratch.begin() + kVector);
  DevicePtr buf = 0;
  if (!Ok(lib.cudaMalloc(&buf, 2 * kVectorBytes), "churn malloc") ||
      !Ok(lib.cudaMemcpyH2D(buf, t.scratch.data(), 2 * kVectorBytes),
          "churn H2D") ||
      !Ok(lib.cudaLaunchKernel(*fn, SaxpyConfig(simcuda::kDefaultStream),
                               {KernelArg::U64(buf),
                                KernelArg::U64(buf + kVectorBytes),
                                KernelArg::F32(alpha),
                                KernelArg::U32(kVector)}),
          "churn saxpy") ||
      !Ok(lib.cudaMemcpy(t.scratch.data(), buf + kVectorBytes, kVectorBytes,
                         simcuda::MemcpyKind::kDeviceToHost),
          "churn D2H") ||
      !Ok(lib.cudaFree(buf), "churn free") ||
      !Ok(lib.Disconnect(), "churn disconnect"))
    return Outcome::kFailed;
  for (std::uint32_t i = 0; i < kVector; ++i)
    t.expected[i] = DeviceFma(alpha, x[i], y0[i]);
  return std::memcmp(t.scratch.data(), t.expected.data(), kVectorBytes) == 0
             ? Outcome::kOk
             : Outcome::kWrong;
}

// ---- load generation ------------------------------------------------------

// One completed unit; its latency runs from `from` (the due time in an open
// loop, else the start) to `end`.
struct Sample {
  std::uint64_t from = 0;
  std::uint64_t end = 0;
};

struct TenantResult {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // includes wrong results
  std::uint64_t wrong = 0;
  std::uint64_t late = 0;
};

void Record(TenantResult& r, Outcome outcome, std::uint64_t from) {
  const std::uint64_t end = Now();
  if (outcome != Outcome::kOk) {
    ++r.failed;
    if (outcome == Outcome::kWrong) ++r.wrong;
    return;
  }
  r.samples.push_back({from, end});
}

// Poisson arrivals over [begin, end), each request timed from its due time.
// A request that has not started kGraceNs after the window closed is failed,
// so a growing backlog cannot stretch the run.
void RunOpenLoop(Tenant& t, double rate_hz, std::uint64_t begin,
                 std::uint64_t end, TenantResult& r) {
  auto gap = [&] {
    const double u = std::max(t.rng.NextDouble(), 1e-12);
    return static_cast<std::uint64_t>(-std::log(u) / rate_hz * 1e9);
  };
  bool broken = false;
  for (std::uint64_t due = begin + gap(); due < end; due += gap()) {
    ++r.attempted;
    SleepUntil(due);
    const std::uint64_t start = Now();
    if (broken || start >= end + kGraceNs) {
      ++r.failed;
      continue;
    }
    if (start - due > kLateNs) ++r.late;
    const Outcome outcome = InferRequest(t, "bench.request");
    Record(r, outcome, due);
    broken = outcome != Outcome::kOk;
  }
}

void RunClosedLoop(std::uint64_t begin, std::uint64_t end, TenantResult& r,
                   const std::function<Outcome()>& unit) {
  SleepUntil(begin);
  while (Now() < end) {
    ++r.attempted;
    const std::uint64_t start = Now();
    const Outcome outcome = unit();
    Record(r, outcome, start);
    if (outcome != Outcome::kOk) break;
  }
}

void RunChurn(Tenant& t, const Inputs& in, std::uint64_t begin,
              std::uint64_t end, TenantResult& r) {
  SleepUntil(begin);
  while (Now() < end) {
    // One session in four loads a module no tenant loaded before. Making it
    // happens before the session's clock starts.
    std::string unique;
    if (t.rng.NextBelow(4) == 0) unique = UniqueModule(in.seed, t.sessions);
    ++t.sessions;
    ++r.attempted;
    const std::uint64_t start = Now();
    const Outcome outcome =
        ChurnSession(t, in, unique.empty() ? nullptr : &unique);
    Record(r, outcome, start);
    if (outcome != Outcome::kOk) break;
  }
}

struct Deployment {
  std::optional<IdleSpinner> spinner;  // stops after everything below
  std::unique_ptr<guardian::ProcessServer> server;
  // After the server: the clients go first.
  std::vector<std::unique_ptr<Tenant>> tenants;
};

// Create + Start + WaitForChannelOwners, then each tenant in turn connects,
// loads its modules and allocates its buffers. `span_capacity` > 0 turns
// tracing on. The worker and the spinner run on the calling thread's CPUs.
Status StandUp(const WorkloadSpec& spec, const Inputs& in,
               std::uint32_t span_capacity, Deployment& dep) {
  dep.spinner.emplace();
  guardian::ProcessServerOptions options;
  options.workers = 1;
  options.channels = static_cast<std::uint32_t>(spec.tenants.size());
  if (span_capacity > 0) {
    options.manager.tracing_enabled = true;
    options.layout.trace_span_capacity = span_capacity;
  }
  GRD_ASSIGN_OR_RETURN(dep.server,
                       guardian::ProcessServer::Create(std::move(options)));
  GRD_RETURN_IF_ERROR(dep.server->Start());
  if (!dep.server->WaitForChannelOwners())
    return grd::Unavailable("manager worker did not claim its channels");
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    auto tenant = std::make_unique<Tenant>();
    tenant->role = spec.tenants[i];
    tenant->rng = Rng(Mix(in.seed, i));
    GRD_RETURN_IF_ERROR(SetUpTenant(
        *tenant, in, dep.server->channel(static_cast<std::uint32_t>(i))));
    dep.tenants.push_back(std::move(tenant));
  }
  return grd::OkStatus();
}

// Checks the state each tenant left on the device, then releases it and
// disconnects. The server keeps running (the caller may still read spans).
Status TearDownTenants(Deployment& dep, std::uint64_t& wrong) {
  for (auto& tenant : dep.tenants) {
    Tenant& t = *tenant;
    guardian::GrdLib& lib = *t.lib;
    if (t.role == Role::kTrain) {
      GRD_RETURN_IF_ERROR(lib.cudaStreamSynchronize(t.stream));
      GRD_RETURN_IF_ERROR(lib.cudaMemcpy(t.scratch.data(), t.y, kVectorBytes,
                                         simcuda::MemcpyKind::kDeviceToHost));
      if (std::memcmp(t.scratch.data(), t.y_host.data(), kVectorBytes) != 0)
        ++wrong;
      t.blas.reset();
      for (DevicePtr p : {t.a, t.b, t.c, t.d, t.dx, t.dy})
        GRD_RETURN_IF_ERROR(lib.cudaFree(p));
      GRD_RETURN_IF_ERROR(lib.cudaStreamDestroy(t.stream));
    }
    GRD_RETURN_IF_ERROR(lib.cudaFree(t.x));
    GRD_RETURN_IF_ERROR(lib.cudaFree(t.y));
    GRD_RETURN_IF_ERROR(lib.Disconnect());
    t.lib.reset();
  }
  return grd::OkStatus();
}

// Runs one phase with one thread per tenant. `capacity` switches inference
// tenants to a closed loop.
std::vector<TenantResult> RunPhase(Deployment& dep, const WorkloadSpec& spec,
                                   const Inputs& in, bool capacity,
                                   std::uint64_t begin, std::uint64_t end) {
  std::vector<TenantResult> results(dep.tenants.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < dep.tenants.size(); ++i) {
    threads.emplace_back([&, i] {
      Tenant& t = *dep.tenants[i];
      TenantResult& r = results[i];
      switch (t.role) {
        case Role::kInfer:
          if (capacity)
            RunClosedLoop(begin, end, r, [&] {
              return InferRequest(t, "bench.capacity");
            });
          else
            RunOpenLoop(t, spec.infer_rate_hz, begin, end, r);
          break;
        case Role::kTrain:
          RunClosedLoop(begin, end, r, [&] { return TrainIteration(t); });
          break;
        case Role::kChurn:
          RunChurn(t, in, begin, end, r);
          break;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

// ---- measurement ----------------------------------------------------------

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  void Add(const std::vector<TenantResult>& results) {
    for (const TenantResult& r : results) {
      attempted += r.attempted;
      failed += r.failed;
      wrong += r.wrong;
    }
  }
  void Add(const Totals& other) {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
  }
};

std::vector<Sample> SamplesOf(const Deployment& dep,
                              const std::vector<TenantResult>& rs, Role role) {
  std::vector<Sample> out;
  for (std::size_t i = 0; i < rs.size(); ++i)
    if (dep.tenants[i]->role == role)
      out.insert(out.end(), rs[i].samples.begin(), rs[i].samples.end());
  return out;
}

// A latency percentile robust to bursts of outside load, which on a shared
// machine slow a few seconds of a run by up to 40%: the samples, in order
// of their due time, are cut into as many equal groups as leave
// kGroupSamples in each (at most kMaxGroups), and the result is the median
// of the groups' percentiles. Supported when each group's percentile is.
Quantile GroupedPercentile(std::vector<Sample> samples, double q) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.from < b.from; });
  const std::size_t n = samples.size();
  const std::size_t groups =
      std::clamp<std::size_t>(n / kGroupSamples, 1, kMaxGroups);
  Quantile out;
  out.samples = n;
  out.supported = n > 0;
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups && n > 0; ++g) {
    std::vector<double> latency;
    for (std::size_t i = g * n / groups; i < (g + 1) * n / groups; ++i)
      latency.push_back(
          static_cast<double>(samples[i].end - samples[i].from) / 1e3);
    const Quantile p = Percentile(latency, q);
    per_group.push_back(p.value);
    out.supported = out.supported && p.supported;
  }
  out.value = Median(per_group);
  return out;
}

// Units completed in a closed-loop phase and the time from the phase's
// start to its last completion. Segments add up; the metric is the sum of
// units over the sum of time.
//
// Not a median of per-interval rates: on the shared VM the benchmark was
// built on, the interpreter's speed on one CPU switches between two levels
// about a third apart for seconds at a time, so a median lands on either
// level depending on which held a little longer. Over ten seeds per
// workload the median of per-interval rates spread 0.14-0.28 where units
// over time spread 0.12-0.18.
struct Rate {
  std::uint64_t units = 0;
  std::uint64_t ns = 0;
  void Add(const Rate& other) {
    units += other.units;
    ns += other.ns;
  }
  double PerSecond() const {
    return ns > 0 ? static_cast<double>(units) * 1e9 / static_cast<double>(ns)
                  : 0;
  }
};

Rate RateOf(const std::vector<Sample>& samples, std::uint64_t begin) {
  Rate rate;
  rate.units = samples.size();
  for (const Sample& s : samples) rate.ns = std::max(rate.ns, s.end - begin);
  return rate;
}

// One measured window of `seconds` on a stood-up deployment.
struct Window {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;  // of the latency phase
  std::vector<TenantResult> results;  // latency phase
  Rate rate;  // of the throughput unit
  Totals totals;
  StatsSnapshot at_end;  // ManagerStats right after the latency phase
  std::uint64_t evictions = 0;  // sandbox-cache evictions by then
};

// churn measures hits against misses on a cache that still holds every
// module loaded before, so a window in which the cache evicted fails.
Status CheckNoEvictions(const Window& w) {
  if (w.evictions == 0) return grd::OkStatus();
  return grd::FailedPrecondition(std::to_string(w.evictions) +
                                 " sandbox-cache evictions; run shorter");
}

Window Measure(Deployment& dep, const WorkloadSpec& spec, const Inputs& in,
               double seconds) {
  // An inference-only workload also measures its closed-loop capacity.
  const bool capacity_phase =
      Has(spec, Role::kInfer) && !Has(spec, Role::kTrain);
  const double latency_s =
      capacity_phase ? seconds * (1 - kCapacityShare) : seconds;
  Window w;
  // A short lead so every tenant thread is waiting when the window opens.
  w.begin_ns = Now() + 20'000'000;
  w.end_ns = w.begin_ns + static_cast<std::uint64_t>(latency_s * 1e9);
  w.results = RunPhase(dep, spec, in, false, w.begin_ns, w.end_ns);
  w.at_end = Snapshot(dep.server->state().stats());
  w.evictions = dep.server->state().stats().sandbox_cache_evictions.load();
  w.totals.Add(w.results);
  if (capacity_phase) {
    const std::uint64_t begin = Now() + 20'000'000;
    const auto capacity = RunPhase(
        dep, spec, in, true, begin,
        begin + static_cast<std::uint64_t>(seconds * kCapacityShare * 1e9));
    w.totals.Add(capacity);
    w.rate = RateOf(SamplesOf(dep, capacity, Role::kInfer), begin);
  } else {
    // mixed reports its trainer: the work a co-located job gets done.
    w.rate = RateOf(
        SamplesOf(dep, w.results,
                  Has(spec, Role::kTrain) ? Role::kTrain : Role::kChurn),
        w.begin_ns);
  }
  return w;
}

// Samples of the unit the workload's latency metrics describe: the
// inference request where there is one, else the workload's only unit.
std::vector<Sample> LatencySamples(const WorkloadSpec& spec,
                                   const Deployment& dep, const Window& w) {
  return SamplesOf(dep, w.results,
                   Has(spec, Role::kInfer) ? Role::kInfer : spec.tenants[0]);
}

ExternalTimings TimeModule(const std::string& source) {
  // Patch the way the manager does with its default options.
  const guardian::ManagerOptions defaults;
  grd::ptxpatcher::PatchOptions options;
  options.mode = defaults.mode;
  options.skip_statically_safe = defaults.skip_statically_safe;
  options.elision_enabled = defaults.guard_elision_enabled;
  std::vector<double> parse, patch, compile;
  for (int r = 0; r < kTimingRepeats; ++r) {
    const std::uint64_t t0 = Now();
    auto module = ptx::Parse(source);
    if (!module.ok() || !ptx::ValidateOrError(*module).ok()) break;
    const std::uint64_t t1 = Now();
    auto patched = grd::ptxpatcher::PatchModule(*module, options);
    if (!patched.ok()) break;
    const std::uint64_t t2 = Now();
    for (const ptx::Kernel& kernel : patched->kernels)
      (void)grd::ptxexec::CompileKernel(kernel);
    const std::uint64_t t3 = Now();
    parse.push_back(static_cast<double>(t1 - t0) / 1e6);
    patch.push_back(static_cast<double>(t2 - t1) / 1e6);
    compile.push_back(static_cast<double>(t3 - t2) / 1e6);
  }
  return {Median(parse), Median(patch), Median(compile)};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = std::strtoull(value, nullptr, 0);
    else if (flag == "--seconds")
      args.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace")
      args.trace = std::strcmp(value, "0") != 0;
    else if (flag == "--out")
      args.out = value;
    else
      return false;
  }
  return argc % 2 == 1 && FindWorkload(args.workload) != nullptr &&
         args.seconds >= 1 && args.seconds <= kMaxSeconds;
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "bench_guardian: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

int Finish(const Args& args, const std::string& file, const Totals& totals,
           const std::vector<Metric>& metrics) {
  PrintMetrics(args.workload, metrics);
  const bool correct = totals.wrong == 0;
  const std::string json =
      "{\"workload\": " + Quoted(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + Number(args.seconds) +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(totals.attempted) +
      ", \"failed\": " + std::to_string(totals.failed) +
      ", \"metrics\": " + MetricsObject(metrics, true) + "}\n";
  if (!WriteText(args.out + "/" + file, json))
    std::fprintf(stderr, "bench_guardian: cannot write %s/%s\n",
                 args.out.c_str(), file.c_str());
  std::printf("%s\n", ResultLine(correct, totals.attempted, totals.failed,
                                 metrics)
                          .c_str());
  std::fflush(stdout);
  if (!correct)
    std::fprintf(stderr, "bench_guardian: %llu wrong result(s)\n",
                 static_cast<unsigned long long>(totals.wrong));
  return correct ? 0 : 1;
}

int RunEndToEnd(const Args& args, const WorkloadSpec& spec,
                const Inputs& in) {
  Totals totals;
  std::vector<double> setup_s;
  PinToFastestCpu();
  for (int r = 0; r < kSetupRepeats; ++r) {
    Deployment dep;
    const std::uint64_t t0 = Now();
    const Status up = StandUp(spec, in, 0, dep);
    if (!up.ok()) return Fail("stand-up", up);
    setup_s.push_back(static_cast<double>(Now() - t0) / 1e9);
    const Status down = TearDownTenants(dep, totals.wrong);
    if (!down.ok()) return Fail("teardown", down);
  }

  // The window runs as kSegments segments, each on a fresh deployment on
  // the CPU that is fastest when it starts, so neither one slow stretch
  // of a CPU nor one stand-up's thread placement sets the whole run.
  std::vector<Sample> latency;
  Rate rate;
  for (int s = 0; s < kSegments; ++s) {
    Deployment dep;
    PinToFastestCpu();
    const Status up = StandUp(spec, in, 0, dep);
    if (!up.ok()) return Fail("stand-up", up);
    const Window w = Measure(dep, spec, in, args.seconds / kSegments);
    totals.Add(w.totals);
    const Status kept = CheckNoEvictions(w);
    if (!kept.ok()) return Fail("window", kept);
    const Status down = TearDownTenants(dep, totals.wrong);
    if (!down.ok()) return Fail("teardown", down);
    const std::vector<Sample> unit = LatencySamples(spec, dep, w);
    std::fprintf(stderr,
                 "bench_guardian: segment %d: p50 %.0f us, p90 %.0f us, "
                 "%.1f units/s\n",
                 s, GroupedPercentile(unit, 0.5).value,
                 GroupedPercentile(unit, 0.9).value, w.rate.PerSecond());
    latency.insert(latency.end(), unit.begin(), unit.end());
    rate.Add(w.rate);
  }

  const Quantile p50 = GroupedPercentile(latency, 0.5);
  const Quantile p90 = GroupedPercentile(latency, 0.9);
  if (!p90.supported) {
    std::fprintf(stderr,
                 "bench_guardian: %zu latency samples cannot support a p90; "
                 "run longer\n",
                 latency.size());
    return 1;
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"latency_p50_us", p50.value, "us", p50.samples},
      {"latency_p90_us", p90.value, "us", p90.samples},
      {"throughput_per_s", rate.PerSecond(), "1/s", rate.units},
  };
  return Finish(args, "BENCH_guardian.json", totals, metrics);
}

int RunTraced(const Args& args, const WorkloadSpec& spec, const Inputs& in) {
  const double half = args.seconds / 2;
  Totals totals;

  double untraced_throughput = 0;
  {
    Deployment dep;
    PinToFastestCpu();
    const Status up = StandUp(spec, in, 0, dep);
    if (!up.ok()) return Fail("stand-up", up);
    const Window w = Measure(dep, spec, in, half);
    untraced_throughput = w.rate.PerSecond();
    totals.Add(w.totals);
    const Status kept = CheckNoEvictions(w);
    if (!kept.ok()) return Fail("window", kept);
    const Status down = TearDownTenants(dep, totals.wrong);
    if (!down.ok()) return Fail("teardown", down);
  }

  LayerInputs layers;
  Deployment dep;
  const auto capacity = static_cast<std::uint32_t>(
      std::min<double>(kSpansPerSecond * (half + 2), 4'000'000));
  PinToFastestCpu();
  const Status up = StandUp(spec, in, capacity, dep);
  if (!up.ok()) return Fail("stand-up", up);
  layers.at_begin = Snapshot(dep.server->state().stats());
  const Window w = Measure(dep, spec, in, half);
  totals.Add(w.totals);
  const Status kept = CheckNoEvictions(w);
  if (!kept.ok()) return Fail("window", kept);
  const Status down = TearDownTenants(dep, totals.wrong);
  if (!down.ok()) return Fail("teardown", down);
  obs::TraceRecorder::Instance().Collect(&layers.spans);
  layers.dropped = obs::TraceRecorder::Instance().dropped();
  layers.at_exit = Snapshot(dep.server->state().stats());
  dep.server->Stop();

  std::sort(layers.spans.begin(), layers.spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.begin_ns < b.begin_ns;
            });
  if (!WriteText(args.out + "/trace.json",
                 obs::TraceExporter::ToChromeJson(layers.spans)))
    std::fprintf(stderr, "bench_guardian: cannot write %s/trace.json\n",
                 args.out.c_str());

  layers.window_begin_ns = w.begin_ns;
  layers.window_end_ns = w.end_ns;
  layers.at_end = w.at_end;
  std::uint64_t late = 0, open_loop = 0;
  for (std::size_t i = 0; i < w.results.size(); ++i) {
    layers.units_completed += w.results[i].samples.size();
    if (dep.tenants[i]->role == Role::kInfer) {
      late += w.results[i].late;
      open_loop += w.results[i].attempted;
    }
  }
  layers.late_frac =
      open_loop > 0 ? static_cast<double>(late) / static_cast<double>(open_loop)
                    : 0;
  const double traced_throughput = w.rate.PerSecond();
  layers.overhead_frac =
      untraced_throughput > 0 ? 1 - traced_throughput / untraced_throughput
                              : 0;
  if (Has(spec, Role::kInfer)) layers.unit_spans.push_back("bench.request");
  if (Has(spec, Role::kTrain)) layers.unit_spans.push_back("bench.iteration");
  if (Has(spec, Role::kChurn)) layers.unit_spans.push_back("bench.session");
  layers.latency_span = layers.unit_spans.front();
  layers.library = TimeModule(in.library_ptx);
  layers.unique = TimeModule(UniqueModule(in.seed, 0));

  std::printf("%s trace.spans %zu count\n", args.workload.c_str(),
              layers.spans.size());
  std::printf("%s trace.throughput_untraced %s 1/s\n", args.workload.c_str(),
              Number(untraced_throughput).c_str());
  std::printf("%s trace.throughput_traced %s 1/s\n", args.workload.c_str(),
              Number(traced_throughput).c_str());
  const int code =
      Finish(args, "BENCH_guardian_layers.json", totals, LayerMetrics(layers));
  if (layers.dropped > 0) {
    std::fprintf(stderr, "bench_guardian: trace arena dropped %llu spans\n",
                 static_cast<unsigned long long>(layers.dropped));
    return 1;
  }
  return code;
}

}  // namespace
}  // namespace guardbench

int main(int argc, char** argv) {
  using namespace guardbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_guardian --workload infer|train|mixed|churn "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  Inputs in;
  in.seed = args.seed;
  in.library_ptx = LibraryModule(args.seed);
  in.app_ptx = SaxpyModule();
  return args.trace ? RunTraced(args, spec, in) : RunEndToEnd(args, spec, in);
}
