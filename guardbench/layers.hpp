// Per-layer metrics of bench_guardian, computed from one traced window.
//
// The benchmark tags each unit of work (an inference request, a training
// iteration, a churn session, a tenant's setup) with its own trace id and
// records it as a "bench.<unit>" span; module loads inside a unit get a
// "bench.load.<kind>" step span on the same trace. grdLib's "client.<Op>"
// spans and the manager's handler spans (parent = the client span) carry
// that trace id, so every server-side span can be attributed to the unit
// and the load that caused it. Self time is a span's duration minus the
// part of it its child spans cover.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "guardian/execution.hpp"
#include "obs/trace.hpp"
#include "report.hpp"

namespace guardbench {

// ManagerStats counters the per-layer metrics difference over the window.
struct StatsSnapshot {
  std::uint64_t ring_messages_read = 0;
  std::uint64_t batches_decoded = 0;
  std::uint64_t batched_ops = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t launches = 0;
  std::uint64_t tier_instructions[3] = {};
  std::uint64_t ptx_cache_hits = 0;
  std::uint64_t ptx_modules_patched = 0;
  std::uint64_t peak_queue_depth = 0;
};

inline StatsSnapshot Snapshot(const grd::guardian::ManagerStats& s) {
  StatsSnapshot out;
  out.ring_messages_read = s.ring_messages_read.load();
  out.batches_decoded = s.batches_decoded.load();
  out.batched_ops = s.batched_ops.load();
  out.preemptions = s.preemptions.load();
  out.launches = s.launches.load();
  for (int i = 0; i < 3; ++i)
    out.tier_instructions[i] = s.tier_instructions[i].load();
  out.ptx_cache_hits = s.ptx_cache_hits.load();
  out.ptx_modules_patched = s.ptx_modules_patched.load();
  out.peak_queue_depth = s.peak_queue_depth.load();
  return out;
}

// Medians of five runs of the public parse / patch / compile calls on one
// module, timed from outside the manager.
struct ExternalTimings {
  double parse_validate_ms = 0;
  double patch_ms = 0;
  double compile_ms = 0;
};

struct LayerInputs {
  std::vector<grd::obs::SpanRecord> spans;
  // The measured window; units whose bench span starts in it are analysed.
  std::uint64_t window_begin_ns = 0;
  std::uint64_t window_end_ns = 0;
  std::vector<std::string> unit_spans;
  // The unit the end-to-end latency metrics measure (closure is taken on it).
  std::string latency_span;
  StatsSnapshot at_begin;  // window start
  StatsSnapshot at_end;    // window end
  StatsSnapshot at_exit;   // after teardown (whole stand-up)
  std::uint64_t units_completed = 0;
  double late_frac = 0;
  double overhead_frac = 0;
  std::uint64_t dropped = 0;
  ExternalTimings library;
  ExternalTimings unique;
};

namespace layers_detail {

using Span = grd::obs::SpanRecord;
using Interval = std::pair<std::uint64_t, std::uint64_t>;

inline bool StartsWith(const char* name, const char* prefix) {
  return std::strncmp(name, prefix, std::strlen(prefix)) == 0;
}

inline bool Is(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

inline double Us(const Span& s) {
  return static_cast<double>(s.end_ns - s.begin_ns) / 1e3;
}

// Length of the union of the intervals, clipped to [lo, hi).
inline std::uint64_t CoveredNs(std::vector<Interval> intervals,
                               std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, reach);
    end = std::min(end, hi);
    if (end <= begin) continue;
    covered += end - begin;
    reach = end;
  }
  return covered;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// An unsupported percentile (too few samples beyond it) reads 0; its sample
// count is reported either way.
inline Metric Pct(const char* name, const std::vector<double>& values,
                  double q, const char* unit) {
  const Quantile p = Percentile(values, q);
  return {name, p.supported ? p.value : 0, unit, p.samples};
}

}  // namespace layers_detail

inline std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  using namespace layers_detail;

  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> by_trace;
  std::vector<const Span*> complete;
  for (const Span& s : in.spans) {
    if (s.phase != 'X') continue;
    complete.push_back(&s);
    children[s.parent_span_id].push_back(&s);
    by_trace[s.trace_id].push_back(&s);
  }
  auto child_named = [&](const Span& parent, const char* name) -> const Span* {
    const auto it = children.find(parent.span_id);
    if (it == children.end()) return nullptr;
    for (const Span* c : it->second)
      if (Is(*c, name)) return c;
    return nullptr;
  };
  // The manager's handler span answering a client span.
  auto handler_of = [&](const Span& client) -> const Span* {
    const auto it = children.find(client.span_id);
    return it == children.end() || it->second.empty() ? nullptr
                                                       : it->second.front();
  };
  auto self_us = [&](const Span& s) {
    std::vector<Interval> covered;
    const auto it = children.find(s.span_id);
    if (it != children.end())
      for (const Span* c : it->second)
        covered.push_back({c->begin_ns, c->end_ns});
    return static_cast<double>(s.end_ns - s.begin_ns -
                               CoveredNs(covered, s.begin_ns, s.end_ns)) /
           1e3;
  };

  std::vector<double> transit, closure, queue_wait;
  std::map<std::string, std::vector<double>> dispatch_self, exec_us;
  std::uint64_t exec_instructions = 0, exec_ns = 0;
  std::map<std::pair<std::int32_t, std::uint32_t>, std::size_t> pump_votes;
  for (const Span* unit : complete) {
    bool analysed = false;
    for (const std::string& name : in.unit_spans)
      analysed = analysed || name == unit->name;
    if (!analysed || unit->begin_ns < in.window_begin_ns ||
        unit->begin_ns >= in.window_end_ns)
      continue;
    std::vector<Interval> covered;
    for (const Span* s : by_trace[unit->trace_id]) {
      if (StartsWith(s->name, "client.")) {
        covered.push_back({s->begin_ns, s->end_ns});
        if (const Span* h = handler_of(*s)) {
          transit.push_back(Us(*s) - Us(*h));
          covered.push_back({h->begin_ns, h->end_ns});
          ++pump_votes[{h->pid, h->tid}];
        }
      } else if (Is(*s, "MemcpyH2D") || Is(*s, "LaunchKernel") ||
                 Is(*s, "MemcpyD2H")) {
        dispatch_self[s->name].push_back(self_us(*s));
      } else if (StartsWith(s->name, "exec.t")) {
        // exec.t<tier>.<kernel>; arg1 = instructions, arg2 = outcome (0 ok).
        const char* kernel = std::strchr(s->name + 6, '.');
        if (kernel == nullptr || s->arg2 != 0) continue;
        exec_us[kernel + 1].push_back(Us(*s));
        exec_instructions += s->arg1;
        exec_ns += s->end_ns - s->begin_ns;
      } else if (Is(*s, "queue.wait")) {
        queue_wait.push_back(Us(*s));
      }
    }
    if (in.latency_span == unit->name && unit->end_ns > unit->begin_ns)
      closure.push_back(
          static_cast<double>(
              CoveredNs(covered, unit->begin_ns, unit->end_ns)) /
          static_cast<double>(unit->end_ns - unit->begin_ns));
  }

  // The worker's pump thread is the one that ran the handler spans; its
  // busy share is the union of everything it recorded inside the window.
  double pump_busy = 0;
  if (!pump_votes.empty()) {
    auto pump = pump_votes.begin();
    for (auto it = pump_votes.begin(); it != pump_votes.end(); ++it)
      if (it->second > pump->second) pump = it;
    std::vector<Interval> busy;
    for (const Span* s : complete)
      if (s->pid == pump->first.first && s->tid == pump->first.second)
        busy.push_back({s->begin_ns, s->end_ns});
    pump_busy = Ratio(static_cast<double>(CoveredNs(
                          busy, in.window_begin_ns, in.window_end_ns)),
                      static_cast<double>(in.window_end_ns -
                                          in.window_begin_ns));
  }

  // Whole stand-up (setup, window, teardown): sessions and module loads.
  std::vector<double> registers, disconnects, hit_client, hit_handler,
      miss_client, library_patch, library_compile, unique_patch,
      unique_compile;
  for (const Span* s : complete) {
    if (Is(*s, "RegisterClient")) registers.push_back(Us(*s));
    if (Is(*s, "Disconnect")) disconnects.push_back(Us(*s));
    const bool library = Is(*s, "bench.load.library");
    if (!library && !Is(*s, "bench.load.unique")) continue;
    for (const Span* c : by_trace[s->trace_id]) {
      if (!Is(*c, "client.ModuleLoadData") || c->begin_ns < s->begin_ns ||
          c->end_ns > s->end_ns)
        continue;
      const Span* h = handler_of(*c);
      if (h == nullptr) continue;
      const Span* patch = child_named(*h, "sandbox.patch");
      const Span* compile = child_named(*h, "sandbox.compile");
      if (library && patch == nullptr) {
        hit_client.push_back(Us(*c));
        hit_handler.push_back(Us(*h));
      }
      if (!library) miss_client.push_back(Us(*c));
      if (patch != nullptr)
        (library ? library_patch : unique_patch).push_back(Us(*patch) / 1e3);
      if (compile != nullptr)
        (library ? library_compile : unique_compile)
            .push_back(Us(*compile) / 1e3);
    }
  }

  const StatsSnapshot& b = in.at_begin;
  const StatsSnapshot& e = in.at_end;
  double tier_total = 0;
  for (int i = 0; i < 3; ++i)
    tier_total += static_cast<double>(e.tier_instructions[i] -
                                      b.tier_instructions[i]);
  const double hits = static_cast<double>(in.at_exit.ptx_cache_hits);
  const double patched = static_cast<double>(in.at_exit.ptx_modules_patched);

  auto d = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  return {
      Pct("ipc.transit_us.p50", transit, 0.5, "us"),
      Pct("ipc.transit_us.p99", transit, 0.99, "us"),
      {"process_server.pump_busy_frac", pump_busy, "frac"},
      {"grdlib.calls_per_request",
       Ratio(d(e.ring_messages_read, b.ring_messages_read),
             static_cast<double>(in.units_completed)),
       "msgs/unit"},
      {"grdlib.batched_ops_per_msg",
       Ratio(d(e.batched_ops, b.batched_ops),
             d(e.batches_decoded, b.batches_decoded)),
       "ops/msg"},
      Pct("grdlib.load_hit_us.p50", hit_client, 0.5, "us"),
      Pct("grdlib.load_miss_us.p50", miss_client, 0.5, "us"),
      Pct("dispatch.self_us.p50.MemcpyH2D", dispatch_self["MemcpyH2D"], 0.5,
          "us"),
      Pct("dispatch.self_us.p50.LaunchKernel", dispatch_self["LaunchKernel"],
          0.5, "us"),
      Pct("dispatch.self_us.p50.MemcpyD2H", dispatch_self["MemcpyD2H"], 0.5,
          "us"),
      Pct("session.register_us.p50", registers, 0.5, "us"),
      Pct("session.disconnect_us.p50", disconnects, 0.5, "us"),
      {"sandbox_cache.hit_ratio", Ratio(hits, hits + patched), "frac"},
      Pct("sandbox_cache.hit_load_us.p50", hit_handler, 0.5, "us"),
      Pct("sandbox.patch_ms.library", library_patch, 0.5, "ms"),
      Pct("sandbox.compile_ms.library", library_compile, 0.5, "ms"),
      Pct("sandbox.patch_ms.unique", unique_patch, 0.5, "ms"),
      Pct("sandbox.compile_ms.unique", unique_compile, 0.5, "ms"),
      {"ptx.parse_validate_ms.library", in.library.parse_validate_ms, "ms", 5},
      {"ptxpatcher.patch_ms.library", in.library.patch_ms, "ms", 5},
      {"ptxexec.compile_ms.library", in.library.compile_ms, "ms", 5},
      {"ptx.parse_validate_ms.unique", in.unique.parse_validate_ms, "ms", 5},
      {"ptxpatcher.patch_ms.unique", in.unique.patch_ms, "ms", 5},
      {"ptxexec.compile_ms.unique", in.unique.compile_ms, "ms", 5},
      Pct("ptxexec.exec_us.p50.saxpy", exec_us["saxpy"], 0.5, "us"),
      Pct("ptxexec.exec_us.p50.sgemm", exec_us["grd_sgemm"], 0.5, "us"),
      {"ptxexec.minstr_per_s",
       Ratio(static_cast<double>(exec_instructions) * 1e3,
             static_cast<double>(exec_ns)),
       "Minstr/s"},
      {"ptxexec.tier2_instr_share",
       Ratio(d(e.tier_instructions[2], b.tier_instructions[2]), tier_total),
       "frac"},
      Pct("gpu_scheduler.queue_wait_us.p50", queue_wait, 0.5, "us"),
      Pct("gpu_scheduler.queue_wait_us.p99", queue_wait, 0.99, "us"),
      {"gpu_scheduler.preemptions_per_klaunch",
       Ratio(d(e.preemptions, b.preemptions) * 1e3, d(e.launches, b.launches)),
       "per_1000"},
      {"gpu_scheduler.peak_queue_depth",
       static_cast<double>(in.at_exit.peak_queue_depth), "count"},
      {"loadgen.late_frac", in.late_frac, "frac"},
      {"trace.dropped", static_cast<double>(in.dropped), "count"},
      {"trace.overhead_frac", in.overhead_frac, "frac"},
      Pct("closure_frac", closure, 0.5, "frac"),
  };
}

}  // namespace guardbench
