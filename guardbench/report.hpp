// Sample statistics and result emission for bench_guardian.
//
// Latencies are summarized exactly from raw samples (nearest-rank
// percentiles over the sorted sample vector). A tail percentile counts as
// supported only when at least kMinBeyond samples lie above it, so a p99 is
// never read off a few dozen samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace guardbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // Samples behind the value; 0 for counters and ratios.
  std::size_t samples = 0;
};

struct Quantile {
  double value = 0;
  std::size_t samples = 0;
  bool supported = false;
};

// Nearest-rank percentile q in (0, 1]. The median is supported whenever
// there is a sample; higher percentiles need kMinBeyond samples above them.
inline Quantile Percentile(std::vector<double> values, double q) {
  Quantile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::min(values.size(), std::max<std::size_t>(
                                                        rank, 1)) - 1;
  out.value = values[index];
  out.supported = q <= 0.5 || values.size() - (index + 1) >= kMinBeyond;
  return out;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5).value;
}

// A finite double with twelve significant digits: more than any timing
// here resolves (nanoseconds of a run shorter than 1000 s).
inline std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

inline std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// {"name": {"value": v, "unit": "u"[, "samples": n]}, ...}
inline std::string MetricsObject(const std::vector<Metric>& metrics,
                                 bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += Quoted(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quoted(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

// The one-line verdict the benchmark prints last on stdout.
inline std::string ResultLine(bool correct, std::uint64_t attempted,
                              std::uint64_t failed,
                              const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsObject(metrics, false) + "}";
}

// `workload metric value unit [n=samples]`, one line per metric.
inline void PrintMetrics(const std::string& workload,
                         const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s", workload.c_str(), m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    std::printf("\n");
  }
}

inline bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace guardbench
