// Measurement plumbing shared by the perfbench workloads: host clocks,
// process counters, per-call records, the traced run's span log and the
// per-layer metric table. Everything here observes the library from
// outside; nothing is compiled into the library itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftm/trace/counters.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b);

/// Linear-interpolated percentile (p in [0, 100]); NaN for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Process user+sys CPU seconds (getrusage).
double cpu_seconds();
/// Peak resident set size of the process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// What a host measurement was taken on; host metrics compare only
/// between runs on the same machine descriptor.
std::string machine_descriptor();

/// One call as the benchmark saw it. A call is one engine/node call, one
/// runtime request or one graph run.
struct Call {
  std::size_t seq = 0;     ///< position in the workload's call sequence
  int kind = 0;            ///< index into the workload's call table
  double flops = 0;
  std::uint64_t cycles = 0;  ///< simulated
  double latency_us = 0;     ///< host: issue -> result in the caller's hands
  bool ok = true;            ///< returned, and the output passed its check
};

/// Spans the traced run records around each public call it makes. Spans
/// of one call share `req`; `parent` is an index into the log or -1.
struct Span {
  const char* name = "";
  std::uint64_t req = 0;
  int parent = -1;
  double t0_us = 0, t1_us = 0;  ///< since the log's origin
};

class SpanLog {
 public:
  SpanLog();
  /// Opens a span; returns its index for end() and as a parent.
  int begin(const char* name, std::uint64_t req, int parent = -1);
  void end(int idx);
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span: duration minus the union its children cover.
  std::vector<double> self_us() const;
  /// Writes the spans as Runtime-track events plus `counters` through the
  /// library's Chrome trace-event exporter (trace::write_chrome_json).
  bool write_chrome(const std::string& path,
                    const ftm::trace::CounterRegistry& counters) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One per-layer number, or the reason the code cannot supply it.
struct LayerMetric {
  std::string name, unit;
  std::optional<double> value;
  std::string note;  ///< source, or why it is missing
};

class LayerTable {
 public:
  void set(const std::string& name, const std::string& unit, double v,
           const std::string& source = "");
  void missing(const std::string& name, const std::string& unit,
               const std::string& reason);
  const LayerMetric* find(const std::string& name) const;
  void print() const;

 private:
  std::vector<LayerMetric> rows_;
};

/// One reconciliation identity of the traced run.
struct Residual {
  std::string identity;
  double worst = 0;      ///< worst residual observed
  double tolerance = 0;  ///< fails when worst < -tolerance
  std::string unit;
  std::size_t samples = 0;
  bool ok() const { return worst >= -tolerance; }
};

}  // namespace pb
