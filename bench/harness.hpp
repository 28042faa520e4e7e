// Shared plumbing of the ftm_bench harness (bench/ftm_bench.cpp): every
// suite is one function taking a Ctx, which carries the run mode, the CSV
// rule, the schema-1 record sink behind --json, and the failure count
// that gate checks and the paper's figure claims feed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/util/reporter.hpp"
#include "ftm/workload/sweeps.hpp"

namespace ftm::bench {

/// One perf-JSON entry in the schema tools/bench_compare.py reads.
struct Record {
  std::string shape, variant;
  std::uint64_t cycles = 0;
  double wall_us = 0;  ///< host time; written for gated entries only
  bool informational = false;
};

struct Ctx {
  bool smoke = false;      ///< CI-sized run: shrunk sweeps, no CSV written
  bool full = false;       ///< adds the paper-scale points that take minutes
  double fault_rate = 0;   ///< > 0 adds the runtime suite's fault sweep
  double sdc_rate = 0.1;   ///< top of the sdc suite's flip-rate sweep
  std::vector<Record> records;
  int failures = 0;

  /// Writes `t` to `path` in the current directory unless this is a
  /// smoke run (the committed CSVs are full-run output).
  void csv(const Table& t, const std::string& path) const;
  /// Counts a broken gate check or figure claim and prints why.
  bool check(bool ok, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  /// Gated entry: bench_compare.py fails on cycle growth or absence.
  void record(const std::string& shape, const std::string& variant,
              std::uint64_t cycles, double wall_us) {
    records.push_back({shape, variant, cycles, wall_us, false});
  }
  /// Informational entry: printed for trend visibility, never gated.
  void info(const std::string& shape, const std::string& variant,
            std::uint64_t cycles) {
    records.push_back({shape, variant, cycles, 0, true});
  }
};

/// "MxNxK", the shape key of the perf JSON.
std::string shape_name(std::size_t m, std::size_t n, std::size_t k);

/// Timing-only options on `cores` cores: the figures need cycle counts,
/// not data movement.
core::FtimmOptions timing(int cores = 8);

/// One engine call of a sweep: FP32 ftIMM (sgemm) or the TGEMM baseline.
struct Variant {
  core::FtimmOptions opt;
  bool tgemm = false;
};

/// Runs every variant on every shape; `row(shape, results)` receives one
/// result per variant, in variant order.
template <class Row>
void sweep(core::FtimmEngine& eng,
           const std::vector<workload::GemmShape>& shapes,
           const std::vector<Variant>& variants, Row&& row) {
  for (const workload::GemmShape& s : shapes) {
    const core::GemmInput in = core::GemmInput::shape_only(s.m, s.n, s.k);
    std::vector<core::GemmResult> r;
    for (const Variant& v : variants) {
      r.push_back(v.tgemm ? eng.tgemm(in, v.opt) : eng.sgemm(in, v.opt));
    }
    row(s, r);
  }
}

// The suites, registered by name in ftm_bench.cpp.
void suite_tables(Ctx&);
void suite_fig3(Ctx&);
void suite_fig4(Ctx&);
void suite_fig5(Ctx&);
void suite_fig6(Ctx&);
void suite_fig7(Ctx&);
void suite_ablation(Ctx&);
void suite_fp64(Ctx&);
void suite_sensitivity(Ctx&);
void suite_batched(Ctx&);
void suite_runtime(Ctx&);
void suite_replay(Ctx&);
void suite_sdc(Ctx&);
void suite_graph(Ctx&);
void suite_nodes(Ctx&);
void suite_mixed(Ctx&);
void suite_host(Ctx&);
void suite_trace_overhead(Ctx&);
void suite_gate(Ctx&);

}  // namespace ftm::bench
