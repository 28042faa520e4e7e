// Public types of the ftIMM core API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftm/isa/machine.hpp"
#include "ftm/kernelgen/spec.hpp"
#include "ftm/util/matrix.hpp"

namespace ftm {
class TaskPool;  // util/task_pool.hpp
}

namespace ftm::core {

/// Which multi-core algorithm executes a GEMM.
enum class Strategy {
  Auto,       ///< dispatcher decides from the shape (§IV-C)
  TGemm,      ///< Algorithm 1 baseline (N-dimension parallel, fixed blocks)
  ParallelM,  ///< Algorithm 4 (M-dimension parallel, B panel in GSM)
  ParallelK,  ///< Algorithm 5 (K-dimension parallel, GSM reduction)
};

const char* to_string(Strategy s);

/// How much ABFT checksum protection a GEMM call gets (src/abft/,
/// docs/robustness.md). Ordered by strength so a request's mode merges
/// with the runtime's floor by std::max: a request may strengthen but
/// never weaken it.
enum class IntegrityMode {
  Off,            ///< no checksums; bit/cycle-identical to pre-ABFT builds
  Verify,         ///< verify checksums at store; any mismatch escalates
  VerifyCorrect,  ///< verify + repair single-element errors in place
};

const char* to_string(IntegrityMode m);

/// One GEMM invocation: C += A * B. Views may be empty when the engine
/// runs in timing-only mode (huge sweeps where only cycles matter).
struct GemmInput {
  std::size_t m = 0, n = 0, k = 0;
  ConstMatrixView a;  ///< M x K
  ConstMatrixView b;  ///< K x N
  MatrixView c;       ///< M x N

  static GemmInput shape_only(std::size_t m, std::size_t n, std::size_t k) {
    GemmInput in;
    in.m = m;
    in.n = n;
    in.k = k;
    return in;
  }
  static GemmInput bound(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
    GemmInput in;
    in.m = a.rows();
    in.n = b.cols();
    in.k = a.cols();
    in.a = a;
    in.b = b;
    in.c = c;
    FTM_EXPECTS(b.rows() == in.k && c.rows() == in.m && c.cols() == in.n);
    return in;
  }
  double flops() const { return 2.0 * m * n * k; }
};

/// Execution controls. The ablation switches exist so benchmarks can
/// quantify each design ingredient (DESIGN.md §5).
struct FtimmOptions {
  int cores = 8;               ///< active DSP cores (1..8)
  bool functional = true;      ///< move real data; false = timing only
  Strategy force = Strategy::Auto;
  bool dynamic_blocks = true;  ///< apply §IV-C adjustment (ablation)
  bool pingpong = true;        ///< DMA/compute overlap (ablation)
  /// When > 0, DDR/GSM bandwidth is shared among this many cores instead
  /// of the run's own worker count — used by the batched scheduler, where
  /// other cores run *other* GEMMs concurrently.
  int bandwidth_share = 0;
  /// Host execution engine (docs/performance.md): when set, functional
  /// work (micro-kernel math, DMA byte copies) of different simulated
  /// cores runs on this pool's threads between barrier points. Purely a
  /// host-speed knob: simulated cycles and the C output are bit-identical
  /// for any pool size, nullptr included (then everything runs inline on
  /// the calling thread, exactly the pre-engine behavior). Non-owning;
  /// must outlive the call. The runtime injects its own pool here.
  TaskPool* host_pool = nullptr;
  /// ABFT checksum verification (src/abft/). Off by default: the
  /// verify-off path performs no checksum work and charges no cycles.
  IntegrityMode integrity = IntegrityMode::Off;
  /// Compute precision. F32 is the paper's path. F16/BF16 route sgemm()
  /// through the mixed-precision engine (hgemm.hpp): FP32 views in DDR,
  /// operands packed to halves outside the timed region, FP32
  /// accumulation on the DSP. F64 callers use dgemm() directly.
  kernelgen::DType dtype = kernelgen::DType::F32;
};

/// What a simulated GEMM cost.
struct GemmResult {
  std::uint64_t cycles = 0;
  double seconds = 0;
  double gflops = 0;
  double efficiency = 0;  ///< gflops / dtype peak of its cores
  Strategy strategy = Strategy::Auto;
  int cores = 0;
  std::uint64_t ddr_bytes = 0;     ///< DDR traffic (both directions)
  std::uint64_t kernel_calls = 0;  ///< micro-kernel invocations
  /// Host wall-clock of this call in microseconds (timing + functional
  /// work). Unlike every field above it is *not* deterministic — it is
  /// the observability hook for the host execution engine's speedup.
  double host_wall_us = 0;
  /// True when the runtime's resilience layer gave up on the DSP clusters
  /// and computed C on the host CPU: C is correct (to gemm_tolerance(k),
  /// the accumulation order differs) but the cycle fields are zero — the
  /// host is outside the simulated cycle model.
  bool cpu_fallback = false;
  /// ABFT integrity accounting (all zero when integrity == Off).
  std::uint64_t checksum_checks = 0;  ///< row+col checksum comparisons
  std::uint64_t sdc_detected = 0;     ///< checksum mismatches observed
  std::uint64_t sdc_corrected = 0;    ///< elements repaired in place
  /// Simulated cycles charged for the checksum FLOPs/DMA; already
  /// included in `cycles`.
  std::uint64_t checksum_cycles = 0;
  /// Compute precision this result was produced with.
  kernelgen::DType dtype = kernelgen::DType::F32;

  /// Serial merge: `o` ran after this on the same cores, so cycles (and
  /// checksum cycles) add. Traffic, work, host time and ABFT counts add;
  /// strategy, cores and dtype follow `o` unless it is a CPU-fallback
  /// result, which has none.
  void add(const GemmResult& o);
  /// Concurrent merge: `o` ran alongside this on other cores, so the
  /// makespan (and its checksum share) is the slower one's. Everything
  /// else merges as in add().
  void add_parallel(const GemmResult& o);

  friend bool operator==(const GemmResult&, const GemmResult&) = default;
};

/// The one place a result's rates are derived: seconds from `r.cycles` at
/// the machine clock, gflops from `flops` over those seconds, and
/// efficiency against `cores` cores at the peak of `r.dtype` (peak_scale:
/// half the FP32 peak for F64, double for the DOT2 half formats). Merged
/// results pass every core they ran on (e.g. cores x shards).
void derive_rates(GemmResult& r, double flops, int cores,
                  const isa::MachineConfig& mc);

/// What a batch of GEMMs cost (GemmRuntime::run_all): the
/// members folded with add_parallel, with `cycles` the lane makespan —
/// small members stack on shared lanes, so it can exceed the slowest
/// member — and rates against every core of every cluster.
struct BatchResult : GemmResult {
  double flops = 0;
  std::size_t problems = 0;
  std::size_t wide_problems = 0;   ///< full-cluster, serial per cluster
  std::size_t small_problems = 0;  ///< one core each, lane-parallel
  std::vector<std::uint64_t> cluster_cycles;  ///< per-cluster makespan
};

}  // namespace ftm::core
