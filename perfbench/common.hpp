// Helpers shared by the workload implementations: seeded operands with
// double-precision references, output checks, and the per-layer metrics
// that read the same library counters in every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/runtime/stats.hpp"
#include "ftm/trace/counters.hpp"
#include "ftm/util/matrix.hpp"
#include "ftm/util/prng.hpp"
#include "harness.hpp"

namespace pb {

/// Simulated seconds of `cycles` on the modeled 1.8 GHz DSP clock.
double sim_seconds(std::uint64_t cycles);

/// A, B with values in [-1, 1) from `seed`, and C_ref = A*B accumulated in
/// double and rounded once to float (`half`: on F16-rounded operands).
struct Operands {
  ftm::HostMatrix a, b, ref;
};
Operands make_operands(std::size_t m, std::size_t n, std::size_t k,
                       std::uint64_t seed, bool half = false);
/// out = A*B accumulated in double, rounded once to float.
void reference_gemm(ftm::ConstMatrixView a, ftm::ConstMatrixView b,
                    ftm::MatrixView out);
/// The same on operands first rounded to FP16 when `half` is set: the F16
/// tier rounds its inputs, so what is left to check is its FP32
/// accumulation.
void reference_gemm(ftm::ConstMatrixView a, ftm::ConstMatrixView b,
                    ftm::MatrixView out, bool half);

/// Output tolerance of a functional call, as max_rel_diff (denominators
/// clamped to 1) against the double reference. F32 uses
/// ftm::gemm_tolerance(k). F16 is checked against the reference on
/// F16-rounded operands with a 4x looser bound, which leaves headroom for
/// operands that land within one rounding step of a tie.
double output_tolerance(std::size_t k, bool half);

/// `x` grown by a seeded multiple of 16, by at most ~3% of x: each seed is
/// a distinct but equivalent instance of a shape (same taxonomy class,
/// different simulated cycles), so sim_gflops differs between seeds and is
/// identical for one seed.
std::size_t jitter(std::size_t x, ftm::Prng& rng);

/// "type1", "type2", "type3" or "regular" (workload::classify).
std::string taxonomy_group(std::size_t m, std::size_t n, std::size_t k);

/// Per-layer metrics from runtime request logs and counters. `log` may
/// concatenate several runtimes' logs (the node tier's).
void runtime_layers(const std::vector<ftm::runtime::RequestStats>& log,
                    const ftm::runtime::RuntimeStats& st,
                    const std::string& source, LayerTable& t);

/// kernelgen.kernels_generated / cache_hit_ratio over the given caches.
void kernel_cache_layers(
    const std::vector<const ftm::kernelgen::KernelCache*>& caches,
    LayerTable& t);

/// Ratios of the library's trace counters. `traced_f32_flops` is the base
/// for per-flop counters: only the FP32 engine path emits trace events.
void trace_layers(const ftm::trace::CounterRegistry& tc,
                  double traced_f32_flops, LayerTable& t);

/// core.plan_us.p50: host clock around FtimmEngine::plan, several times
/// per distinct FP32 shape, on a private engine.
struct Shape {
  std::size_t m, n, k;
};
void plan_layers(const std::vector<Shape>& shapes, LayerTable& t);

/// Adds `v` as a metric, or a missing row with `reason` when v is NaN.
void set_or_missing(LayerTable& t, const std::string& name,
                    const std::string& unit, double v,
                    const std::string& source, const std::string& reason);

}  // namespace pb
