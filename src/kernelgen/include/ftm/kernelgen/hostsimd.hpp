// Host SIMD tiers: the instruction set MicroKernel::run_fast's register
// tile runs on (src/kernelgen/src/tile.hpp), plus the elementwise loops of
// the strategy reductions and the graph executor (docs/performance.md).
//
// Each primitive here is elementwise: output element x depends only on
// input element(s) x through one IEEE-754 operation, so every tier gives
// the scalar loop's bits. run_fast keeps that property by fixing each C
// element's order of operations. host_exec_test and kernelgen_test check
// both on every supported tier.
//
// Dispatch is decided at runtime from CPUID (x86) or baked in (NEON is
// baseline on AArch64). AVX2 code is compiled with target attributes or a
// target pragma, so the build needs no -march flags.
#pragma once

#include <cstddef>

namespace ftm::kernelgen::hostsimd {

enum class Tier {
  Scalar = 0,  ///< portable one-lane loops (std::fma in run_fast)
  Avx2 = 1,    ///< AVX2 + FMA3 + F16C, runtime-detected on x86-64
  Neon = 2,    ///< baseline on AArch64
};

const char* to_string(Tier t);

/// Best tier this host supports (detected once, then cached).
Tier best_tier();

/// Tier the primitives currently dispatch to; defaults to best_tier().
Tier active_tier();

/// Forces a tier (tests/benchmarks); unsupported tiers clamp to Scalar.
/// Returns the tier actually installed.
Tier set_active_tier(Tier t);

/// Every entry point below validates its operands the way sgemm does —
/// null arrays with a non-zero length throw ftm::ContractViolation rather
/// than silently reading through nullptr.

/// acc[x] += x_[x] for x in [0, n) — the strategies' GSM partial merge
/// and the graph executor's elementwise add/bias ops.
void add_f32(float* acc, const float* x_, std::size_t n);

/// x_[x] = x_[x] > 0 ? x_[x] : 0 for x in [0, n) — the graph executor's
/// ReLU. Defined via compare-and-mask on every tier, so NaN and -0.0
/// inputs produce +0.0 identically under scalar, AVX2, and NEON dispatch.
void relu_f32(float* x_, std::size_t n);

}  // namespace ftm::kernelgen::hostsimd
