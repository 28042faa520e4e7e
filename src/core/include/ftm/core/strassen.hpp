// Strassen recursion over the blocked FP32 GEMM path (extension;
// docs/precision.md). One recursion level replaces 8 half-size products
// with 7 plus matrix additions, trading DDR-bandwidth-bound add passes
// for a 12.5% flop cut — profitable only once the sub-products are firmly
// compute-bound, hence the cutoff. Sub-products execute sequentially on
// the one simulated cluster (the win is pure flop reduction, not extra
// parallelism), so the reported cycles are the sum of the recursive
// sub-GEMM cycles plus the modeled add-pass cycles.
//
// Cost model per level (q = quadrant elements): the 10 operand sums are
// fused into the leaves' packing streams (+1 DDR read each); the two
// single-destination products (M6, M7) accumulate directly into their C
// quadrant via the base GEMM's C += A*B semantics (no temp at all); the
// remaining 5 products zero a DDR temp (1 write) and merge with 3-stream
// read-modify-write passes — 45 q-sized streams per level, against the
// 12.5% of leaf compute a level saves. Leaves dispatch through
// sgemm_autotuned (best blocked variant), not the analytic dispatcher,
// which pessimizes big squares onto TGemm.
//
// Numerics: Strassen reassociates the accumulation, so its C is NOT
// bit-identical to the blocked path — tests compare against a reference
// with gemm_tolerance(k) scaled by the recursion depth (each level can
// roughly double the error constant), never with memcmp.
#pragma once

#include <cstddef>

#include "ftm/core/ftimm.hpp"

namespace ftm::core {

/// Default recursion cutoff (max sub-problem dimension that still runs
/// the blocked path). Chosen from the `ftm_bench mixed` crossover study:
/// leaf efficiency is still climbing below 8k (53.6% at 4096^3 vs 59.8%
/// at 8192^3 for the best blocked variant), so splitting earlier trades
/// cheap large-leaf flops for expensive small-leaf ones and loses more
/// than the 12.5% recursion saves.
inline constexpr std::size_t kStrassenDefaultCutoff = 8192;

/// C += A * B via Strassen recursion; sub-products at or below the cutoff
/// (or with any odd dimension, which this implementation does not peel)
/// run FtimmEngine::sgemm with the analytic strategy dispatcher.
/// `cutoff` = 0 uses kStrassenDefaultCutoff. Sets strassen_levels on the
/// result to the deepest recursion actually taken.
GemmResult strassen_gemm(FtimmEngine& engine, const GemmInput& in,
                         std::size_t cutoff, const FtimmOptions& opt = {});

}  // namespace ftm::core
