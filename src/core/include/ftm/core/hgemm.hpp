// Mixed-precision FP16/BF16 GEMM on the simulated cluster — the companion
// to the VFMULAH32 micro-kernels. Runs the M-dimension parallel algorithm
// (Algorithm 4, run_strategy_m) with half-width operand tiles: the packed
// B panel cached in GSM, per-core A/C streaming, ping-pong at every level.
// Accumulation is FP32 throughout (C tiles are FP32 in AM and DDR).
//
// Data layout contract (docs/precision.md): A is row-major 16-bit halves;
// B is *k-pair interleaved* — row p holds k = 2p and 2p+1 as one 32-bit
// word per column (lo16 = even k), which is what VLDH streams into a
// vector register as 64 packed halves. The f32-I/O wrapper produces both
// layouts on the host outside the timed region (half operands are packed
// once and reused, the standard deployment for reduced-precision GEMM).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ftm/core/ftimm.hpp"

namespace ftm::core {

/// Half-precision problem views (row-major; leading dimensions in
/// elements: halves for A, packed pair words for B, floats for C).
struct HGemmInput {
  std::size_t m = 0, n = 0, k = 0;
  const std::uint16_t* a = nullptr;  ///< M x K halves, lda
  const std::uint32_t* b = nullptr;  ///< (K/2) x N packed pair words, ldb
  float* c = nullptr;                ///< M x N FP32, ldc
  std::size_t lda = 0, ldb = 0, ldc = 0;
  kernelgen::DType dtype = kernelgen::DType::F16;  ///< F16 or BF16

  static HGemmInput shape_only(std::size_t m, std::size_t n, std::size_t k,
                               kernelgen::DType dtype) {
    HGemmInput in;
    in.m = m;
    in.n = n;
    in.k = k;
    in.dtype = dtype;
    return in;
  }
  double flops() const { return 2.0 * m * n * k; }
};

/// Packs an FP32 row-major matrix into row-major halves with K padded up
/// to `kp` (zero halves). `out` must hold m * kp entries.
void pack_a_half(ConstMatrixView a, std::size_t kp, std::uint16_t* out,
                 kernelgen::DType dtype);

/// Packs FP32 row-major B (K x N) into the k-pair interleaved layout:
/// kp/2 rows of N words, word = half(B[2p][j]) | half(B[2p+1][j]) << 16,
/// zero-padded past row K. `out` must hold (kp / 2) * n entries; kp even.
void pack_b_half(ConstMatrixView b, std::size_t kp, std::uint32_t* out,
                 kernelgen::DType dtype);

/// C += A * B with half operands and FP32 accumulation via the M-parallel
/// strategy. Requires n <= 96 and k a multiple of 4 (the pair-consuming
/// kernels need at least one full ku=2 iteration; pad with pack_*_half).
GemmResult hgemm(FtimmEngine& engine, const HGemmInput& in,
                 const FtimmOptions& opt = {});

/// FP32-I/O convenience wrapper used by sgemm() when opt.dtype is F16 or
/// BF16: rounds A/B to opt.dtype on the host (outside the timed region),
/// pads K up to a multiple of 4, runs hgemm, leaves C in the caller's
/// FP32 view. N wider than 96 runs as sequential 96-column panels whose
/// cycles add. Timing-only calls skip the conversion entirely.
GemmResult hgemm_f32(FtimmEngine& engine, const GemmInput& in,
                     const FtimmOptions& opt = {});

}  // namespace ftm::core
