// FP64 GEMM on the simulated cluster — the extension companion to the
// FP64 micro-kernels. Runs the M-dimension parallel algorithm (Algorithm
// 4, run_strategy_m) with 8-byte elements: B panel cached in GSM, per-core
// A/C streaming, ping-pong at every level, exact-n_a kernels. N is limited
// to 48 (three 16-lane FP64 vectors), mirroring the paper's N <= 96 for
// FP32.
#pragma once

#include <cstddef>

#include "ftm/core/ftimm.hpp"

namespace ftm::core {

/// FP64 problem views (row-major, leading dimension in elements).
struct DGemmInput {
  std::size_t m = 0, n = 0, k = 0;
  const double* a = nullptr;  ///< M x K, lda
  const double* b = nullptr;  ///< K x N, ldb
  double* c = nullptr;        ///< M x N, ldc
  std::size_t lda = 0, ldb = 0, ldc = 0;

  static DGemmInput shape_only(std::size_t m, std::size_t n, std::size_t k) {
    DGemmInput in;
    in.m = m;
    in.n = n;
    in.k = k;
    return in;
  }
  static DGemmInput bound(const double* a, const double* b, double* c,
                          std::size_t m, std::size_t n, std::size_t k) {
    DGemmInput in;
    in.m = m;
    in.n = n;
    in.k = k;
    in.a = a;
    in.b = b;
    in.c = c;
    in.lda = k;
    in.ldb = n;
    in.ldc = n;
    return in;
  }
  double flops() const { return 2.0 * m * n * k; }
};

/// C += A * B in FP64 via the M-parallel strategy. Block sizes come from
/// fixed_m_blocks at FP64 element sizes (blocking.hpp). Requires n <= 48.
GemmResult dgemm(FtimmEngine& engine, const DGemmInput& in,
                 const FtimmOptions& opt = {});

}  // namespace ftm::core
