// Host CPU SGEMM baseline ("obgemm"): a blocked, packed, multi-threaded
// implementation in the OpenBLAS/Goto style, standing in for OpenBLAS
// 0.3.20 on FT-m7032's 16-core ARMv8 CPU (paper Fig. 7). Also the naive
// reference GEMM every simulated path is verified against.
#pragma once

#include <cstddef>

#include "ftm/util/matrix.hpp"
#include "ftm/util/task_pool.hpp"

namespace ftm::cpu {

/// Naive triple loop, C += A * B. The correctness oracle.
void reference_gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c);

struct CpuGemmConfig {
  std::size_t mc = 256;  ///< rows of A packed per panel
  std::size_t kc = 256;  ///< depth per panel
  std::size_t nc = 2048; ///< columns per panel
  std::size_t mr = 8;    ///< micro-tile rows
  std::size_t nr = 16;   ///< micro-tile cols (two 8-float SIMD lanes)
};

/// Blocked + packed SGEMM, C += A * B, parallelized over contiguous row
/// chunks, one per thread of `pool` (nullptr runs single-threaded). Rows
/// are independent, so C's bits do not depend on the pool size.
void cpu_gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c,
              TaskPool* pool = nullptr,
              const CpuGemmConfig& cfg = CpuGemmConfig{});

}  // namespace ftm::cpu
