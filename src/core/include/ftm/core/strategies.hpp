// The three GEMM algorithms, exposed with explicit block configurations so
// tests and ablation benchmarks can pin blocks; regular users go through
// FtimmEngine (ftimm.hpp), which picks strategy and blocks automatically.
#pragma once

#include "ftm/core/blocking.hpp"
#include "ftm/core/types.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/sim/cluster.hpp"

namespace ftm::core {

/// Algorithm 1: the traditional implementation. Parallel over N blocks of
/// 96 columns, A panel shared in GSM, fixed blocks, implicit padding of B
/// and C tiles to 96 columns.
GemmResult run_tgemm(sim::Cluster& cl, kernelgen::KernelCache& cache,
                     const GemmInput& in, const TBlocks& blocks,
                     const FtimmOptions& opt);

/// Algorithm 4: ftIMM's M-dimension parallelization. B panel shared in
/// GSM; each core streams its own A rows and C tiles from DDR.
GemmResult run_strategy_m(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const GemmInput& in, const MBlocks& blocks,
                          const FtimmOptions& opt);

/// Algorithm 4 operands at any element layout: row-major, leading
/// dimensions in elements (A elements, B rows of layout.b_row_bytes()
/// per column, C elements). Pointers may be null in timing-only runs.
struct MOperands {
  std::size_t m = 0, n = 0, k = 0;
  const void* a = nullptr;
  const void* b = nullptr;
  void* c = nullptr;
  std::size_t lda = 0, ldb = 0, ldc = 0;
};

/// The one Algorithm 4 loop nest, at the element widths of `layout`. The
/// FP32 overload above, dgemm and hgemm all run through it.
GemmResult run_strategy_m(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const MOperands& in, const MBlocks& blocks,
                          const ElemLayout& layout, const FtimmOptions& opt);

/// Algorithm 5: ftIMM's K-dimension parallelization with the GSM-based
/// inter-core reduction.
GemmResult run_strategy_k(sim::Cluster& cl, kernelgen::KernelCache& cache,
                          const GemmInput& in, const KBlocks& blocks,
                          const FtimmOptions& opt);

}  // namespace ftm::core
