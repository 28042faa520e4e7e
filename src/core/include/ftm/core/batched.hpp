// Batched irregular GEMM — an extension beyond the paper, covering its
// FEM/libxsmm motivation (§I): many small independent GEMMs whose shapes
// are individually too small to occupy eight DSP cores.
//
// Scheduling model: problems large enough to use the whole cluster run one
// after another on all cores; the small remainder is distributed
// round-robin, one core per problem, with DDR bandwidth shared among the
// concurrently running cores (FtimmOptions::bandwidth_share). Total time =
// serial (wide) phase + max over cores of their small-problem queues.
#pragma once

#include <span>
#include <vector>

#include "ftm/core/ftimm.hpp"

namespace ftm::core {

/// Executes every problem (C += A*B each); returns the batch makespan on
/// the simulated cluster. Functional mode writes every problem's C. The
/// wide/small split point is FtimmOptions::wide_problem_flops (rejected
/// when <= 0).
///
/// Implemented in ftm_runtime: this entry point is now a thin client of a
/// single-cluster GemmRuntime (runtime/runtime.hpp), which owns the
/// wide-serial + small-core-parallel scheduling model, and its BatchResult
/// is returned as is. Link ftm_runtime.
BatchResult sgemm_batched(FtimmEngine& engine,
                          std::span<const GemmInput> problems,
                          const FtimmOptions& opt = {});

}  // namespace ftm::core
