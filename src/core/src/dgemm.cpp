#include "ftm/core/dgemm.hpp"

#include "ftm/core/strategies.hpp"

namespace ftm::core {

GemmResult dgemm(FtimmEngine& engine, const DGemmInput& in,
                 const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  FTM_EXPECTS(in.n <= 48);  // three 16-lane FP64 vectors
  FTM_EXPECTS(opt.cores >= 1 &&
              opt.cores <= engine.machine().cores_per_cluster);
  if (opt.functional) {
    FTM_EXPECTS(in.a != nullptr && in.b != nullptr && in.c != nullptr);
  }
  const ElemLayout layout = elem_layout(kernelgen::DType::F64);
  const MOperands op{in.m, in.n, in.k, in.a, in.b, in.c,
                     in.lda, in.ldb, in.ldc};
  return run_strategy_m(
      engine.cluster(), engine.kernels(), op,
      fixed_m_blocks(in.m, in.n, in.k, opt.cores, engine.machine(), layout),
      layout, opt);
}

}  // namespace ftm::core
