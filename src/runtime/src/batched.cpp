// sgemm_batched, rerouted through the multi-cluster runtime: a batch on
// one engine is just run_all() on a single-cluster GemmRuntime borrowing
// that engine. The wide-serial + small-core-parallel policy (and the lane
// makespan model behind it) now lives in GemmRuntime::run_all, where it
// also serves the 4-cluster case.
#include "ftm/core/batched.hpp"

#include "ftm/runtime/runtime.hpp"

namespace ftm::core {

BatchResult sgemm_batched(FtimmEngine& engine,
                          std::span<const GemmInput> problems,
                          const FtimmOptions& opt) {
  FTM_EXPECTS(opt.cores >= 1 &&
              opt.cores <= engine.machine().cores_per_cluster);
  FTM_EXPECTS(opt.wide_problem_flops > 0);
  if (problems.empty()) return {};

  runtime::RuntimeOptions ro;
  ro.gemm = opt;
  ro.work_stealing = false;  // one cluster: nothing to steal
  ro.split_wide = false;
  ro.keep_request_log = false;
  runtime::GemmRuntime rt(std::vector<FtimmEngine*>{&engine}, ro);
  return rt.run_all(problems, opt);
}

}  // namespace ftm::core
