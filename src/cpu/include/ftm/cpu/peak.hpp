// Host FP32 peak measurement. Fig. 7 compares *efficiency* (achieved /
// peak); the DSP side uses the published 2764.8 GFlops cluster peak, and
// the host side uses the throughput measured here with an FMA-saturating
// micro-benchmark on all pool threads.
#pragma once

#include "ftm/util/task_pool.hpp"

namespace ftm::cpu {

/// Measured GFlops of a register-resident FMA loop on one thread.
double measure_single_core_peak_gflops(double seconds = 0.05);

/// Measured aggregate GFlops across all threads of `pool`.
double measure_peak_gflops(TaskPool& pool, double seconds = 0.05);

}  // namespace ftm::cpu
