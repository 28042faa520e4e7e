#include "ftm/cpu/peak.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <vector>

namespace ftm::cpu {

namespace {

/// Independent FMA chains on 64 accumulators — wide enough to fill any
/// SIMD width times the FMA pipeline depth, so the loop vectorizes at
/// least as well as the GEMM micro-kernel it calibrates. The accumulators
/// are returned through a volatile sink so the optimizer cannot remove
/// the loop.
double fma_burst(std::uint64_t iters) {
  constexpr int kChains = 64;
  float acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = 0.5f + 0.001f * i;
  const float a = 1.000001f;
  const float b = 1e-7f;
  for (std::uint64_t it = 0; it < iters; ++it) {
    for (int i = 0; i < kChains; ++i) acc[i] = acc[i] * a + b;
  }
  float total = 0.0f;
  for (int i = 0; i < kChains; ++i) total += acc[i];
  volatile float sink = total;
  (void)sink;
  return 2.0 * kChains * static_cast<double>(iters);
}

}  // namespace

double measure_single_core_peak_gflops(double seconds) {
  using clock = std::chrono::steady_clock;
  std::uint64_t iters = 1 << 16;
  double best = 0.0;
  for (;;) {
    const auto t0 = clock::now();
    const double flops = fma_burst(iters);
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    if (dt > 1e-4) best = std::max(best, flops / dt / 1e9);
    if (dt >= seconds) break;
    iters *= 2;
  }
  return best;
}

double measure_peak_gflops(TaskPool& pool, double seconds) {
  // Calibrate an iteration count that runs ~`seconds` on one core, then run
  // it on every thread simultaneously and sum throughput.
  const double single = measure_single_core_peak_gflops(seconds * 0.5);
  const std::uint64_t iters =
      static_cast<std::uint64_t>(single * 1e9 * seconds / 32.0) + 1;
  std::vector<double> gflops(pool.parallelism(), 0.0);
  std::vector<std::function<void()>> tasks;
  for (double& g : gflops) {
    tasks.emplace_back([&g, iters] {
      using clock = std::chrono::steady_clock;
      const auto t0 = clock::now();
      const double flops = fma_burst(iters);
      const double dt =
          std::chrono::duration<double>(clock::now() - t0).count();
      g = dt > 0 ? flops / dt / 1e9 : 0.0;
    });
  }
  pool.run_batch(std::move(tasks));
  double total = 0.0;
  for (double g : gflops) total += g;
  return total;
}

}  // namespace ftm::cpu
