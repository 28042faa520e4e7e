// google-benchmark microbenchmarks of the host-side components: kernel
// generation + calibration latency (what ftIMM pays the first time a shape
// appears), cache hit cost, the fast-path kernel executor, the host CPU
// SGEMM, and the simulation throughput of a full GEMM dispatch.
#include <benchmark/benchmark.h>

#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/util/task_pool.hpp"

using namespace ftm;

namespace {

void BM_KernelGeneration(benchmark::State& state) {
  const auto& mc = isa::default_machine();
  const int ms = static_cast<int>(state.range(0));
  const int na = static_cast<int>(state.range(1));
  for (auto _ : state) {
    kernelgen::MicroKernel uk({ms, 512, na}, mc);
    benchmark::DoNotOptimize(uk.cycles());
  }
}
BENCHMARK(BM_KernelGeneration)
    ->Args({6, 96})
    ->Args({8, 96})
    ->Args({6, 64})
    ->Args({6, 32})
    ->Unit(benchmark::kMillisecond);

void BM_KernelCacheHit(benchmark::State& state) {
  kernelgen::KernelCache cache;
  cache.get({6, 512, 96});
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cache.get({6, 512, 96}));
  }
}
BENCHMARK(BM_KernelCacheHit);

void BM_KernelFastPath(benchmark::State& state) {
  kernelgen::KernelCache cache;
  const kernelgen::KernelSpec spec{8, 512, 96};
  const kernelgen::MicroKernel& uk = cache.get(spec);
  const int ld = spec.am_row_floats();
  std::vector<float> a(spec.ms * spec.ka, 0.5f), b(spec.ka * ld, 0.25f),
      c(spec.ms * ld, 0.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(uk.run_fast(a.data(), b.data(), c.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.flops()));
}
BENCHMARK(BM_KernelFastPath);

void BM_CpuGemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Prng rng(1);
  HostMatrix a(n, n), b(n, n), c(n, n);
  a.fill_random(rng);
  b.fill_random(rng);
  TaskPool pool;
  for (auto _ : state) {
    cpu::cpu_gemm(a.view(), b.view(), c.view(), &pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_CpuGemm)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_SimulatedDispatch(benchmark::State& state) {
  core::FtimmEngine eng;
  core::FtimmOptions opt;
  opt.functional = false;
  const auto in = core::GemmInput::shape_only(1 << 14, 32, 32);
  eng.sgemm(in, opt);  // warm the kernel cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.sgemm(in, opt).cycles);
  }
  state.SetLabel("simulating 2^14 x 32 x 32 on 8 cores, timing-only");
}
BENCHMARK(BM_SimulatedDispatch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
