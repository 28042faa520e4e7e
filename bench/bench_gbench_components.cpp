// google-benchmark microbenchmarks of the host-side components: kernel
// generation + calibration latency (what ftIMM pays the first time a shape
// appears), cache hit cost, the fast-path kernel executor, the host CPU
// SGEMM, and the simulation throughput of a full GEMM dispatch.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

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

/// One run_fast call per iteration; args (dtype, ms, ka, na), one spec per
/// host register-tile instantiation.
void BM_KernelFastPath(benchmark::State& state) {
  kernelgen::KernelSpec spec{static_cast<int>(state.range(1)),
                             static_cast<int>(state.range(2)),
                             static_cast<int>(state.range(3))};
  spec.dtype = static_cast<kernelgen::DType>(state.range(0));
  const kernelgen::MicroKernel uk(spec, isa::default_machine());
  // Zero operands are valid in every format, and FMA timing does not
  // depend on the values; doubles give 8-byte-aligned raw storage.
  std::vector<double> a(spec.a_bytes() / 8 + 1), b(spec.b_bytes() / 8 + 1),
      c(spec.c_bytes() / 8 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(uk.run_fast(a.data(), b.data(), c.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.flops()));
  state.SetLabel(std::string(kernelgen::to_string(spec.dtype)) + " ku=" +
                 std::to_string(uk.tiling().ku) +
                 " tile_rows=" + std::to_string(uk.host_tile_rows()));
}
constexpr auto kF32 = static_cast<std::int64_t>(kernelgen::DType::F32);
constexpr auto kF64 = static_cast<std::int64_t>(kernelgen::DType::F64);
constexpr auto kF16 = static_cast<std::int64_t>(kernelgen::DType::F16);
BENCHMARK(BM_KernelFastPath)
    ->ArgNames({"dtype", "ms", "ka", "na"})
    ->Args({kF32, 8, 512, 96})
    ->Args({kF32, 12, 512, 32})
    ->Args({kF32, 16, 255, 17})
    ->Args({kF64, 8, 256, 48})
    ->Args({kF16, 8, 512, 64});

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
