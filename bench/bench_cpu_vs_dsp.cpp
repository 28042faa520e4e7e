// Fig. 7: efficiency of irregular-shaped GEMMs — ftIMM on the (simulated)
// GPDSP cluster vs an OpenBLAS-style blocked SGEMM on the host CPU.
//
// The paper compares *efficiency* (achieved / device peak) because the two
// devices have different peaks. Here the DSP side uses simulated cycles
// against the published 2764.8 GFlops cluster peak, and the CPU side uses
// wall-clock throughput of our packed multi-threaded SGEMM against the
// host's measured FMA peak — the same methodology, so the ratio is
// meaningful even though the absolute hardware differs from the paper's
// 16-core ARMv8.
//
// Flags: --full runs type III at the paper's M=K=20480 (slow on modest
// hosts); the default uses 10240. --reps N averages CPU timings.
#include <chrono>
#include <cstdio>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/cpu/peak.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/reporter.hpp"
#include "ftm/util/task_pool.hpp"
#include "ftm/workload/generators.hpp"
#include "ftm/workload/sweeps.hpp"

using namespace ftm;
using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;

namespace {

double time_cpu_gemm(workload::GemmProblem& p, TaskPool& pool,
                     int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    p.c.fill(0.0f);
    const auto t0 = std::chrono::steady_clock::now();
    cpu::cpu_gemm(p.a.view(), p.b.view(), p.c.view(), &pool);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, dt);
  }
  return best;
}

void run_panel(core::FtimmEngine& eng, TaskPool& pool,
               double cpu_peak_gflops, const char* title,
               const std::vector<workload::GemmShape>& shapes, int reps,
               Table& all, const char* panel) {
  Table t({"M", "N", "K", "DSP GFlops", "DSP eff", "CPU GFlops", "CPU eff",
           "eff ratio"});
  const double dsp_peak = eng.machine().cluster_peak_gflops();
  for (const auto& s : shapes) {
    FtimmOptions opt;
    opt.cores = 8;
    opt.functional = false;
    const GemmResult dsp =
        eng.sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
    const double dsp_eff = dsp.gflops / dsp_peak;

    workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 5);
    const double secs = time_cpu_gemm(p, pool, reps);
    const double cpu_gflops = p.flops() / secs / 1e9;
    const double cpu_eff = cpu_gflops / cpu_peak_gflops;

    t.begin_row()
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(dsp.gflops, 1)
        .cell(dsp_eff, 3)
        .cell(cpu_gflops, 1)
        .cell(cpu_eff, 3)
        .cell(dsp_eff / cpu_eff, 2);
    all.begin_row()
        .cell(panel)
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(dsp_eff, 4)
        .cell(cpu_eff, 4)
        .cell(dsp_eff / cpu_eff, 2);
  }
  t.print(title);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 2));
  const bool full = cli.get_bool("full", false);

  core::FtimmEngine eng;
  TaskPool pool;
  print_banner("Measuring host CPU FP32 peak");
  const double cpu_peak = cpu::measure_peak_gflops(pool);
  std::printf("Host peak (FMA microbenchmark, %u threads): %.1f GFlops\n",
              pool.parallelism(), cpu_peak);
  std::printf("Simulated GPDSP cluster peak: %.1f GFlops\n",
              eng.machine().cluster_peak_gflops());

  Table all({"panel", "M", "N", "K", "dsp_eff", "cpu_eff", "ratio"});
  run_panel(eng, pool, cpu_peak, "Fig. 7(a): type I (M=20480, N=K sweep)",
            workload::fig7_type1(), reps, all, "a");
  run_panel(eng, pool, cpu_peak, "Fig. 7(b): type II (K=20480, M=N sweep)",
            workload::fig7_type2(), reps, all, "b");

  std::vector<workload::GemmShape> t3 = workload::fig7_type3();
  if (!full) {
    for (auto& s : t3) {
      s.m = 10240;
      s.k = 10240;
    }
  }
  run_panel(eng, pool, cpu_peak,
            full ? "Fig. 7(c): type III (M=K=20480, N sweep)"
                 : "Fig. 7(c): type III (M=K=10240, N sweep; --full for "
                   "20480)",
            t3, reps, all, "c");
  all.write_csv("fig7_cpu_vs_dsp.csv");
  std::printf("CSV written to fig7_cpu_vs_dsp.csv\n");
  return 0;
}
