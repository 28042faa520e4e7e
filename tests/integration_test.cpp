// End-to-end integration tests: application workloads through the full
// stack (workload generator -> engine -> simulated cluster -> verification),
// engine lifecycle, resource accounting, and cross-strategy consistency.
#include <gtest/gtest.h>


#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/tune/tuner.hpp"
#include "ftm/workload/generators.hpp"
#include "ftm/workload/sweeps.hpp"

namespace ftm {
namespace {

using core::FtimmEngine;
using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;
using core::Strategy;

FtimmEngine& engine() {
  static FtimmEngine e;
  return e;
}

HostMatrix reference_of(const workload::GemmProblem& p) {
  HostMatrix expect(p.m, p.n);
  for (std::size_t i = 0; i < p.m; ++i)
    for (std::size_t j = 0; j < p.n; ++j) expect.at(i, j) = p.c.at(i, j);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
  return expect;
}

TEST(Workloads, KmeansDistanceGemmEndToEnd) {
  workload::KmeansShape shape{8192, 32, 16};
  workload::GemmProblem p = workload::make_kmeans_gemm(shape);
  const HostMatrix expect = reference_of(p);
  const GemmResult r = engine().sgemm(
      GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
  EXPECT_EQ(r.strategy, Strategy::ParallelM);  // type I
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(p.k));
}

TEST(Workloads, Im2colConvGemmEndToEnd) {
  workload::ConvLayer l;
  l.batch = 1;
  l.in_ch = 3;
  l.height = l.width = 32;
  l.out_ch = 24;
  workload::GemmProblem p = workload::make_im2col_gemm(l);
  const HostMatrix expect = reference_of(p);
  const GemmResult r = engine().sgemm(
      GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(p.k));
  EXPECT_GT(r.gflops, 0);
}

TEST(Workloads, DeepConvLayerUsesLargerK) {
  // Deeper layers grow K; the engine must handle K > k_a blocks cleanly.
  workload::ConvLayer l;
  l.batch = 1;
  l.in_ch = 96;
  l.height = l.width = 8;
  l.out_ch = 32;
  workload::GemmProblem p = workload::make_im2col_gemm(l);
  ASSERT_EQ(p.k, 96u * 9);
  const HostMatrix expect = reference_of(p);
  engine().sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(p.k));
}

TEST(Engine, ReusableAcrossManyCalls) {
  // One engine, many shapes: scratch provisioning must fully reset.
  for (int round = 0; round < 3; ++round) {
    for (const auto& s :
         {workload::GemmShape{1024, 32, 64}, workload::GemmShape{64, 64, 2048},
          workload::GemmShape{256, 96, 256}}) {
      workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k,
                                                       round * 100 + s.n);
      const HostMatrix expect = reference_of(p);
      engine().sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
      ASSERT_LT(max_rel_diff(p.c.view(), expect.view()),
                gemm_tolerance(s.k));
    }
  }
}

TEST(Engine, KernelCacheGrowsThenStabilizes) {
  FtimmEngine local;
  FtimmOptions opt;
  opt.functional = false;
  local.sgemm(GemmInput::shape_only(4096, 32, 32), opt);
  const std::size_t after_first = local.kernels().generated();
  EXPECT_GT(after_first, 0u);
  local.sgemm(GemmInput::shape_only(4096, 32, 32), opt);
  EXPECT_EQ(local.kernels().generated(), after_first);  // all hits now
  EXPECT_GT(local.kernels().hits(), 0u);
}

TEST(Engine, GemmResultAccountingConsistency) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmResult r =
      engine().sgemm(GemmInput::shape_only(8192, 32, 64), opt);
  EXPECT_NEAR(r.seconds,
              static_cast<double>(r.cycles) /
                  (engine().machine().freq_ghz * 1e9),
              1e-12);
  const double flops = 2.0 * 8192 * 32 * 64;
  EXPECT_NEAR(r.gflops, flops / r.seconds / 1e9, 1e-6);
  EXPECT_NEAR(r.efficiency,
              r.gflops / (8 * engine().machine().core_peak_gflops()), 1e-9);
  EXPECT_GT(r.kernel_calls, 0u);
}

TEST(Accounting, DdrTrafficAtLeastCompulsory) {
  // The model must move at least the compulsory traffic (A + B read, C
  // read+write) and not absurdly more.
  for (const auto& s :
       {workload::GemmShape{8192, 32, 32}, workload::GemmShape{32, 32, 8192},
        workload::GemmShape{4096, 32, 4096}}) {
    FtimmOptions opt;
    opt.functional = false;
    const GemmResult r =
        engine().sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
    const double compulsory = core::min_ddr_bytes(s.m, s.n, s.k);
    EXPECT_GE(static_cast<double>(r.ddr_bytes), compulsory * 0.99)
        << s.m << "x" << s.n << "x" << s.k;
    EXPECT_LE(static_cast<double>(r.ddr_bytes), compulsory * 20.0)
        << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(Accounting, TypeOneTrafficNearCompulsory) {
  // For tall-x-small with K <= k_a, A is streamed exactly once and B is
  // cached in GSM: traffic should be close to compulsory.
  FtimmOptions opt;
  opt.functional = false;
  const GemmResult r =
      engine().sgemm(GemmInput::shape_only(1 << 18, 32, 32), opt);
  const double compulsory = core::min_ddr_bytes(1 << 18, 32, 32);
  EXPECT_LT(static_cast<double>(r.ddr_bytes), compulsory * 1.2);
}

TEST(Consistency, AllStrategiesAgreeNumerically) {
  // Same problem through all three algorithms: results must agree with
  // each other within accumulation-order tolerance.
  const std::size_t m = 512, n = 32, k = 512;
  HostMatrix results[3];
  int idx = 0;
  for (Strategy s :
       {Strategy::ParallelM, Strategy::ParallelK, Strategy::TGemm}) {
    workload::GemmProblem p = workload::make_problem(m, n, k, 77);
    FtimmOptions opt;
    opt.force = s;
    if (s == Strategy::TGemm) {
      engine().tgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()),
                     opt);
    } else {
      engine().sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()),
                     opt);
    }
    results[idx] = HostMatrix(m, n);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        results[idx].at(i, j) = p.c.at(i, j);
    ++idx;
  }
  EXPECT_LT(max_rel_diff(results[0].view(), results[1].view()),
            gemm_tolerance(k));
  EXPECT_LT(max_rel_diff(results[0].view(), results[2].view()),
            gemm_tolerance(k));
}

TEST(Consistency, RepeatedRunsBitIdentical) {
  // The simulator is deterministic: two functional runs of the same
  // problem must agree bit for bit (same strategy, same blocks).
  workload::GemmProblem p1 = workload::make_problem(2048, 32, 64, 9);
  workload::GemmProblem p2 = workload::make_problem(2048, 32, 64, 9);
  engine().sgemm(GemmInput::bound(p1.a.view(), p1.b.view(), p1.c.view()));
  engine().sgemm(GemmInput::bound(p2.a.view(), p2.b.view(), p2.c.view()));
  for (std::size_t i = 0; i < p1.m; ++i)
    for (std::size_t j = 0; j < p1.n; ++j)
      ASSERT_EQ(p1.c.at(i, j), p2.c.at(i, j)) << i << "," << j;
}

TEST(Consistency, CyclesMonotoneInWork) {
  FtimmOptions opt;
  opt.functional = false;
  const auto r1 = engine().sgemm(GemmInput::shape_only(4096, 32, 32), opt);
  const auto r2 = engine().sgemm(GemmInput::shape_only(8192, 32, 32), opt);
  const auto r3 = engine().sgemm(GemmInput::shape_only(8192, 64, 32), opt);
  EXPECT_LT(r1.cycles, r2.cycles);
  EXPECT_LT(r2.cycles, r3.cycles);
}

TEST(Regression, KStrategyWithFewerBlocksThanCores) {
  // nkb < cores: idle cores must not contribute stale partials to the
  // reduction (regression for the staged-reduction worker bug). Run twice
  // with different data so stale GSM staging from run 1 would corrupt
  // run 2 if workers were miscounted.
  for (std::uint64_t seed : {11u, 12u}) {
    workload::GemmProblem p = workload::make_problem(16, 16, 64, seed);
    const HostMatrix expect = reference_of(p);
    FtimmOptions opt;
    opt.force = Strategy::ParallelK;
    engine().sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()),
                   opt);
    ASSERT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(64));
  }
}

TEST(Regression, TgemmWideNUsesMultipleCores) {
  // N=384 -> 4 t-blocks: 4 workers share bandwidth; must beat N=96's one
  // worker per unit of work.
  FtimmOptions opt;
  opt.functional = false;
  const auto wide = engine().tgemm(GemmInput::shape_only(2048, 384, 512), opt);
  const auto narrow =
      engine().tgemm(GemmInput::shape_only(2048, 96, 512), opt);
  // 4x the work in clearly less than 4x the time.
  EXPECT_LT(static_cast<double>(wide.cycles),
            3.0 * static_cast<double>(narrow.cycles));
}

TEST(Autotuner, MatchesReferenceAndReportsStrategy) {
  // The tuner's plan for a shape (strategy and block sizes raced in
  // timing-only mode) runs functionally to the analytic plan's tolerance.
  workload::GemmProblem p = workload::make_problem(4096, 32, 32, 3);
  const HostMatrix expect = reference_of(p);
  const tune::TuneReport rep = tune::Tuner().tune(p.m, p.n, p.k);
  FtimmOptions opt;
  opt.pingpong = rep.pingpong;
  FtimmEngine eng;
  const GemmResult r = eng.sgemm_planned(
      GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), rep.plan, opt);
  EXPECT_EQ(r.strategy, rep.plan.strategy);
  EXPECT_NE(r.strategy, Strategy::Auto);
  EXPECT_EQ(r.cycles, rep.tuned_cycles);
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(32));
}

TEST(Roofline, AllMeasuredPointsUnderRoof) {
  FtimmOptions opt;
  opt.functional = false;
  for (const auto& s : workload::fig5a(1 << 14)) {
    const GemmResult r =
        engine().sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
    EXPECT_LE(r.gflops, engine().roofline(s.m, s.n, s.k, 8) * 1.001)
        << s.m << "x" << s.n << "x" << s.k;
  }
}

}  // namespace
}  // namespace ftm
