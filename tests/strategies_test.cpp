#include <gtest/gtest.h>

#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/workload/generators.hpp"

namespace ftm::core {
namespace {

/// Shared engine: kernel calibration is memoized across tests.
FtimmEngine& engine() {
  static FtimmEngine e;
  return e;
}

struct Shape {
  std::size_t m, n, k;
};

GemmResult run_and_check(Strategy force, const Shape& s, int cores,
                         bool dynamic = true) {
  workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 101);
  HostMatrix expect(s.m, s.n);
  for (std::size_t i = 0; i < s.m; ++i)
    for (std::size_t j = 0; j < s.n; ++j) expect.at(i, j) = p.c.at(i, j);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());

  FtimmOptions opt;
  opt.cores = cores;
  opt.force = force;
  opt.dynamic_blocks = dynamic;
  const GemmInput in = GemmInput::bound(p.a.view(), p.b.view(), p.c.view());
  const GemmResult r = force == Strategy::TGemm ? engine().tgemm(in, opt)
                                                : engine().sgemm(in, opt);
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(s.k))
      << "m=" << s.m << " n=" << s.n << " k=" << s.k
      << " strat=" << to_string(force) << " cores=" << cores;
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.gflops, 0.0);
  return r;
}

// --- Numerical correctness across strategies / shapes / core counts --------

class TgemmShapes : public ::testing::TestWithParam<Shape> {};
TEST_P(TgemmShapes, MatchesReference) {
  run_and_check(Strategy::TGemm, GetParam(), 8);
}
INSTANTIATE_TEST_SUITE_P(
    Shapes, TgemmShapes,
    ::testing::Values(Shape{64, 96, 64}, Shape{512, 96, 512},
                      Shape{600, 200, 300},  // N > 96: multiple t blocks
                      Shape{1024, 32, 64}, Shape{100, 8, 700},
                      Shape{513, 97, 513},  // every dimension ragged
                      Shape{6, 96, 512}, Shape{1, 1, 1}));

class StrategyMShapes : public ::testing::TestWithParam<Shape> {};
TEST_P(StrategyMShapes, MatchesReference) {
  run_and_check(Strategy::ParallelM, GetParam(), 8);
}
INSTANTIATE_TEST_SUITE_P(
    Shapes, StrategyMShapes,
    ::testing::Values(Shape{4096, 32, 32}, Shape{2048, 96, 96},
                      Shape{1000, 17, 33},  // ragged
                      Shape{4096, 8, 8}, Shape{2048, 64, 2048},
                      Shape{300, 96, 5000}, Shape{100, 32, 32},
                      Shape{64, 1, 1}, Shape{9, 9, 9}));

class StrategyKShapes : public ::testing::TestWithParam<Shape> {};
TEST_P(StrategyKShapes, MatchesReference) {
  run_and_check(Strategy::ParallelK, GetParam(), 8);
}
INSTANTIATE_TEST_SUITE_P(
    Shapes, StrategyKShapes,
    ::testing::Values(Shape{32, 32, 8192}, Shape{64, 64, 4096},
                      Shape{32, 32, 100000},  // huge ragged K
                      Shape{16, 8, 2048}, Shape{96, 96, 2048},
                      Shape{33, 17, 999}, Shape{8, 8, 8}));

TEST(Strategies, SingleCoreMatchesReference) {
  for (const Shape s : {Shape{512, 32, 512}, Shape{32, 32, 4096}}) {
    run_and_check(Strategy::ParallelM, s, 1);
    run_and_check(Strategy::ParallelK, s, 1);
    run_and_check(Strategy::TGemm, s, 1);
  }
}

TEST(Strategies, IntermediateCoreCounts) {
  for (int cores : {2, 3, 5, 7}) {
    run_and_check(Strategy::ParallelM, Shape{2048, 32, 32}, cores);
    run_and_check(Strategy::ParallelK, Shape{32, 32, 4096}, cores);
  }
}

TEST(Strategies, StaticBlocksAlsoCorrect) {
  run_and_check(Strategy::ParallelM, Shape{2048, 32, 32}, 8,
                /*dynamic=*/false);
  run_and_check(Strategy::ParallelK, Shape{32, 32, 8192}, 8,
                /*dynamic=*/false);
}

TEST(Strategies, PingPongAblationPreservesResults) {
  workload::GemmProblem p = workload::make_problem(1024, 32, 32, 55);
  HostMatrix expect(1024, 32);
  for (std::size_t i = 0; i < 1024; ++i)
    for (std::size_t j = 0; j < 32; ++j) expect.at(i, j) = p.c.at(i, j);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
  FtimmOptions opt;
  opt.pingpong = false;
  opt.force = Strategy::ParallelM;
  const GemmResult r = engine().sgemm(
      GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(32));
  // Without overlap the same work must take at least as long.
  workload::GemmProblem q = workload::make_problem(1024, 32, 32, 55);
  FtimmOptions on = opt;
  on.pingpong = true;
  const GemmResult r2 = engine().sgemm(
      GemmInput::bound(q.a.view(), q.b.view(), q.c.view()), on);
  EXPECT_GE(r.cycles, r2.cycles);
}

TEST(Strategies, TimingOnlyAgreesWithFunctionalCycles) {
  const Shape s{2048, 32, 64};
  workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 77);
  FtimmOptions opt;
  opt.force = Strategy::ParallelM;
  const GemmResult rf = engine().sgemm(
      GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
  opt.functional = false;
  const GemmResult rt =
      engine().sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
  EXPECT_EQ(rf.cycles, rt.cycles);
  EXPECT_EQ(rf.ddr_bytes, rt.ddr_bytes);
  EXPECT_EQ(rf.kernel_calls, rt.kernel_calls);
}

// --- Dispatcher -------------------------------------------------------------

TEST(Dispatcher, PaperShapeRouting) {
  FtimmEngine& e = engine();
  // Type I (tall x small) and type III (regular x tall-skinny): M strategy.
  EXPECT_EQ(e.choose_strategy(20480, 32, 32), Strategy::ParallelM);
  EXPECT_EQ(e.choose_strategy(1 << 22, 32, 32), Strategy::ParallelM);
  EXPECT_EQ(e.choose_strategy(20480, 32, 20480), Strategy::ParallelM);
  // Type II (skinny-tall x tall-skinny): K strategy.
  EXPECT_EQ(e.choose_strategy(32, 32, 1 << 16), Strategy::ParallelK);
  EXPECT_EQ(e.choose_strategy(32, 32, 20480), Strategy::ParallelK);
  // Wide N: traditional path.
  EXPECT_EQ(e.choose_strategy(4096, 4096, 4096), Strategy::TGemm);
}

TEST(Dispatcher, AutoRunsAndMatchesReference) {
  for (const Shape s :
       {Shape{8192, 32, 32}, Shape{32, 32, 8192}, Shape{2048, 32, 2048}}) {
    workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 31);
    HostMatrix expect(s.m, s.n);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j) expect.at(i, j) = p.c.at(i, j);
    cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
    const GemmResult r = engine().sgemm(
        GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
    EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(s.k));
    EXPECT_NE(r.strategy, Strategy::Auto);
  }
}

TEST(Dispatcher, AutotunerPicksNoWorseThanAnalytic) {
  const Shape s{4096, 32, 32};
  FtimmOptions opt;
  opt.functional = false;
  const GemmResult analytic =
      engine().sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
  const GemmResult tuned =
      engine().sgemm_autotuned(GemmInput::shape_only(s.m, s.n, s.k), opt);
  EXPECT_LE(tuned.cycles, analytic.cycles);
}

// --- Performance-shape assertions (the paper's headline claims) -----------

TEST(Performance, FtimmBeatsTgemmOnTallSkinny) {
  // Fig. 5(a): with N=K=32 and large M, ftIMM uses all 8 cores while TGEMM
  // is stuck on one; a multiple-x speedup must appear.
  FtimmOptions opt;
  opt.functional = false;
  const GemmInput in = GemmInput::shape_only(1 << 16, 32, 32);
  const GemmResult ft = engine().sgemm(in, opt);
  FtimmOptions topt = opt;
  const GemmResult tg = engine().tgemm(in, topt);
  EXPECT_LT(ft.cycles * 2, tg.cycles)
      << "ftIMM " << ft.gflops << " vs TGEMM " << tg.gflops;
}

TEST(Performance, FtimmBeatsTgemmOnSkinnyTall) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmInput in = GemmInput::shape_only(32, 32, 1 << 16);
  const GemmResult ft = engine().sgemm(in, opt);
  const GemmResult tg = engine().tgemm(in, opt);
  EXPECT_LT(ft.cycles, tg.cycles);
}

TEST(Performance, MultiCoreScalesForTypeOne) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmInput in = GemmInput::shape_only(1 << 18, 32, 32);
  opt.cores = 1;
  const GemmResult c1 = engine().sgemm(in, opt);
  opt.cores = 8;
  const GemmResult c8 = engine().sgemm(in, opt);
  const double speedup =
      static_cast<double>(c1.cycles) / static_cast<double>(c8.cycles);
  EXPECT_GT(speedup, 1.5);   // memory-bound: not 8x (paper Fig. 6)
  EXPECT_LT(speedup, 8.01);
}

TEST(Performance, UnderRoofline) {
  FtimmOptions opt;
  opt.functional = false;
  const GemmInput in = GemmInput::shape_only(1 << 18, 32, 32);
  const GemmResult r = engine().sgemm(in, opt);
  EXPECT_LE(r.gflops, engine().roofline(in.m, in.n, in.k, 8) * 1.001);
}

}  // namespace
}  // namespace ftm::core
