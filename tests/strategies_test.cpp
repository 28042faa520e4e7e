#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ftm/core/dgemm.hpp"
#include "ftm/core/ftimm.hpp"
#include "ftm/core/hgemm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/util/task_pool.hpp"
#include "ftm/workload/generators.hpp"

namespace ftm::core {
namespace {

using kernelgen::DType;

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

// --- Pinned C bits ----------------------------------------------------------

/// FNV-1a over the bytes of `n` elements.
template <typename T>
std::uint64_t fnv1a(const T* p, std::size_t n) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n * sizeof(T); ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Operand bits straight from the Prng: random sign and mantissa, the
/// exponent of [0.5, 1). No host FP arithmetic runs before the GEMM, so
/// the pinned hashes below hold on every host SIMD tier.
std::uint32_t f32_bits(Prng& r) {
  return (static_cast<std::uint32_t>(r.next_u64()) & 0x807FFFFFu) |
         0x3F000000u;
}

std::uint64_t f64_bits(Prng& r) {
  return (r.next_u64() & 0x800FFFFFFFFFFFFFull) | 0x3FE0000000000000ull;
}

std::uint16_t half_bits(Prng& r, DType dt) {
  const auto u = static_cast<std::uint16_t>(r.next_u64());
  return dt == DType::F16 ? static_cast<std::uint16_t>((u & 0x83FF) | 0x3800)
                          : static_cast<std::uint16_t>((u & 0x807F) | 0x3F00);
}

template <typename T, typename Bits>
std::vector<T> operand(std::size_t n, Bits bits) {
  std::vector<T> v(n);
  for (auto& x : v) {
    const auto u = bits();
    static_assert(sizeof(u) == sizeof(T));
    std::memcpy(&x, &u, sizeof(T));
  }
  return v;
}

/// One GEMM of `s` at `dt` through strategy `force`; returns the hash of C.
std::uint64_t c_hash(Strategy force, DType dt, const Shape& s,
                     const FtimmOptions& base) {
  FtimmEngine eng;
  FtimmOptions opt = base;
  opt.force = force;
  Prng r(s.m * 131 + s.n * 7 + s.k);
  if (dt == DType::F64) {
    const auto a = operand<double>(s.m * s.k, [&] { return f64_bits(r); });
    const auto b = operand<double>(s.k * s.n, [&] { return f64_bits(r); });
    auto c = operand<double>(s.m * s.n, [&] { return f64_bits(r); });
    dgemm(eng,
          DGemmInput::bound(a.data(), b.data(), c.data(), s.m, s.n, s.k),
          opt);
    return fnv1a(c.data(), c.size());
  }
  if (dt == DType::F16 || dt == DType::BF16) {
    const auto a = operand<std::uint16_t>(s.m * s.k,
                                          [&] { return half_bits(r, dt); });
    const auto b = operand<std::uint32_t>(s.k / 2 * s.n, [&] {
      const std::uint32_t lo = half_bits(r, dt);
      return lo | static_cast<std::uint32_t>(half_bits(r, dt)) << 16;
    });
    auto c = operand<float>(s.m * s.n, [&] { return f32_bits(r); });
    HGemmInput in = HGemmInput::shape_only(s.m, s.n, s.k, dt);
    in.a = a.data();
    in.b = b.data();
    in.c = c.data();
    in.lda = s.k;
    in.ldb = s.n;
    in.ldc = s.n;
    hgemm(eng, in, opt);
    return fnv1a(c.data(), c.size());
  }
  const auto a = operand<float>(s.m * s.k, [&] { return f32_bits(r); });
  const auto b = operand<float>(s.k * s.n, [&] { return f32_bits(r); });
  auto c = operand<float>(s.m * s.n, [&] { return f32_bits(r); });
  eng.sgemm(GemmInput::bound(ConstMatrixView(a.data(), s.m, s.k),
                             ConstMatrixView(b.data(), s.k, s.n),
                             MatrixView(c.data(), s.m, s.n)),
            opt);
  return fnv1a(c.data(), c.size());
}

// The C bits of every strategy loop nest on ragged shapes, at 1 and 8
// cores, inline and on a 4-thread host pool, are pinned: a refactor of
// the loop nests, the DMA path or the host kernels that moves one output
// bit fails here. F64 runs at most 48 columns wide and F16/BF16 at most
// 96 with K a multiple of 4 (the dgemm/hgemm contracts).
TEST(PinnedBits, CHashesMatchPinnedConstants) {
  struct Pin {
    Strategy force;
    DType dtype;
    Shape shape;
    int cores;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {Strategy::ParallelM, DType::F32, {333, 64, 700}, 1,
       0x5d451210d8446f1cull},
      {Strategy::ParallelM, DType::F32, {333, 64, 700}, 8,
       0x5d451210d8446f1cull},
      {Strategy::ParallelM, DType::F32, {1000, 48, 800}, 1,
       0xa3b14bd1af39c251ull},
      {Strategy::ParallelM, DType::F32, {1000, 48, 800}, 8,
       0xa3b14bd1af39c251ull},
      {Strategy::ParallelM, DType::F32, {70, 250, 36}, 1,
       0x1b3b6bb3f54c1254ull},
      {Strategy::ParallelM, DType::F32, {70, 250, 36}, 8,
       0x1b3b6bb3f54c1254ull},
      {Strategy::ParallelK, DType::F32, {333, 64, 700}, 1,
       0x6cb74ed9efabe74dull},
      {Strategy::ParallelK, DType::F32, {333, 64, 700}, 8,
       0x064e1ce7ff26db41ull},
      {Strategy::ParallelK, DType::F32, {1000, 48, 800}, 1,
       0x61b20d7283094a11ull},
      {Strategy::ParallelK, DType::F32, {1000, 48, 800}, 8,
       0xe3be0579e0f76a01ull},
      {Strategy::ParallelK, DType::F32, {70, 250, 36}, 1,
       0x795cf73e881c8ff7ull},
      {Strategy::ParallelK, DType::F32, {70, 250, 36}, 8,
       0x11c8672e89106694ull},
      {Strategy::TGemm, DType::F32, {333, 64, 700}, 1,
       0x4e454686b11e7d46ull},
      {Strategy::TGemm, DType::F32, {333, 64, 700}, 8,
       0x4e454686b11e7d46ull},
      {Strategy::TGemm, DType::F32, {1000, 48, 800}, 1,
       0xc40926591379a830ull},
      {Strategy::TGemm, DType::F32, {1000, 48, 800}, 8,
       0xc40926591379a830ull},
      {Strategy::TGemm, DType::F32, {70, 250, 36}, 1,
       0x2e3a2ce5e127653eull},
      {Strategy::TGemm, DType::F32, {70, 250, 36}, 8,
       0x2e3a2ce5e127653eull},
      {Strategy::ParallelM, DType::F64, {333, 48, 700}, 1,
       0x216b380fcf53bb74ull},
      {Strategy::ParallelM, DType::F64, {333, 48, 700}, 8,
       0x216b380fcf53bb74ull},
      {Strategy::ParallelM, DType::F64, {1000, 48, 800}, 1,
       0x5e44b6a02b36a30cull},
      {Strategy::ParallelM, DType::F64, {1000, 48, 800}, 8,
       0x5e44b6a02b36a30cull},
      {Strategy::ParallelM, DType::F64, {70, 40, 36}, 1,
       0x98d3eda7fc5bc93eull},
      {Strategy::ParallelM, DType::F64, {70, 40, 36}, 8,
       0x98d3eda7fc5bc93eull},
      {Strategy::ParallelM, DType::F16, {333, 64, 700}, 1,
       0x2e28ece94fd1d601ull},
      {Strategy::ParallelM, DType::F16, {333, 64, 700}, 8,
       0x2e28ece94fd1d601ull},
      {Strategy::ParallelM, DType::F16, {1000, 48, 800}, 1,
       0x6312ef50d2c41101ull},
      {Strategy::ParallelM, DType::F16, {1000, 48, 800}, 8,
       0x6312ef50d2c41101ull},
      {Strategy::ParallelM, DType::F16, {70, 96, 36}, 1,
       0xa68eedf220cbd9eaull},
      {Strategy::ParallelM, DType::F16, {70, 96, 36}, 8,
       0xa68eedf220cbd9eaull},
      {Strategy::ParallelM, DType::BF16, {333, 64, 700}, 1,
       0x7b4d074ccd9c1837ull},
      {Strategy::ParallelM, DType::BF16, {333, 64, 700}, 8,
       0x7b4d074ccd9c1837ull},
      {Strategy::ParallelM, DType::BF16, {1000, 48, 800}, 1,
       0xcd99105de0ebb9bdull},
      {Strategy::ParallelM, DType::BF16, {1000, 48, 800}, 8,
       0xcd99105de0ebb9bdull},
      {Strategy::ParallelM, DType::BF16, {70, 96, 36}, 1,
       0x2baa8a3982e7c15full},
      {Strategy::ParallelM, DType::BF16, {70, 96, 36}, 8,
       0x2baa8a3982e7c15full},
  };
  TaskPool pool(4);
  for (const Pin& p : pins) {
    for (TaskPool* host_pool : {static_cast<TaskPool*>(nullptr), &pool}) {
      FtimmOptions opt;
      opt.cores = p.cores;
      opt.host_pool = host_pool;
      EXPECT_EQ(c_hash(p.force, p.dtype, p.shape, opt), p.hash)
          << to_string(p.force) << " " << kernelgen::to_string(p.dtype)
          << " " << p.shape.m << "x" << p.shape.n << "x" << p.shape.k
          << " cores=" << p.cores << " pool=" << (host_pool != nullptr);
    }
  }
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
