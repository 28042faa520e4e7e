#include <gtest/gtest.h>

#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/cpu/peak.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/util/task_pool.hpp"

namespace ftm::cpu {
namespace {

TEST(ReferenceGemm, KnownSmallCase) {
  HostMatrix a(2, 3), b(3, 2), c(2, 2);
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  c.fill(1.0f);
  reference_gemm(a.view(), b.view(), c.view());
  EXPECT_FLOAT_EQ(c.at(0, 0), 1 + 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 1 + 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 1 + 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 1 + 154);
}

TEST(ReferenceGemm, ShapeMismatchThrows) {
  HostMatrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(reference_gemm(a.view(), b.view(), c.view()),
               ContractViolation);
}

class CpuGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CpuGemmShapes, MatchesReference) {
  const auto [m, n, k] = GetParam();
  Prng rng(m * 7 + n * 11 + k * 13);
  HostMatrix a(m, k), b(k, n), c(m, n), expect(m, n);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) expect.at(i, j) = c.at(i, j);
  reference_gemm(a.view(), b.view(), expect.view());

  TaskPool pool(4);
  cpu_gemm(a.view(), b.view(), c.view(), &pool);
  EXPECT_LT(max_rel_diff(c.view(), expect.view()), gemm_tolerance(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuGemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{8, 16, 8},
                      std::tuple{17, 19, 23}, std::tuple{64, 64, 64},
                      std::tuple{100, 96, 300}, std::tuple{333, 32, 33},
                      std::tuple{512, 8, 512}, std::tuple{40, 130, 70},
                      std::tuple{2048, 16, 16}, std::tuple{16, 16, 2048}));

TEST(CpuGemm, SingleThreadedPathMatches) {
  Prng rng(5);
  HostMatrix a(70, 40), b(40, 50), c(70, 50), expect(70, 50);
  a.fill_random(rng);
  b.fill_random(rng);
  reference_gemm(a.view(), b.view(), expect.view());
  cpu_gemm(a.view(), b.view(), c.view(), nullptr);
  EXPECT_LT(max_rel_diff(c.view(), expect.view()), gemm_tolerance(40));
}

TEST(CpuGemm, PoolSizeDoesNotChangeBits) {
  // Each row chunk runs the same packed loop nest, so C is bit-identical
  // however many pool threads split the rows.
  Prng rng(9);
  HostMatrix a(203, 57), b(57, 45), serial(203, 45);
  a.fill_random(rng);
  b.fill_random(rng);
  cpu_gemm(a.view(), b.view(), serial.view(), nullptr);
  for (const unsigned threads : {2u, 3u, 7u}) {
    TaskPool pool(threads);
    HostMatrix c(203, 45);
    cpu_gemm(a.view(), b.view(), c.view(), &pool);
    for (std::size_t i = 0; i < c.rows(); ++i) {
      for (std::size_t j = 0; j < c.cols(); ++j) {
        ASSERT_EQ(c.at(i, j), serial.at(i, j))
            << threads << " threads, (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(Peak, MeasurementIsPositiveAndStable) {
  const double p1 = measure_single_core_peak_gflops(0.02);
  EXPECT_GT(p1, 0.1);
  TaskPool pool(2);
  const double pa = measure_peak_gflops(pool, 0.03);
  // Aggregate throughput of two threads must at least resemble one core's
  // (loose: CI machines can be heavily shared).
  EXPECT_GT(pa, p1 * 0.3);
}

}  // namespace
}  // namespace ftm::cpu
