#include <gtest/gtest.h>

#include "ftm/core/blocking.hpp"
#include "ftm/core/roofline.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::core {
namespace {

const isa::MachineConfig& mc() { return isa::default_machine(); }

TEST(Cmr, MatchesPaperEquationsAtPaperBlocks) {
  // Eq. 2 with the paper's M-strategy blocks (ma=320, ka=864, na=96, 8
  // cores) — just validate the algebra against a hand evaluation.
  const double f2 = cmr_m_inner(320, 864, 96, 8);
  const double expect =
      2.0 * 320 * 864 * 96 * 8 / (8.0 * 320 * (864 + 2 * 96) + 864.0 * 96);
  EXPECT_DOUBLE_EQ(f2, expect);
  EXPECT_GT(f2, 0);
}

TEST(Cmr, GrowsWithBlockSize) {
  EXPECT_GT(cmr_m_inner(320, 864, 96, 8), cmr_m_inner(160, 864, 96, 8));
  EXPECT_GT(cmr_k_inner(1024, 512, 96, 8), cmr_k_inner(1024, 256, 96, 8));
}

TEST(Blocks, PaperMBlocksFitHardware) {
  // The paper's published initial blocks must satisfy our capacity audit.
  MBlocks b;  // defaults are the paper's §IV-C values
  EXPECT_NO_THROW(check_m_blocks(b, mc()));
}

TEST(Blocks, PaperTgemmBlocksFitHardware) {
  TBlocks b;
  EXPECT_NO_THROW(check_t_blocks(b, mc()));
}

TEST(Blocks, OverflowingBlocksRejected) {
  MBlocks b;
  b.ka = 2048;  // 2*2048*96*4 = 1.5 MB > AM already with ma
  EXPECT_THROW(check_m_blocks(b, mc()), ContractViolation);
  TBlocks tb;
  tb.kg = 4096;  // SM: 2*6*4096*4 = 196 KB > 64 KB
  EXPECT_THROW(check_t_blocks(tb, mc()), ContractViolation);
}

TEST(Blocks, FixedMBlocksFitEveryLayout) {
  // The dgemm/hgemm blocks pass the layout-aware audit across the shape
  // taxonomy, and half K tiles keep whole k pairs (ka a multiple of 4).
  for (const kernelgen::DType dt :
       {kernelgen::DType::F64, kernelgen::DType::F16}) {
    const ElemLayout l = elem_layout(dt);
    const std::size_t ms[] = {1, 17, 4096, 262144};
    const std::size_t ns[] = {1, 32, l.na_max()};
    const std::size_t ks[] = {4, 36, 512, 262144};
    for (const std::size_t m : ms)
      for (const std::size_t n : ns)
        for (const std::size_t k : ks) {
          const MBlocks b = fixed_m_blocks(m, n, k, 8, mc(), l);
          EXPECT_NO_THROW(check_m_blocks(b, mc(), l))
              << m << "x" << n << "x" << k;
          EXPECT_EQ(b.na, n);
          EXPECT_EQ(b.ka % (l.k_per_row == 2 ? 4 : 1), 0u);
        }
  }
  // A half tile that splits a k pair is rejected.
  const ElemLayout half = elem_layout(kernelgen::DType::F16);
  MBlocks odd = fixed_m_blocks(64, 32, 64, 8, mc(), half);
  odd.ka = 63;
  EXPECT_THROW(check_m_blocks(odd, mc(), half), ContractViolation);
}

TEST(Blocks, InitialMBlocksMaximizeWithinCapacity) {
  const MBlocks b = initial_m_blocks(mc());
  EXPECT_NO_THROW(check_m_blocks(b, mc()));
  // AM should be essentially full: that is what maximizing CMR does.
  const std::size_t p = am_pitch_floats(b.na);
  const std::size_t used = (b.ma * p + 2 * b.ka * p) * 4;
  EXPECT_GT(used, mc().am_bytes * 9 / 10);
  EXPECT_GE(b.ms, 6u);
}

TEST(Blocks, InitialKBlocksRespectGsmStaging) {
  const KBlocks b = initial_k_blocks(mc());
  EXPECT_NO_THROW(check_k_blocks(b, mc()));
}

TEST(Adjust, ShrinksToSmallShapes) {
  const MBlocks b0 = initial_m_blocks(mc());
  const MBlocks b = adjust_m_blocks(b0, 4096, 32, 32, mc());
  EXPECT_EQ(b.na, 32u);
  EXPECT_LE(b.ka, 32u);
  EXPECT_NO_THROW(check_m_blocks(b, mc()));
}

TEST(Adjust, RegrowsMaWhenKaShrinks) {
  const MBlocks b0 = initial_m_blocks(mc());
  const MBlocks b = adjust_m_blocks(b0, 1 << 20, 32, 32, mc());
  // K=32 frees most of AM; m_a should grow well beyond the initial value.
  EXPECT_GT(b.ma, b0.ma);
  EXPECT_NO_THROW(check_m_blocks(b, mc()));
}

TEST(Adjust, KeepsMsAtLeastSixWhenMAllows) {
  const MBlocks b0 = initial_m_blocks(mc());
  const MBlocks b = adjust_m_blocks(b0, 20480, 32, 20480, mc());
  EXPECT_GE(b.ms, 6u);
  const MBlocks tiny = adjust_m_blocks(b0, 3, 32, 128, mc());
  EXPECT_EQ(tiny.ms, 3u);  // M itself is the cap
}

TEST(Adjust, KStrategySpreadsKAcrossCores) {
  const KBlocks b0 = initial_k_blocks(mc());
  const KBlocks b = adjust_k_blocks(b0, 32, 32, 1 << 16, mc());
  // All 8 cores must receive k blocks.
  EXPECT_GE((std::size_t{1} << 16) / b.ka,
            static_cast<std::size_t>(mc().cores_per_cluster));
  EXPECT_NO_THROW(check_k_blocks(b, mc()));
}

TEST(Adjust, KStrategyClampsReduceRowsToShrunkenMg) {
  // Tiny M shrinks m_g far below the default reduce_rows = 64: the
  // reduction chunk must be clamped so the chunk loop is not degenerate.
  KBlocks b0 = initial_k_blocks(mc());
  b0.reduce_rows = 256;
  const KBlocks b = adjust_k_blocks(b0, 8, 32, 1 << 16, mc());
  EXPECT_LE(b.reduce_rows, b.mg);
  EXPECT_GE(b.reduce_rows, 1u);
  EXPECT_NO_THROW(check_k_blocks(b, mc()));
}

TEST(Adjust, HandlesDegenerateShapes) {
  const MBlocks b0 = initial_m_blocks(mc());
  EXPECT_NO_THROW(adjust_m_blocks(b0, 1, 1, 1, mc()));
  const KBlocks k0 = initial_k_blocks(mc());
  EXPECT_NO_THROW(adjust_k_blocks(k0, 1, 1, 1, mc()));
}

TEST(Roofline, BandwidthBoundForSkinnyShapes) {
  // A 2^20 x 32 x 32 GEMM moves ~2 bytes per flop: far below compute peak.
  const double r = roofline_gflops(1 << 20, 32, 32, 8, mc());
  EXPECT_LT(r, mc().cluster_peak_gflops());
  EXPECT_GT(r, 0);
}

TEST(Roofline, ComputeBoundForBigSquare) {
  // A large square GEMM has AI ~ n/8 flops/byte: compute-bound.
  const double r = roofline_gflops(4096, 4096, 4096, 8, mc());
  EXPECT_NEAR(r, mc().cluster_peak_gflops(), 1e-6);
  // The paper's type-III shapes (N <= 96) stay bandwidth-bound even at
  // M = K = 20480 — that is why Fig. 5 shows the roofline below peak.
  EXPECT_LT(roofline_gflops(20480, 96, 20480, 8, mc()),
            mc().cluster_peak_gflops());
}

TEST(Roofline, IntensityFormula) {
  EXPECT_NEAR(min_ddr_bytes(10, 10, 10), 4.0 * (100 + 100 + 200), 1e-12);
  EXPECT_NEAR(arithmetic_intensity(10, 10, 10), 2000.0 / 1600.0, 1e-12);
}

}  // namespace
}  // namespace ftm::core
