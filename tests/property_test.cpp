// Property-based sweeps: randomized shapes through the full engine against
// the reference GEMM, functional/timing-only cycle equivalence, ping-pong
// timing identities on the DMA timeline, and CMR/blocking monotonicity.
#include <gtest/gtest.h>

#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/sim/dma.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/workload/generators.hpp"

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

// --- Random-shape GEMM correctness ------------------------------------------

struct RandomShape {
  std::size_t m, n, k;
  int cores;
  Strategy strategy;
};

std::vector<RandomShape> random_shapes() {
  // Deterministic "random": prime-ish dimensions, mixed magnitudes; every
  // strategy sees shapes it was not designed for (robustness, not speed).
  Prng rng(20260705);
  std::vector<RandomShape> v;
  const Strategy strategies[] = {Strategy::ParallelM, Strategy::ParallelK,
                                 Strategy::TGemm};
  for (int i = 0; i < 36; ++i) {
    RandomShape s;
    s.m = 1 + rng.next_below(1500);
    s.n = 1 + rng.next_below(i % 3 == 0 ? 300 : 96);
    s.k = 1 + rng.next_below(3000);
    s.cores = 1 + static_cast<int>(rng.next_below(8));
    s.strategy = strategies[i % 3];
    v.push_back(s);
  }
  return v;
}

class RandomShapeGemm : public ::testing::TestWithParam<RandomShape> {};

TEST_P(RandomShapeGemm, MatchesReference) {
  const RandomShape s = GetParam();
  workload::GemmProblem p =
      workload::make_problem(s.m, s.n, s.k, s.m * 31 + s.n * 7 + s.k);
  HostMatrix expect(s.m, s.n);
  for (std::size_t i = 0; i < s.m; ++i)
    for (std::size_t j = 0; j < s.n; ++j) expect.at(i, j) = p.c.at(i, j);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());

  FtimmOptions opt;
  opt.cores = s.cores;
  opt.force = s.strategy;
  const GemmInput in = GemmInput::bound(p.a.view(), p.b.view(), p.c.view());
  if (s.strategy == Strategy::TGemm) {
    engine().tgemm(in, opt);
  } else {
    engine().sgemm(in, opt);
  }
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(s.k))
      << s.m << "x" << s.n << "x" << s.k << " cores=" << s.cores
      << " strat=" << to_string(s.strategy);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RandomShapeGemm,
                         ::testing::ValuesIn(random_shapes()));

// --- Functional == timing-only, across shapes -------------------------------

class TimingEquivalence : public ::testing::TestWithParam<RandomShape> {};

TEST_P(TimingEquivalence, SameCyclesAndTraffic) {
  const RandomShape s = GetParam();
  workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 5);
  FtimmOptions opt;
  opt.cores = s.cores;
  opt.force = s.strategy;
  const GemmResult rf = engine().sgemm(
      GemmInput::bound(p.a.view(), p.b.view(), p.c.view()), opt);
  opt.functional = false;
  const GemmResult rt =
      engine().sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
  EXPECT_EQ(rf.cycles, rt.cycles);
  EXPECT_EQ(rf.ddr_bytes, rt.ddr_bytes);
  EXPECT_EQ(rf.kernel_calls, rt.kernel_calls);
}

std::vector<RandomShape> timing_shapes() {
  auto v = random_shapes();
  v.resize(12);
  return v;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, TimingEquivalence,
                         ::testing::ValuesIn(timing_shapes()));

// --- Ping-pong timing identities --------------------------------------------

TEST(TimelineProperties, PipelinedSequenceEqualsClosedForm) {
  // A classic ping-pong: prefetch(i+1) issued before compute(i), all DMA
  // costs d, all compute costs c. Steady-state total for n stages must be
  // d + (n-1)*max(c, d) + c (fill + steady + drain).
  for (std::uint64_t d : {10u, 50u, 100u}) {
    for (std::uint64_t c : {10u, 50u, 100u}) {
      const int n = 17;
      sim::CoreTimeline tl;
      std::vector<sim::DmaHandle> h(n);
      h[0] = tl.dma_start(d);
      for (int i = 0; i < n; ++i) {
        if (i + 1 < n) h[i + 1] = tl.dma_start(d);
        tl.dma_wait(h[i]);
        tl.compute(c);
      }
      const std::uint64_t expect =
          d + static_cast<std::uint64_t>(n - 1) * std::max(c, d) + c;
      EXPECT_EQ(tl.now(), expect) << "d=" << d << " c=" << c;
    }
  }
}

TEST(TimelineProperties, SerialSequenceEqualsSum) {
  // Without overlap (wait immediately after start), total = n*(d + c).
  sim::CoreTimeline tl;
  const std::uint64_t d = 40, c = 25;
  const int n = 9;
  for (int i = 0; i < n; ++i) {
    const auto h = tl.dma_start(d);
    tl.dma_wait(h);
    tl.compute(c);
  }
  EXPECT_EQ(tl.now(), static_cast<std::uint64_t>(n) * (d + c));
}

TEST(TimelineProperties, OverlapNeverSlower) {
  Prng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> dcost(12), ccost(12);
    for (auto& x : dcost) x = 1 + rng.next_below(200);
    for (auto& x : ccost) x = 1 + rng.next_below(200);
    sim::CoreTimeline over, serial;
    std::vector<sim::DmaHandle> h(dcost.size());
    h[0] = over.dma_start(dcost[0]);
    for (std::size_t i = 0; i < dcost.size(); ++i) {
      if (i + 1 < dcost.size()) h[i + 1] = over.dma_start(dcost[i + 1]);
      over.dma_wait(h[i]);
      over.compute(ccost[i]);
    }
    for (std::size_t i = 0; i < dcost.size(); ++i) {
      serial.dma_wait(serial.dma_start(dcost[i]));
      serial.compute(ccost[i]);
    }
    EXPECT_LE(over.now(), serial.now());
  }
}

// --- Blocking / CMR properties ----------------------------------------------

TEST(BlockingProperties, AdjustedBlocksAlwaysFitForPaperSweeps) {
  for (std::size_t n : {std::size_t{1}, std::size_t{8}, std::size_t{17},
                        std::size_t{32}, std::size_t{64}, std::size_t{96}}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{32}, std::size_t{4096},
                          std::size_t{1} << 20}) {
      for (std::size_t k : {std::size_t{1}, std::size_t{32},
                            std::size_t{864}, std::size_t{20480}}) {
        for (int cores : {1, 3, 8}) {
          EXPECT_NO_THROW({
            auto mb = engine().m_blocks_for(m, n, k, true, cores);
            core::check_m_blocks(mb, engine().machine());
          }) << m << "x" << n << "x" << k << " cores=" << cores;
          EXPECT_NO_THROW({
            auto kb = engine().k_blocks_for(m, n, k, true, cores);
            core::check_k_blocks(kb, engine().machine());
          }) << m << "x" << n << "x" << k << " cores=" << cores;
        }
      }
    }
  }
}

TEST(BlockingProperties, NaNeverExceedsN) {
  for (std::size_t n : {1u, 5u, 31u, 33u, 95u, 96u}) {
    const auto mb = engine().m_blocks_for(4096, n, 4096);
    EXPECT_LE(mb.na, n);
    EXPECT_LE(mb.na, 96u);
  }
}

TEST(BlockingProperties, CmrImprovesWithMoreCores) {
  // The GSM-cached panel is loaded once and shared: more cores amortize it
  // over more compute, so all CMR formulas are non-decreasing in cores.
  for (int c = 1; c < 8; ++c) {
    EXPECT_LE(core::cmr_m_outer(320, 5888, 96, c),
              core::cmr_m_outer(320, 5888, 96, c + 1) + 1e-9);
    EXPECT_LE(core::cmr_k_inner(1024, 512, 96, c),
              core::cmr_k_inner(1024, 512, 96, c + 1) + 1e-9);
  }
}

TEST(BlockingProperties, AmPitchCoversNaExactlyInVectors) {
  for (std::size_t na = 1; na <= 96; ++na) {
    const std::size_t p = core::am_pitch_floats(na);
    EXPECT_EQ(p % 32, 0u);
    EXPECT_GE(p, na);
    EXPECT_LT(p - na, 32u);
  }
}

}  // namespace
}  // namespace ftm
