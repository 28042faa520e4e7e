// FP64 micro-kernel extension: correctness against a double-precision
// reference, bit-identical fast path, and the changed resource analysis
// (one 64-bit broadcast per cycle instead of two FP32 scalars).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/sim/core.hpp"
#include "ftm/util/prng.hpp"
#include "kernel_tester.hpp"

namespace ftm::kernelgen {
namespace {

const isa::MachineConfig& mc() { return isa::default_machine(); }

KernelSpec f64_spec(int ms, int ka, int na, bool load_c = true) {
  KernelSpec s{ms, ka, na, load_c};
  s.dtype = DType::F64;
  return s;
}

TEST(Fp64Spec, LanesAndPitch) {
  const KernelSpec s = f64_spec(6, 128, 48);
  EXPECT_EQ(s.lanes(), 16);
  EXPECT_EQ(s.elem_bytes(), 8u);
  EXPECT_EQ(s.vn(), 3);
  EXPECT_EQ(s.am_row_bytes(), 3 * 128);
  EXPECT_EQ(s.am_row_elems(), 48);
  EXPECT_EQ(s.a_bytes(), 6u * 128 * 8);
}

TEST(Fp64Spec, NaCapIs48) {
  EXPECT_NO_THROW(choose_tiling(f64_spec(6, 64, 48), mc()));
  EXPECT_THROW(choose_tiling(f64_spec(6, 64, 49), mc()), ContractViolation);
}

TEST(Fp64Tiling, BroadcastBoundTightensUpperBound) {
  // vn=1 (na<=16): at most 1 of 3 FMAC units; vn=2: 2/3; vn=3: full.
  EXPECT_NEAR(upper_bound_utilization(f64_spec(6, 512, 16), mc()),
              1.0 / 3.0, 1e-12);
  EXPECT_NEAR(upper_bound_utilization(f64_spec(6, 512, 32), mc()),
              2.0 / 3.0, 1e-12);
  EXPECT_NEAR(upper_bound_utilization(f64_spec(6, 512, 48), mc()), 1.0,
              1e-12);
  // The F32 overload is unchanged.
  EXPECT_NEAR(upper_bound_utilization(KernelSpec{6, 512, 32}, mc()),
              2.0 / 3.0, 1e-12);
}

TEST(Fp64Tiling, RegisterBudgetHolds) {
  for (int ms : {1, 2, 4, 6, 8, 12}) {
    for (int na : {8, 16, 24, 32, 48}) {
      const KernelSpec s = f64_spec(ms, 256, na);
      const Tiling t = choose_tiling(s, mc());
      EXPECT_LE(vector_regs_needed(t, s.vn()), mc().vector_regs);
      EXPECT_LE(t.mu * t.ku, 12);  // scalar temp budget (one SLDDW per k)
    }
  }
}

struct F64Case {
  int ms, ka, na;
};

class Fp64Correctness : public ::testing::TestWithParam<F64Case> {};

TEST_P(Fp64Correctness, MatchesDoubleReference) {
  const F64Case cse = GetParam();
  const KernelSpec spec = f64_spec(cse.ms, cse.ka, cse.na);
  MicroKernel uk(spec, mc());
  sim::DspCore core(mc());
  const auto a = core.sm().alloc(spec.a_bytes());
  const auto b = core.am().alloc(spec.b_bytes());
  const auto c = core.am().alloc(spec.c_bytes());
  const int ld = spec.am_row_elems();

  Prng rng(cse.ms * 31 + cse.ka * 7 + cse.na);
  std::vector<double> ha(spec.ms * spec.ka), hb(spec.ka * ld),
      hc(spec.ms * ld);
  for (auto& v : ha) v = rng.next_float(-1, 1);
  for (auto& v : hb) v = rng.next_float(-1, 1);
  for (auto& v : hc) v = rng.next_float(-1, 1);

  std::memcpy(core.sm().raw(a.offset, ha.size() * 8), ha.data(),
              ha.size() * 8);
  std::memcpy(core.am().raw(b.offset, hb.size() * 8), hb.data(),
              hb.size() * 8);
  std::memcpy(core.am().raw(c.offset, hc.size() * 8), hc.data(),
              hc.size() * 8);

  const sim::ExecResult res =
      uk.run_detailed(core, a.offset, b.offset, c.offset);
  EXPECT_EQ(res.vfmac_ops,
            static_cast<std::uint64_t>(spec.ms) * spec.ka * spec.vn());

  // Double reference.
  std::vector<double> expect = hc;
  for (int r = 0; r < spec.ms; ++r) {
    for (int k = 0; k < spec.ka; ++k) {
      const double av = ha[r * spec.ka + k];
      for (int x = 0; x < spec.na; ++x) {
        expect[r * ld + x] += av * hb[k * ld + x];
      }
    }
  }
  const double* got = reinterpret_cast<const double*>(
      core.am().raw(c.offset, hc.size() * 8));
  for (int r = 0; r < spec.ms; ++r) {
    for (int x = 0; x < spec.na; ++x) {
      ASSERT_NEAR(got[r * ld + x], expect[r * ld + x],
                  1e-12 * (1.0 + std::abs(expect[r * ld + x])))
          << "(" << r << "," << x << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Fp64Correctness,
    ::testing::Values(F64Case{6, 512, 48}, F64Case{6, 512, 32},
                      F64Case{6, 512, 16}, F64Case{4, 128, 48},
                      F64Case{8, 129, 24}, F64Case{2, 33, 8},
                      F64Case{12, 64, 16}, F64Case{1, 1, 1},
                      F64Case{6, 7, 41}));

TEST(Fp64FastPath, BitIdenticalToDetailed) {
  KernelTester().dtype(DType::F64).ms(6).ka(257).na(48).test();
}

TEST(Fp64Efficiency, TracksTheTightenedBounds) {
  // na=48 (vn=3): FMAC-bound, near peak. na=16 (vn=1): broadcast-bound,
  // about a third of peak. Same mechanics as Fig. 3 but with the FP64
  // broadcast wall moved.
  MicroKernel wide(f64_spec(6, 512, 48), mc());
  EXPECT_GT(wide.efficiency(), 0.80);
  MicroKernel narrow(f64_spec(6, 512, 16), mc());
  EXPECT_LT(narrow.efficiency(), 1.0 / 3.0 + 1e-9);
  EXPECT_GT(narrow.efficiency(), 0.25);
  MicroKernel mid(f64_spec(6, 512, 32), mc());
  EXPECT_LT(mid.efficiency(), 2.0 / 3.0 + 1e-9);
  EXPECT_GT(mid.efficiency(), 0.5);
}

TEST(Fp64Cache, DistinctFromF32) {
  KernelCache cache(mc());
  cache.get(KernelSpec{6, 128, 32});
  cache.get(f64_spec(6, 128, 32));
  EXPECT_EQ(cache.generated(), 2u);
}

}  // namespace
}  // namespace ftm::kernelgen
