// Tests of the block tuner, the perf gate's oracle: it never loses to the
// paper default, it is deterministic, and the plan it reports replays
// exactly the cycles it measured.
#include <gtest/gtest.h>

#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/tune/tuner.hpp"

namespace {

using namespace ftm;
using tune::Tuner;

struct Shape {
  std::size_t m, n, k;
};

/// Every field of a plan, for whole-plan comparisons.
std::vector<std::size_t> fields(const core::GemmPlan& p) {
  const core::MBlocks& m = p.mblocks;
  const core::KBlocks& k = p.kblocks;
  const core::TBlocks& t = p.tblocks;
  return {static_cast<std::size_t>(p.strategy),
          static_cast<std::size_t>(p.cores),
          m.kg, m.ng, m.ma, m.na, m.ka, m.ms,
          k.mg, k.ng, k.ma, k.na, k.ka, k.ms, k.reduce_rows,
          t.mg, t.kg, t.na, t.ms};
}

TEST(TunerTest, TunedNeverSlowerThanDefault) {
  Tuner tuner;
  for (const Shape& s :
       std::vector<Shape>{{262144, 32, 32}, {32, 32, 262144},
                          {2048, 2048, 2048}}) {
    const auto r = tuner.tune(s.m, s.n, s.k);
    EXPECT_LE(r.tuned_cycles, r.default_cycles)
        << s.m << "x" << s.n << "x" << s.k;
    EXPECT_GT(r.evaluated, 0);
  }
}

TEST(TunerTest, DeterministicAcrossRuns) {
  for (const Shape& s :
       std::vector<Shape>{{262144, 32, 32}, {8192, 96, 8192}}) {
    const auto a = Tuner().tune(s.m, s.n, s.k);
    const auto b = Tuner().tune(s.m, s.n, s.k);
    EXPECT_EQ(fields(a.plan), fields(b.plan));
    EXPECT_EQ(a.pingpong, b.pingpong);
    EXPECT_EQ(a.tuned_cycles, b.tuned_cycles);
    EXPECT_EQ(a.default_cycles, b.default_cycles);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.pruned, b.pruned);
  }
}

TEST(TunerTest, ReportedPlanReplaysItsCycles) {
  const auto rep = Tuner().tune(262144, 32, 32);
  core::FtimmEngine eng;
  core::FtimmOptions opt;
  opt.functional = false;
  opt.pingpong = rep.pingpong;
  const auto r = eng.sgemm_planned(
      core::GemmInput::shape_only(262144, 32, 32), rep.plan, opt);
  EXPECT_EQ(r.strategy, rep.plan.strategy);
  EXPECT_EQ(r.cycles, rep.tuned_cycles);
  // The default plan the tuner started from is the engine's own.
  opt.pingpong = true;
  EXPECT_EQ(eng.sgemm(core::GemmInput::shape_only(262144, 32, 32), opt).cycles,
            rep.default_cycles);
}

}  // namespace
