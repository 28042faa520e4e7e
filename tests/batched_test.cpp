// The batched scheduler of the paper's FEM motivation (§I): run_all on a
// one-cluster GemmRuntime. Wide problems run serially on every core, small
// ones one core each over W lanes with DDR bandwidth shared W ways.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/workload/generators.hpp"

namespace ftm::core {
namespace {

/// Reference engine for the per-problem cycles a batch is compared with.
FtimmEngine& engine() {
  static FtimmEngine e;
  return e;
}

runtime::RuntimeOptions one_cluster() {
  runtime::RuntimeOptions ro;
  ro.clusters = 1;
  return ro;
}

BatchResult batched(std::span<const GemmInput> inputs,
                    const FtimmOptions& opt = {},
                    const runtime::RuntimeOptions& ro = one_cluster()) {
  runtime::GemmRuntime rt(ro);
  return rt.run_all(inputs, opt);
}

TEST(Batched, EmptyBatchIsZero) {
  const BatchResult r = batched({});
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.problems, 0u);
}

TEST(Batched, EveryProblemComputedCorrectly) {
  std::vector<workload::GemmProblem> probs;
  std::vector<HostMatrix> expects;
  std::vector<GemmInput> inputs;
  struct S {
    std::size_t m, n, k;
  };
  for (const S s : {S{64, 8, 8}, S{128, 16, 16}, S{96, 32, 24},
                    S{200, 8, 40}, S{31, 7, 13}, S{512, 32, 32}}) {
    probs.push_back(workload::make_problem(s.m, s.n, s.k, 400 + s.m));
  }
  for (auto& p : probs) {
    HostMatrix e(p.m, p.n);
    for (std::size_t i = 0; i < p.m; ++i)
      for (std::size_t j = 0; j < p.n; ++j) e.at(i, j) = p.c.at(i, j);
    cpu::reference_gemm(p.a.view(), p.b.view(), e.view());
    expects.push_back(std::move(e));
  }
  for (auto& p : probs) {
    inputs.push_back(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
  }
  const BatchResult r = batched(inputs);
  EXPECT_EQ(r.problems, probs.size());
  EXPECT_GT(r.cycles, 0u);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_LT(max_rel_diff(probs[i].c.view(), expects[i].view()),
              gemm_tolerance(probs[i].k))
        << "problem " << i;
  }
}

TEST(Batched, SmallProblemsClassifiedSmall) {
  std::vector<GemmInput> inputs;
  for (int i = 0; i < 16; ++i)
    inputs.push_back(GemmInput::shape_only(128, 16, 16));
  FtimmOptions opt;
  opt.functional = false;
  const BatchResult r = batched(inputs, opt);
  EXPECT_EQ(r.small_problems, 16u);
  EXPECT_EQ(r.wide_problems, 0u);
}

TEST(Batched, LargeProblemsRunWide) {
  std::vector<GemmInput> inputs{GemmInput::shape_only(20480, 96, 4096)};
  FtimmOptions opt;
  opt.functional = false;
  const BatchResult r = batched(inputs, opt);
  EXPECT_EQ(r.wide_problems, 1u);
}

TEST(Batched, BatchParallelBeatsSequentialWide) {
  // 32 small GEMMs: running them one core each (8 concurrently) must beat
  // running each with all 8 cores sequentially — the whole point of the
  // batch scheduler (per-GEMM multi-core overheads dominate tiny shapes).
  std::vector<GemmInput> inputs;
  for (int i = 0; i < 32; ++i)
    inputs.push_back(GemmInput::shape_only(256, 16, 16));
  FtimmOptions opt;
  opt.functional = false;
  const BatchResult batch = batched(inputs, opt);
  std::uint64_t sequential = 0;
  for (const auto& in : inputs) sequential += engine().sgemm(in, opt).cycles;
  EXPECT_LT(batch.cycles, sequential);
}

TEST(Batched, MakespanScalesDownWithCores) {
  std::vector<GemmInput> inputs;
  for (int i = 0; i < 24; ++i)
    inputs.push_back(GemmInput::shape_only(512, 16, 16));
  FtimmOptions opt;
  opt.functional = false;
  opt.cores = 1;
  const BatchResult c1 = batched(inputs, opt);
  opt.cores = 8;
  const BatchResult c8 = batched(inputs, opt);
  EXPECT_LT(c8.cycles, c1.cycles);
  // Bandwidth-shared, so under 8x; but meaningfully parallel.
  EXPECT_GT(static_cast<double>(c1.cycles) / c8.cycles, 1.5);
}

TEST(Batched, AllWideBatchRunsSerially) {
  // Every problem above the wide threshold gets the whole cluster, so the
  // batch makespan is exactly the sum of the individual whole-cluster runs.
  std::vector<GemmInput> inputs(3, GemmInput::shape_only(20480, 96, 2048));
  FtimmOptions opt;
  opt.functional = false;
  const BatchResult r = batched(inputs, opt);
  EXPECT_EQ(r.wide_problems, 3u);
  EXPECT_EQ(r.small_problems, 0u);
  std::uint64_t serial = 0;
  for (const auto& in : inputs) serial += engine().sgemm(in, opt).cycles;
  EXPECT_EQ(r.cycles, serial);
}

TEST(Batched, AllSmallMoreProblemsThanCores) {
  // 20 identical smalls over 8 one-core lanes: greedy least-loaded packing
  // puts ceil(20/8) = 3 problems on the longest lane.
  std::vector<GemmInput> inputs(20, GemmInput::shape_only(256, 16, 16));
  FtimmOptions opt;
  opt.functional = false;
  const BatchResult r = batched(inputs, opt);
  EXPECT_EQ(r.small_problems, 20u);
  FtimmOptions sub = opt;
  sub.cores = 1;
  sub.bandwidth_share = 8;  // W = min(8 cores, 20 problems)
  const std::uint64_t one = engine().sgemm(inputs[0], sub).cycles;
  EXPECT_EQ(r.cycles, 3 * one);
}

TEST(Batched, MixedMakespanIsWidePhasePlusLongestLane) {
  // Wides run first as whole-cluster barriers; smalls then pack onto
  // W = min(cores, small count) lanes. With 13 identical smalls on 8
  // lanes the longest lane holds ceil(13/8) = 2 of them.
  std::vector<GemmInput> inputs;
  inputs.push_back(GemmInput::shape_only(20480, 96, 2048));
  for (int i = 0; i < 13; ++i)
    inputs.push_back(GemmInput::shape_only(512, 16, 32));
  inputs.push_back(GemmInput::shape_only(24576, 96, 2048));
  FtimmOptions opt;
  opt.functional = false;
  const BatchResult r = batched(inputs, opt);
  EXPECT_EQ(r.wide_problems, 2u);
  EXPECT_EQ(r.small_problems, 13u);
  const std::uint64_t wide_phase =
      engine().sgemm(inputs[0], opt).cycles +
      engine().sgemm(inputs.back(), opt).cycles;
  FtimmOptions sub = opt;
  sub.cores = 1;
  sub.bandwidth_share = 8;
  const std::uint64_t small_lane =
      2 * engine().sgemm(inputs[1], sub).cycles;
  EXPECT_EQ(r.cycles, wide_phase + small_lane);
}

TEST(Batched, RejectsNonPositiveWideThreshold) {
  runtime::RuntimeOptions ro = one_cluster();
  for (const double bad : {0.0, -128.0, std::nan("")}) {
    ro.wide_problem_flops = bad;
    EXPECT_THROW(runtime::GemmRuntime{ro}, ContractViolation) << bad;
  }
}

TEST(Batched, WideThresholdIsTunable) {
  // Lowering the threshold reclassifies the same shape from small to wide.
  std::vector<GemmInput> inputs(4, GemmInput::shape_only(512, 16, 32));
  FtimmOptions opt;
  opt.functional = false;
  const BatchResult hi = batched(inputs, opt);
  EXPECT_EQ(hi.small_problems, 4u);
  runtime::RuntimeOptions ro = one_cluster();
  ro.wide_problem_flops = 1024;  // everything is "wide" now
  const BatchResult lo = batched(inputs, opt, ro);
  EXPECT_EQ(lo.wide_problems, 4u);
  EXPECT_EQ(lo.small_problems, 0u);
}

TEST(Batched, AggregateFlopsAccounted) {
  std::vector<GemmInput> inputs;
  double flops = 0;
  for (int i = 1; i <= 5; ++i) {
    inputs.push_back(GemmInput::shape_only(64 * i, 8, 8));
    flops += 2.0 * 64 * i * 8 * 8;
  }
  FtimmOptions opt;
  opt.functional = false;
  const BatchResult r = batched(inputs, opt);
  EXPECT_DOUBLE_EQ(r.flops, flops);
  EXPECT_GT(r.gflops, 0);
}

}  // namespace
}  // namespace ftm::core
