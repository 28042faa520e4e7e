// Every producer of a GemmResult passes the one record check
// (record_check.hpp): the engine strategies, ABFT, dgemm, the half router,
// the runtime's split merge, the node grid, CPU fallback and the batch
// record. Runtime results are also checked against their
// request_log() row, which must carry the delivered result unchanged.
#include <gtest/gtest.h>

#include <vector>

#include "ftm/core/dgemm.hpp"
#include "ftm/core/hgemm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/nodes/scaleout.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/workload/generators.hpp"
#include "record_check.hpp"

namespace ftm {
namespace {

using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;
using core::Strategy;
using kernelgen::DType;
using test::expect_logged;
using test::expect_record;

FtimmOptions timing_only() {
  FtimmOptions opt;
  opt.functional = false;
  return opt;
}

/// Submits one request to `rt` and checks the delivered result against
/// its (last) request_log() row.
GemmResult submit_logged(runtime::GemmRuntime& rt, const GemmInput& in,
                         const FtimmOptions& opt) {
  const GemmResult r = rt.submit(in, opt).get();
  const std::vector<runtime::RequestStats> log = rt.request_log();
  EXPECT_FALSE(log.empty());
  if (!log.empty()) expect_logged(log.back(), r);
  return r;
}

TEST(Record, RatesAtThePaperClock) {
  // 1.8e9 cycles == 1 second; one core's 345.6 GFlop in that second is
  // its FP32 peak, half the F16 peak and twice the F64 peak.
  GemmResult r;
  r.cycles = 1'800'000'000ull;
  const isa::MachineConfig& mc = isa::default_machine();
  core::derive_rates(r, 345.6e9, 1, mc);
  EXPECT_NEAR(r.seconds, 1.0, 1e-12);
  EXPECT_NEAR(r.gflops, 345.6, 1e-9);
  EXPECT_NEAR(r.efficiency, 1.0, 1e-12);
  r.dtype = DType::F16;
  core::derive_rates(r, 345.6e9, 1, mc);
  EXPECT_NEAR(r.efficiency, 0.5, 1e-12);
  r.dtype = DType::F64;
  core::derive_rates(r, 345.6e9, 2, mc);
  EXPECT_NEAR(r.efficiency, 1.0, 1e-12);
  r.cycles = 0;
  core::derive_rates(r, 345.6e9, 1, mc);
  EXPECT_EQ(r.gflops, 0.0);
  EXPECT_EQ(r.efficiency, 0.0);
}

TEST(Record, EngineStrategies) {
  core::FtimmEngine eng;
  const FtimmOptions opt = timing_only();
  const struct {
    std::size_t m, n, k;
    Strategy s;
  } cases[] = {{4096, 32, 512, Strategy::ParallelM},
               {64, 32, 8192, Strategy::ParallelK},
               {256, 256, 256, Strategy::TGemm}};
  for (const auto& c : cases) {
    const GemmInput in = GemmInput::shape_only(c.m, c.n, c.k);
    const GemmResult r = eng.sgemm(in, opt);
    EXPECT_EQ(r.strategy, c.s);
    expect_record(r, in.flops(), opt.cores, DType::F32);
  }
}

TEST(Record, AbftVerifyRerate) {
  core::FtimmEngine eng;
  FtimmOptions opt;
  opt.integrity = core::IntegrityMode::Verify;
  workload::GemmProblem p = workload::make_problem(512, 32, 256, 5);
  const GemmInput in = GemmInput::bound(p.a.view(), p.b.view(), p.c.view());
  const GemmResult r = eng.sgemm(in, opt);
  EXPECT_GT(r.checksum_checks, 0u);
  EXPECT_GT(r.checksum_cycles, 0u);
  expect_record(r, in.flops(), opt.cores, DType::F32);
}

TEST(Record, Dgemm) {
  core::FtimmEngine eng;
  const FtimmOptions opt = timing_only();
  const auto in = core::DGemmInput::shape_only(2048, 48, 512);
  expect_record(core::dgemm(eng, in, opt), in.flops(), opt.cores,
                DType::F64);
}

TEST(Record, HalfPanelsOfWideN) {
  // N > 96 runs as serial 96-wide panels merged with GemmResult::add.
  core::FtimmEngine eng;
  FtimmOptions opt = timing_only();
  opt.dtype = DType::F16;
  const GemmInput in = GemmInput::shape_only(1024, 200, 256);
  const GemmResult r = core::hgemm_f32(eng, in, opt);
  GemmResult panels;
  for (const std::size_t n : {96, 96, 8}) {
    const GemmInput panel = GemmInput::shape_only(1024, n, 256);
    panels.add(core::hgemm_f32(eng, panel, opt));
  }
  EXPECT_EQ(r.cycles, panels.cycles);
  EXPECT_EQ(r.kernel_calls, panels.kernel_calls);
  expect_record(r, in.flops(), opt.cores, DType::F16);
}

TEST(Record, RuntimeDispatchAndSplitShards) {
  runtime::RuntimeOptions ro;
  ro.clusters = 4;
  ro.gemm = timing_only();
  runtime::GemmRuntime rt(ro);
  FtimmOptions opt = ro.gemm;

  // A sub-wide request: one dispatch, one row.
  const GemmInput small = GemmInput::shape_only(4096, 32, 512);
  expect_record(submit_logged(rt, small, opt), small.flops(), opt.cores,
                DType::F32);

  // A wide F16 request splits four ways; every shard row is a record of
  // its own rows, and the merge is rated against every shard's cores.
  rt.wait_idle();  // every cluster idle: the split takes all four
  opt.dtype = DType::F16;
  const GemmInput wide = GemmInput::shape_only(65536, 64, 4096);
  const std::size_t rows_before = rt.request_log().size();
  const GemmResult r = rt.submit(wide, opt).get();
  rt.wait_idle();
  ASSERT_EQ(rt.stats().splits, 1u);
  const std::vector<runtime::RequestStats> log = rt.request_log();
  ASSERT_EQ(log.size(), rows_before + 4);
  for (std::size_t i = rows_before; i < log.size(); ++i) {
    expect_record(log[i], wide.flops() / 4, opt.cores, DType::F16);
  }
  expect_record(r, wide.flops(), opt.cores * 4, DType::F16);
}

TEST(Record, NodeClusterKeepsTheRequestedDtype) {
  nodes::NodeOptions no;
  no.nodes = 2;
  no.runtime.clusters = 1;
  no.m_tile_rows = 1024;
  no.k_panel = 1024;
  nodes::NodeCluster nc(no);
  FtimmOptions opt = timing_only();
  opt.dtype = DType::F16;
  const GemmInput in = GemmInput::shape_only(2048, 64, 2048);
  const nodes::NodeResult r = nc.gemm(in, opt);
  // Against every core of every cluster of both nodes, at the F16 peak.
  expect_record(r, in.flops(),
                no.machine.cores_per_cluster * no.runtime.clusters * 2,
                DType::F16);
}

TEST(Record, CpuFallback) {
  fault::FaultPlan plan;
  plan.cluster(0).dead = true;
  fault::FaultInjector fi(plan);
  runtime::RuntimeOptions ro;
  ro.clusters = 1;
  ro.fault_injector = &fi;
  ro.resilience.enabled = true;
  ro.resilience.max_retries = 0;
  runtime::GemmRuntime rt(ro);
  workload::GemmProblem p = workload::make_problem(128, 32, 64, 9);
  const GemmInput in = GemmInput::bound(p.a.view(), p.b.view(), p.c.view());
  const GemmResult r = submit_logged(rt, in, ro.gemm);
  EXPECT_TRUE(r.cpu_fallback);
  expect_record(r, in.flops(), ro.gemm.cores, DType::F32);
}

TEST(Record, BatchRecord) {
  std::vector<GemmInput> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(GemmInput::shape_only(8192, 32, 1024));  // wide
  }
  for (int i = 0; i < 9; ++i) {
    batch.push_back(GemmInput::shape_only(512, 16, 32));  // small
  }
  const FtimmOptions opt = timing_only();
  runtime::RuntimeOptions ro;
  ro.clusters = 2;
  ro.gemm = opt;
  runtime::GemmRuntime rt(ro);
  const core::BatchResult br = rt.run_all(batch, opt);
  EXPECT_EQ(br.wide_problems, 3u);
  EXPECT_EQ(br.small_problems, 9u);
  EXPECT_GT(br.kernel_calls, 0u);
  expect_record(br, br.flops, ro.clusters * opt.cores, DType::F32);

  // On one cluster the record is the single lane makespan.
  ro.clusters = 1;
  runtime::GemmRuntime single(ro);
  const core::BatchResult one = single.run_all(batch, opt);
  EXPECT_EQ(one.cluster_cycles.size(), 1u);
  EXPECT_EQ(one.cycles, one.cluster_cycles[0]);
  expect_record(one, one.flops, opt.cores, DType::F32);
}

}  // namespace
}  // namespace ftm
