// Failure injection and error-path coverage: the library must fail loudly
// (ContractViolation) on invalid inputs and impossible configurations
// instead of corrupting simulated memory or silently mis-sizing blocks.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/core/strategies.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/kernelgen/generator.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/sim/cluster.hpp"
#include "ftm/workload/generators.hpp"

namespace ftm {
namespace {

using core::FtimmEngine;
using core::FtimmOptions;
using core::GemmInput;

TEST(Failure, ZeroDimensionGemmRejected) {
  FtimmEngine e;
  FtimmOptions opt;
  opt.functional = false;
  EXPECT_THROW(e.sgemm(GemmInput::shape_only(0, 32, 32), opt),
               ContractViolation);
  EXPECT_THROW(e.sgemm(GemmInput::shape_only(32, 0, 32), opt),
               ContractViolation);
  EXPECT_THROW(e.tgemm(GemmInput::shape_only(32, 32, 0), opt),
               ContractViolation);
}

TEST(Failure, BadCoreCountRejected) {
  FtimmEngine e;
  FtimmOptions opt;
  opt.functional = false;
  opt.cores = 0;
  EXPECT_THROW(e.sgemm(GemmInput::shape_only(64, 32, 32), opt),
               ContractViolation);
  opt.cores = 9;
  EXPECT_THROW(e.sgemm(GemmInput::shape_only(64, 32, 32), opt),
               ContractViolation);
}

TEST(Failure, MismatchedViewsRejected) {
  HostMatrix a(8, 16), b(15, 4), c(8, 4);  // K mismatch: 16 vs 15
  EXPECT_THROW(GemmInput::bound(a.view(), b.view(), c.view()),
               ContractViolation);
  HostMatrix b2(16, 4), c2(9, 4);  // M mismatch
  EXPECT_THROW(GemmInput::bound(a.view(), b2.view(), c2.view()),
               ContractViolation);
}

TEST(Failure, KernelSpecOutOfRangeRejected) {
  const auto& mc = isa::default_machine();
  EXPECT_THROW(kernelgen::choose_tiling({6, 512, 0}, mc), ContractViolation);
  EXPECT_THROW(kernelgen::choose_tiling({6, 512, 97}, mc),
               ContractViolation);
  EXPECT_THROW(kernelgen::choose_tiling({0, 512, 96}, mc),
               ContractViolation);
  EXPECT_THROW(kernelgen::choose_tiling({6, 0, 96}, mc), ContractViolation);
}

TEST(Failure, OversizedBlocksRejectedByCapacityAudit) {
  const auto& mc = isa::default_machine();
  // k_a that cannot fit AM alongside C_a.
  core::MBlocks mb;
  mb.ka = 3000;
  EXPECT_THROW(core::check_m_blocks(mb, mc), ContractViolation);
  // K-strategy staging that overflows GSM.
  core::KBlocks kb;
  kb.ma = 4096;
  kb.mg = 4096;
  EXPECT_THROW(core::check_k_blocks(kb, mc), ContractViolation);
  // TGEMM with the padding invariant broken.
  core::TBlocks tb;
  tb.na = 64;
  EXPECT_THROW(core::check_t_blocks(tb, mc), ContractViolation);
}

TEST(Failure, StrategiesRejectUncheckedBlockOverflow) {
  // Calling a strategy directly with overflowing blocks must throw before
  // any data is touched.
  FtimmEngine e;
  core::MBlocks mb;
  mb.kg = 1 << 20;  // 2*kg*ng*4 = 768 MB >> 6 MB GSM
  workload::GemmProblem p = workload::make_problem(64, 32, 64, 1);
  FtimmOptions opt;
  EXPECT_THROW(
      core::run_strategy_m(e.cluster(), e.kernels(),
                           GemmInput::bound(p.a.view(), p.b.view(),
                                            p.c.view()),
                           mb, opt),
      ContractViolation);
}

TEST(Failure, ScratchpadOverflowSurfacesFromProvisioning) {
  sim::Cluster cl;
  // Fill AM, then ask for one more byte region.
  cl.core(0).am().alloc(cl.core(0).am().capacity());
  EXPECT_THROW(cl.core(0).am().alloc(1), ContractViolation);
  // After reset the same allocation succeeds: failure is not sticky.
  cl.reset();
  EXPECT_NO_THROW(cl.core(0).am().alloc(1024));
}

TEST(Failure, DmaOutOfBoundsScratchpadAccessRejected) {
  sim::Cluster cl;
  std::vector<std::uint8_t> host(4096);
  sim::DmaRequest req;
  req.route = sim::DmaRoute::DdrToSpm;
  req.rows = 1;
  req.row_bytes = 4096;
  req.src_stride = req.dst_stride = 4096;
  // Destination window extends past AM's end.
  EXPECT_THROW(
      sim::dma_copy(req, host.data(),
                    cl.core(0).am().raw(cl.core(0).am().capacity() - 64,
                                        4096)),
      ContractViolation);
}

TEST(Failure, EngineRemainsUsableAfterError) {
  FtimmEngine e;
  FtimmOptions opt;
  opt.functional = false;
  EXPECT_THROW(e.sgemm(GemmInput::shape_only(0, 1, 1), opt),
               ContractViolation);
  // Subsequent valid calls work on the same engine.
  const auto r = e.sgemm(GemmInput::shape_only(1024, 32, 32), opt);
  EXPECT_GT(r.cycles, 0u);
}

TEST(Failure, ProgramWithBadUnitAssignmentRejectedAtRun) {
  sim::DspCore core;
  isa::Program p;
  p.name = "bad";
  isa::Instr i = isa::make_vfmulas32(0, 1, 2);
  i.unit = isa::Unit::SLS1;  // inadmissible
  isa::Bundle b;
  b.ops = {i};
  p.bundles = {b};
  EXPECT_THROW(core.run(p), ContractViolation);
}

// --- async submission paths (ISSUE 3 satellite) ----------------------------
//
// submit() must reject malformed work synchronously (or, for defects only
// detectable during execution, through the future) — a bad submission may
// never fault a worker thread or be "healed" by the retry machinery.

TEST(Failure, AsyncSubmitRejectsMalformedInputSynchronously) {
  runtime::RuntimeOptions ro;
  ro.clusters = 2;
  runtime::GemmRuntime rt(ro);
  workload::GemmProblem p = workload::make_problem(64, 32, 32, 3);

  // Dimensions inconsistent with the bound views (bypassing the checks in
  // GemmInput::bound by mutating the already-validated input).
  core::GemmInput in =
      core::GemmInput::bound(p.a.view(), p.b.view(), p.c.view());
  in.m = 128;
  EXPECT_THROW(rt.submit(in), ContractViolation);
  in.m = 64;
  in.a = ConstMatrixView();  // functional submission with a missing view
  EXPECT_THROW(rt.submit(in), ContractViolation);

  // Degenerate shapes and bad per-request options.
  EXPECT_THROW(rt.submit(core::GemmInput::shape_only(0, 16, 16)),
               ContractViolation);
  core::FtimmOptions bad;
  bad.cores = 9;
  EXPECT_THROW(rt.submit(core::GemmInput::shape_only(64, 16, 16), bad),
               ContractViolation);
  // A bad wide threshold is a runtime option, refused at construction.
  runtime::RuntimeOptions bad_ro = ro;
  bad_ro.wide_problem_flops = 0;
  EXPECT_THROW(runtime::GemmRuntime{bad_ro}, ContractViolation);

  // The runtime is unharmed: a valid submission still resolves.
  const core::GemmResult r =
      rt.submit(core::GemmInput::bound(p.a.view(), p.b.view(), p.c.view()))
          .get();
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(rt.stats().failed, 0u);
}

TEST(Failure, ContractViolationIsNeverRetried) {
  // A worker-side ContractViolation (only detectable during execution —
  // functional options with no bound views) must surface through the
  // future untouched by the resilience layer: no retry, no CPU fallback,
  // no cluster-health penalty.
  runtime::RuntimeOptions ro;
  ro.clusters = 2;
  ro.resilience.enabled = true;
  runtime::GemmRuntime rt(ro);

  core::FtimmOptions opt;
  opt.functional = true;
  auto fut = rt.submit(core::GemmInput::shape_only(64, 32, 32), opt);
  EXPECT_THROW(fut.get(), ContractViolation);

  const runtime::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.fallbacks, 0u);
  EXPECT_EQ(s.faults, 0u);  // a caller bug is not a cluster fault

  // The worker thread survived and keeps serving.
  opt.functional = false;
  EXPECT_GT(rt.submit(core::GemmInput::shape_only(64, 32, 32), opt)
                .get()
                .cycles,
            0u);
}

TEST(Failure, DeadClusterFaultIsTypedAndAttributed) {
  fault::FaultPlan plan;
  plan.cluster(0).dead = true;
  fault::FaultInjector fi(plan);
  runtime::RuntimeOptions ro;
  ro.clusters = 1;
  ro.fault_injector = &fi;  // fail-fast: resilience off
  runtime::GemmRuntime rt(ro);

  core::FtimmOptions opt;
  opt.functional = false;
  auto fut = rt.submit(core::GemmInput::shape_only(64, 32, 32), opt);
  try {
    fut.get();
    FAIL() << "dead cluster must produce a typed FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::ClusterDead);
    EXPECT_EQ(e.cluster(), 0);
  }
  const runtime::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.faults, 1u);  // counted even with resilience off
}

// The counter array and to_string() are both derived from the enum; this
// pins every kind to a stable, distinct label so adding a FaultKind
// without updating to_string() (or the kCount sentinel) fails here
// instead of printing "?" in a report.
TEST(Failure, EveryFaultKindHasADistinctName) {
  const std::vector<std::pair<FaultKind, std::string>> kinds = {
      {FaultKind::DmaError, "dma-error"},
      {FaultKind::DmaTimeout, "dma-timeout"},
      {FaultKind::SpmEcc, "spm-ecc"},
      {FaultKind::ClusterStall, "cluster-stall"},
      {FaultKind::ClusterDead, "cluster-dead"},
      {FaultKind::SilentCorruption, "silent-corruption"},
      {FaultKind::DeadlineExceeded, "deadline-exceeded"},
      {FaultKind::Cancelled, "cancelled"},
      {FaultKind::Rejected, "rejected"},
      {FaultKind::IntegrityError, "integrity-error"},
  };
  ASSERT_EQ(kinds.size(),
            static_cast<std::size_t>(FaultKind::kCount))
      << "new FaultKind: add its to_string() expectation here";
  std::set<std::string> seen;
  for (const auto& [kind, name] : kinds) {
    EXPECT_STREQ(to_string(kind), name.c_str());
    EXPECT_TRUE(seen.insert(name).second) << name << " is duplicated";
  }
  // The sentinel is not a kind and must not alias a real label.
  EXPECT_STREQ(to_string(FaultKind::kCount), "?");
}

// An IntegrityError is a FaultError (it rides the same resilience path)
// but carries the detection count the runtime accounts recomputes with.
TEST(Failure, IntegrityErrorCarriesDetectionCount) {
  const IntegrityError e(2, 3, "checksum verification failed");
  EXPECT_EQ(e.kind(), FaultKind::IntegrityError);
  EXPECT_EQ(e.cluster(), 2);
  EXPECT_EQ(e.core(), -1);
  EXPECT_EQ(e.detected(), 3);
  const FaultError& base = e;  // must be catchable as FaultError
  EXPECT_EQ(base.kind(), FaultKind::IntegrityError);
}

}  // namespace
}  // namespace ftm
