// Tests of the serving layer (ISSUE 7): shape-class bucketing and
// coalescing, QoS priorities, admission control, and batched-dispatch
// semantics.
//
// Determinism notes: size/pressure flushes happen inside submit() on the
// submitting thread, so batch composition is a pure function of the
// submission order; the age trigger runs on the flusher thread and is
// only used where the test blocks on the future anyway (flush-on-age).
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <utility>
#include <vector>

#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/util/matrix.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/workload/generators.hpp"

namespace ftm::runtime {
namespace {

using core::GemmInput;
using core::GemmResult;

TEST(ShapeClassTest, BucketsAreFloorLog2) {
  EXPECT_EQ(shape_bucket(1), 0);
  EXPECT_EQ(shape_bucket(2), 1);
  EXPECT_EQ(shape_bucket(3), 1);
  EXPECT_EQ(shape_bucket(4), 2);
  EXPECT_EQ(shape_bucket(262144), 18);
}

TEST(ShapeClassTest, NearbyShapesShareAClass) {
  EXPECT_EQ(ShapeClass::of(262144, 32, 32, 8),
            ShapeClass::of(300000, 40, 63, 8));
  EXPECT_NE(ShapeClass::of(262144, 32, 32, 8),
            ShapeClass::of(262144, 32, 32, 4));
  const ShapeClass c = ShapeClass::of(262144, 32, 32, 8);
  EXPECT_EQ(c.mb, 18);
  EXPECT_EQ(c.nb, 5);
  EXPECT_EQ(c.kb, 5);
  EXPECT_EQ(c.cores, 8);
}

TEST(ShapeClassTest, DtypeIsAClassAxis) {
  EXPECT_EQ(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F32),
            ShapeClass::of(262144, 32, 32, 8));
  EXPECT_EQ(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F16).dtype,
            static_cast<int>(kernelgen::DType::F16));
  EXPECT_NE(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F16),
            ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::BF16));
  EXPECT_NE(ShapeClass::of(262144, 32, 32, 8, kernelgen::DType::F16),
            ShapeClass::of(262144, 32, 32, 8));
}

// A lone coalescible request must not wait forever: the age trigger
// flushes it as a singleton batch, whose dispatch is unmodified (same
// cores, no repacking) but still tagged and counted as a batch.
TEST(Batch, FlushOnAgeResolvesSingleRequest) {
  RuntimeOptions ro;
  ro.clusters = 2;
  ro.gemm.functional = false;
  ro.batching.enabled = true;
  ro.batching.max_batch = 64;    // the size trigger can never fire
  ro.batching.max_delay_ms = 5;  // age trigger fires within ~7.5 ms
  GemmRuntime rt(ro);
  auto fut = rt.submit(GemmInput::shape_only(256, 16, 64));
  const GemmResult r = fut.get();  // would hang if the flusher never fired
  EXPECT_GT(r.cycles, 0u);
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.coalesced, 0u);  // a singleton is a batch of 1, not coalesced
  rt.wait_idle();
  bool found = false;
  for (const RequestStats& row : rt.request_log()) {
    if (!row.batched) continue;
    found = true;
    EXPECT_EQ(row.batch_size, 1);
    EXPECT_EQ(row.priority, Priority::Normal);
  }
  EXPECT_TRUE(found);
}

// Destroying a runtime right after construction must not wait out the
// flusher's tick: a stop issued before the flusher thread first waits used
// to be missed, leaving the join asleep for max_delay_ms / 2 (days here).
TEST(Batch, ImmediateShutdownWithLongAgeBudget) {
  RuntimeOptions ro;
  ro.clusters = 1;
  ro.gemm.functional = false;
  ro.batching.enabled = true;
  ro.batching.max_delay_ms = 1e9;
  for (int i = 0; i < 200; ++i) GemmRuntime rt(ro);
}

// Priority-scaled admission bounds: with max_queue = 8 and the batcher
// holding everything (no flush trigger can fire), Bulk sheds at depth 4,
// Normal at 8, and Latency is still admitted past both.
TEST(Batch, MixedPriorityBoundsUnderBackpressure) {
  RuntimeOptions ro;
  ro.clusters = 1;
  ro.gemm.functional = false;
  ro.batching.enabled = true;
  ro.batching.max_batch = 1000;
  ro.batching.max_held = 1000;
  ro.batching.max_delay_ms = 1e9;  // held requests stay held
  ro.batching.max_queue = 8;
  GemmRuntime rt(ro);
  const GemmInput in = GemmInput::shape_only(256, 16, 64);
  std::vector<std::future<GemmResult>> accepted;

  QosOptions bulk;
  bulk.priority = Priority::Bulk;
  for (int i = 0; i < 4; ++i) {
    SubmitResult sr = rt.try_submit(in, ro.gemm, bulk);
    ASSERT_TRUE(sr.accepted()) << "bulk " << i;
    accepted.push_back(std::move(*sr.future));
  }
  // Depth 4 = Bulk's bound (max_queue / 2): the next Bulk is shed.
  SubmitResult bulk_over = rt.try_submit(in, ro.gemm, bulk);
  EXPECT_FALSE(bulk_over.accepted());
  EXPECT_EQ(bulk_over.reject, RejectReason::QueueFull);
  EXPECT_FALSE(bulk_over.future.has_value());

  QosOptions normal;  // defaults: Priority::Normal
  for (int i = 0; i < 4; ++i) {
    SubmitResult sr = rt.try_submit(in, ro.gemm, normal);
    ASSERT_TRUE(sr.accepted()) << "normal " << i;
    accepted.push_back(std::move(*sr.future));
  }
  // Depth 8 = Normal's bound; Latency (bound 12) is still admitted.
  SubmitResult normal_over = rt.try_submit(in, ro.gemm, normal);
  EXPECT_FALSE(normal_over.accepted());
  EXPECT_EQ(normal_over.reject, RejectReason::QueueFull);
  QosOptions latency;
  latency.priority = Priority::Latency;
  SubmitResult lat = rt.try_submit(in, ro.gemm, latency);
  EXPECT_TRUE(lat.accepted());
  accepted.push_back(std::move(*lat.future));

  rt.flush_batches();
  for (auto& f : accepted) EXPECT_GT(f.get().cycles, 0u);
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.submitted, 9u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.completed, 9u);
}

// Latency submissions jump their cluster's FIFO (RequestQueue unit test:
// front-push ordering is deterministic with no workers attached, while
// end-to-end ordering under live workers is a host-time race).
TEST(Batch, LatencyFrontPushJumpsQueue) {
  RequestQueue q(1);
  auto mk = [](std::uint64_t id) {
    auto r = std::make_unique<Request>();
    r->id = id;
    r->in = GemmInput::shape_only(64, 8, 8);
    return r;
  };
  q.push(0, mk(1));
  q.push(0, mk(2));
  q.push(0, mk(3), /*front=*/true);
  bool stolen = false;
  EXPECT_EQ(q.pop(0, false, &stolen)->id, 3u);
  EXPECT_EQ(q.pop(0, false, &stolen)->id, 1u);
  EXPECT_EQ(q.pop(0, false, &stolen)->id, 2u);
}

// A batch is not a failure domain: with cluster 0 hard-faulting every DMA
// transfer, a batch dispatched there must retry each member individually
// (on cluster 1) and every future must still deliver a correct C.
TEST(Batch, MemberFaultDoesNotFailBatchMates) {
  fault::FaultPlan plan;
  plan.cluster(0).dma_error_rate = 1.0;
  fault::FaultInjector fi(plan);
  RuntimeOptions ro;
  ro.clusters = 2;
  ro.fault_injector = &fi;
  ro.resilience.enabled = true;
  ro.resilience.quarantine_after = 0;  // keep the retry count deterministic
  ro.batching.enabled = true;
  ro.batching.max_batch = 4;       // size flush on the 4th submission
  ro.batching.max_delay_ms = 1e9;  // age can never race the size trigger
  GemmRuntime rt(ro);

  const std::size_t M = 96, N = 16, K = 32;
  std::vector<workload::GemmProblem> mine, ref;
  for (int i = 0; i < 4; ++i) {
    mine.push_back(workload::make_problem(M, N, K, 500 + i));
    ref.push_back(workload::make_problem(M, N, K, 500 + i));
  }
  std::vector<std::future<GemmResult>> futs;
  for (auto& p : mine) {
    futs.push_back(
        rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
  }
  for (auto& f : futs) f.get();  // throws if any batch-mate was poisoned

  for (std::size_t i = 0; i < mine.size(); ++i) {
    cpu::reference_gemm(ref[i].a.view(), ref[i].b.view(), ref[i].c.view());
    EXPECT_LT(max_rel_diff(mine[i].c.view(), ref[i].c.view()),
              gemm_tolerance(K))
        << "member " << i;
  }
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.coalesced, 4u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_GE(s.faults, 4u);   // every member hit cluster 0's DMA fault
  EXPECT_GE(s.retries, 4u);  // and recovered alone, not as a group
}

// Batch composition is a pure function of the submission order: the same
// seeded request mix twice must produce identical id -> (batch id, batch
// size) maps, because size flushes happen on the submitting thread.
TEST(Batch, DeterministicCompositionUnderFixedSeed) {
  auto run = [] {
    RuntimeOptions ro;
    ro.clusters = 2;
    ro.gemm.functional = false;
    ro.batching.enabled = true;
    ro.batching.max_batch = 4;
    ro.batching.max_delay_ms = 1e9;  // only size + explicit flushes
    GemmRuntime rt(ro);
    Prng rng(2026);
    std::vector<std::future<GemmResult>> futs;
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t roll = rng.next_below(3);
      const GemmInput in =
          roll == 0   ? GemmInput::shape_only(256, 16, 64)
          : roll == 1 ? GemmInput::shape_only(512, 16, 32)
                      : GemmInput::shape_only(128, 32, 96);
      futs.push_back(rt.submit(in));
    }
    rt.flush_batches();
    for (auto& f : futs) f.get();
    std::map<std::uint64_t, std::pair<std::uint64_t, int>> composition;
    for (const RequestStats& r : rt.request_log()) {
      composition[r.id] = {r.batch_id, r.batch_size};
    }
    return composition;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.size(), 16u);
  EXPECT_EQ(first, second);
}

// Reject paths: submit() resolves an over-bound submission with a typed
// FaultError(Rejected); try_submit() reports the reason with no future;
// a deadline no history can meet rejects as DeadlineUnmeetable.
TEST(Batch, RejectPathsResolveTyped) {
  RuntimeOptions ro;
  ro.clusters = 1;
  ro.gemm.functional = false;
  ro.batching.enabled = true;
  ro.batching.max_batch = 1000;
  ro.batching.max_held = 1000;
  ro.batching.max_delay_ms = 1e9;
  ro.batching.max_queue = 2;
  GemmRuntime rt(ro);
  const GemmInput in = GemmInput::shape_only(256, 16, 64);

  std::vector<std::future<GemmResult>> held;
  for (int i = 0; i < 2; ++i) {
    SubmitResult sr = rt.try_submit(in);
    ASSERT_TRUE(sr.accepted());
    held.push_back(std::move(*sr.future));
  }
  // Over the Normal bound via submit(): the future throws, typed.
  auto over = rt.submit(in, ro.gemm, QosOptions{});
  try {
    over.get();
    FAIL() << "expected FaultError(Rejected)";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::Rejected);
  }
  // Same depth via try_submit(): typed reason, no future, no exception.
  SubmitResult sr = rt.try_submit(in);
  EXPECT_EQ(sr.reject, RejectReason::QueueFull);
  EXPECT_FALSE(sr.future.has_value());

  rt.flush_batches();
  for (auto& f : held) EXPECT_GT(f.get().cycles, 0u);
  rt.wait_idle();

  // Deadline admission: after completed requests of this shape class, the
  // lane-frontier backlog plus the class EWMA dwarf a 1-cycle budget.
  QosOptions tight;
  tight.deadline_cycles = 1;
  SubmitResult doomed = rt.try_submit(in, ro.gemm, tight);
  EXPECT_FALSE(doomed.accepted());
  EXPECT_EQ(doomed.reject, RejectReason::DeadlineUnmeetable);

  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.rejected, 3u);
  EXPECT_EQ(s.submitted, 2u);  // rejected submissions never count
}

// Coalesced members share one cluster (co-location, never stolen) and the
// shared-operand accounting credits A/B panels an earlier batch-mate
// already staged — while the values they compute stay correct.
TEST(Batch, SharedOperandsAndSingleClusterPacking) {
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.batching.enabled = true;
  ro.batching.max_batch = 4;
  ro.batching.max_delay_ms = 1e9;
  GemmRuntime rt(ro);

  // Four members multiplying the *same* A and B into distinct zeroed Cs
  // (grouped decode heads): panels after the first member are reuse.
  const std::size_t M = 128, N = 16, K = 64;
  workload::GemmProblem base = workload::make_problem(M, N, K, 77);
  std::vector<HostMatrix> cs;
  for (int i = 0; i < 4; ++i) cs.emplace_back(M, N);  // zero-initialized
  std::vector<std::future<GemmResult>> futs;
  for (int i = 0; i < 4; ++i) {
    futs.push_back(rt.submit(
        GemmInput::bound(base.a.view(), base.b.view(), cs[i].view())));
  }
  for (auto& f : futs) EXPECT_GT(f.get().cycles, 0u);

  HostMatrix expected(M, N);
  cpu::reference_gemm(base.a.view(), base.b.view(), expected.view());
  for (int i = 0; i < 4; ++i) {
    EXPECT_LT(max_rel_diff(cs[i].view(), expected.view()), gemm_tolerance(K))
        << "member " << i;
  }
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.coalesced, 4u);
  EXPECT_GT(s.batch_ddr_saved_bytes, 0u);
  rt.wait_idle();
  int cluster = -1;
  for (const RequestStats& r : rt.request_log()) {
    ASSERT_TRUE(r.batched);
    EXPECT_FALSE(r.stolen);  // batch members are never stolen
    if (cluster < 0) cluster = r.cluster;
    EXPECT_EQ(r.cluster, cluster);  // co-located on one cluster
  }
}

}  // namespace
}  // namespace ftm::runtime
