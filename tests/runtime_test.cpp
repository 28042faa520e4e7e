#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <vector>

#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/workload/generators.hpp"
#include "record_check.hpp"

namespace ftm::runtime {
namespace {

using core::FtimmEngine;
using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;

struct Shape {
  std::size_t m, n, k;
};

std::size_t count_mismatches(ConstMatrixView a, ConstMatrixView b) {
  std::size_t bad = 0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a.at(r, c) != b.at(r, c)) ++bad;
    }
  }
  return bad;
}

// --- acceptance (a): concurrent functional submissions, bitwise C ----------

TEST(Runtime, ConcurrentSubmissionsBitwiseCorrect) {
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.split_wide = false;  // keep the execution path identical to serial
  GemmRuntime rt(ro);

  const std::vector<Shape> shapes = {
      {64, 8, 8},   {128, 16, 16}, {96, 32, 24},   {200, 8, 40},
      {31, 7, 13},  {512, 32, 32}, {300, 64, 20},  {1024, 16, 64},
      {257, 96, 96}, {48, 24, 96},  {2048, 8, 16},  {150, 48, 48}};
  std::vector<workload::GemmProblem> mine, ref;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    mine.push_back(
        workload::make_problem(shapes[i].m, shapes[i].n, shapes[i].k, 900 + i));
    ref.push_back(
        workload::make_problem(shapes[i].m, shapes[i].n, shapes[i].k, 900 + i));
  }

  std::vector<std::future<GemmResult>> futs;
  for (auto& p : mine) {
    futs.push_back(
        rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
  }

  // Serial reference: the same shapes/values through one engine. The
  // runtime dispatches the same plans to identical simulated clusters, so
  // every C must match bit for bit, regardless of which cluster ran it.
  FtimmEngine serial;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    auto& p = ref[i];
    serial.sgemm(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
    const GemmResult r = futs[i].get();
    EXPECT_GT(r.cycles, 0u) << "problem " << i;
    EXPECT_EQ(count_mismatches(mine[i].c.view(), ref[i].c.view()), 0u)
        << "problem " << i;
  }
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.submitted, shapes.size());
  EXPECT_EQ(s.completed, shapes.size());
}

// --- acceptance (b): plan cache hit skips strategy re-selection ------------

TEST(Runtime, PlanCacheHitSkipsStrategySelection) {
  RuntimeOptions ro;
  ro.clusters = 2;
  ro.split_wide = false;
  GemmRuntime rt(ro);
  FtimmOptions opt;
  opt.functional = false;

  const GemmInput in = GemmInput::shape_only(4096, 16, 256);
  const GemmResult first = rt.submit(in, opt).get();
  EXPECT_EQ(rt.stats().plan_misses, 1u);
  EXPECT_EQ(rt.stats().plan_hits, 0u);
  EXPECT_EQ(rt.plans().size(), 1u);

  const GemmResult second = rt.submit(in, opt).get();
  EXPECT_EQ(rt.stats().plan_misses, 1u);  // no re-selection on the hit
  EXPECT_GE(rt.stats().plan_hits, 1u);
  EXPECT_EQ(rt.plans().size(), 1u);
  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(first.strategy, second.strategy);

  const auto log = rt.request_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log[0].plan_cache_hit);
  EXPECT_TRUE(log[1].plan_cache_hit);

  // A different shape is a different key.
  rt.submit(GemmInput::shape_only(64, 16, 8192), opt).get();
  EXPECT_EQ(rt.stats().plan_misses, 2u);
  EXPECT_EQ(rt.plans().size(), 2u);
}

// --- acceptance (c): multi-cluster makespan <= single-cluster batched ------

TEST(Runtime, FourClusterMakespanBeatsSingleClusterBatched) {
  std::vector<GemmInput> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(GemmInput::shape_only(20480, 96, 2048));  // wide
  }
  for (int i = 0; i < 13; ++i) {
    inputs.push_back(GemmInput::shape_only(512, 16, 32));  // small
  }
  FtimmOptions opt;
  opt.functional = false;

  RuntimeOptions ro;
  ro.clusters = 4;
  ro.gemm = opt;
  GemmRuntime rt(ro);
  const core::BatchResult multi = rt.run_all(inputs, opt);

  ro.clusters = 1;
  GemmRuntime one(ro);
  const core::BatchResult single = one.run_all(inputs, opt);

  EXPECT_EQ(multi.problems, inputs.size());
  EXPECT_EQ(multi.wide_problems, 3u);
  EXPECT_EQ(multi.small_problems, 13u);
  EXPECT_EQ(static_cast<std::size_t>(multi.cluster_cycles.size()), 4u);
  EXPECT_LT(multi.cycles, single.cycles);
}

// --- wide-problem splitting ------------------------------------------------

TEST(Runtime, WideSubmissionSplitsAcrossIdleClusters) {
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.gemm.functional = false;
  GemmRuntime rt(ro);

  const GemmInput in = GemmInput::shape_only(1 << 16, 96, 512);
  const GemmResult sharded = rt.submit(in).get();
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.splits, 1u);
  EXPECT_EQ(s.executed, 4u);   // one shard per idle cluster
  EXPECT_EQ(s.completed, 1u);  // one future

  FtimmEngine eng;
  FtimmOptions opt;
  opt.functional = false;
  const GemmResult whole = eng.sgemm(in, opt);
  EXPECT_LT(sharded.cycles, whole.cycles);
}

TEST(Runtime, SplitFunctionalResultMatchesReference) {
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.wide_problem_flops = 1e6;  // force the split on a modest shape
  GemmRuntime rt(ro);

  workload::GemmProblem p = workload::make_problem(4096, 32, 64, 1234);
  HostMatrix expect(p.m, p.n);
  for (std::size_t i = 0; i < p.m; ++i) {
    for (std::size_t j = 0; j < p.n; ++j) expect.at(i, j) = p.c.at(i, j);
  }
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());

  const GemmResult r =
      rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())).get();
  EXPECT_EQ(rt.stats().splits, 1u);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(p.k));
}

// --- SplitGroup failure path (ISSUE 3 regression) --------------------------
//
// A shard that faults must fail the merged future with the typed error
// (fail-fast mode) or be re-dispatched to a healthy cluster (resilient
// mode) — and in neither case may the parent future hang.

TEST(Runtime, SplitShardFaultFailsGroupTypedWhenFailFast) {
  fault::FaultPlan plan;
  plan.cluster(2).dead = true;
  fault::FaultInjector fi(plan);
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.wide_problem_flops = 1e6;
  ro.work_stealing = false;  // pin each shard to its idle-cluster target
  ro.fault_injector = &fi;
  GemmRuntime rt(ro);

  workload::GemmProblem p = workload::make_problem(4096, 32, 64, 77);
  auto fut = rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
  try {
    fut.get();
    FAIL() << "shard on the dead cluster must fail the group";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::ClusterDead);
    EXPECT_EQ(e.cluster(), 2);
  }
  rt.wait_idle();  // sibling shards drain; nothing is left in flight
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.splits, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 0u);
}

TEST(Runtime, SplitShardFaultIsRedispatchedWhenResilient) {
  fault::FaultPlan plan;
  plan.cluster(2).dead = true;
  fault::FaultInjector fi(plan);
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.wide_problem_flops = 1e6;
  ro.work_stealing = false;
  ro.fault_injector = &fi;
  ro.resilience.enabled = true;
  GemmRuntime rt(ro);

  workload::GemmProblem p = workload::make_problem(4096, 32, 64, 77);
  HostMatrix expect(p.m, p.n);
  for (std::size_t i = 0; i < p.m; ++i) {
    for (std::size_t j = 0; j < p.n; ++j) expect.at(i, j) = p.c.at(i, j);
  }
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());

  const GemmResult r =
      rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())).get();
  EXPECT_GT(r.cycles, 0u);
  EXPECT_LT(max_rel_diff(p.c.view(), expect.view()), gemm_tolerance(p.k));
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.splits, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.retries + s.fallbacks, 1u);  // the dead shard went elsewhere
}

// --- split-result merging -------------------------------------------------
//
// The merged result of a split request describes the parent problem in
// the shards' precision: their dtype and its peak, the slowest shard's
// cycles, and the shards' host time and ABFT accounting summed.

TEST(Runtime, SplitHalfRequestMergesDtypeAndShardAccounting) {
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.gemm.functional = false;
  GemmRuntime rt(ro);
  FtimmOptions opt = ro.gemm;
  opt.dtype = kernelgen::DType::F16;
  const GemmResult r =
      rt.submit(GemmInput::shape_only(65536, 64, 4096), opt).get();
  rt.wait_idle();
  ASSERT_EQ(rt.stats().splits, 1u);
  const std::vector<RequestStats> shards = rt.request_log();
  ASSERT_EQ(shards.size(), 4u);

  EXPECT_EQ(r.dtype, kernelgen::DType::F16);
  std::uint64_t cycles = 0, checks = 0, detected = 0, corrected = 0;
  double host_us = 0;
  for (const RequestStats& sh : shards) {
    EXPECT_EQ(sh.dtype, kernelgen::DType::F16);
    cycles = std::max(cycles, sh.cycles);
    host_us += sh.host_wall_us;
    checks += sh.checksum_checks;
    detected += sh.sdc_detected;
    corrected += sh.sdc_corrected;
  }
  EXPECT_EQ(r.cycles, cycles);
  EXPECT_GT(r.host_wall_us, 0.0);
  EXPECT_NEAR(r.host_wall_us, host_us, 1e-9 * host_us);
  EXPECT_EQ(r.checksum_checks, checks);
  EXPECT_EQ(r.sdc_detected, detected);
  EXPECT_EQ(r.sdc_corrected, corrected);
  // Rates against the F16 peak of every core of every shard.
  test::expect_record(r, 2.0 * 65536 * 64 * 4096,
                      r.cores * static_cast<int>(shards.size()),
                      kernelgen::DType::F16, rt.machine());
}

TEST(Runtime, SplitMergeSumsShardChecksums) {
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.wide_problem_flops = 1e6;
  ro.integrity = core::IntegrityMode::Verify;
  GemmRuntime rt(ro);
  workload::GemmProblem p = workload::make_problem(4096, 32, 64, 21);
  const GemmResult r =
      rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())).get();
  rt.wait_idle();
  ASSERT_EQ(rt.stats().splits, 1u);
  std::uint64_t checks = 0;
  for (const RequestStats& sh : rt.request_log()) checks += sh.checksum_checks;
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(r.checksum_checks, checks);
  EXPECT_EQ(r.checksum_checks, rt.stats().checksum_checks);
}

// --- resilience scheduling edges (ISSUE 3) ---------------------------------

TEST(Runtime, WaitIdleBlocksThroughRetryBackoff) {
  fault::FaultPlan plan;
  plan.cluster(0).dead = true;  // least_loaded ties to 0: first bind faults
  fault::FaultInjector fi(plan);
  RuntimeOptions ro;
  ro.clusters = 2;
  ro.work_stealing = false;
  ro.fault_injector = &fi;
  ro.resilience.enabled = true;
  ro.resilience.backoff_ms = 60;
  GemmRuntime rt(ro);

  workload::GemmProblem p = workload::make_problem(64, 32, 32, 5);
  const auto t0 = std::chrono::steady_clock::now();
  auto fut = rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view()));
  rt.wait_idle();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // The faulted request stays "executing" through its backoff, so
  // wait_idle() cannot return before the retry has fully resolved.
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_GE(ms, 50.0);
  EXPECT_GT(fut.get().cycles, 0u);
  EXPECT_GE(rt.stats().retries, 1u);
}

TEST(Runtime, FaultedAttemptIsLoggedBeforeRetryResolves) {
  // The faulted attempt's row must be in the log before its retry can
  // deliver: a caller woken by get() reads both rows, every time.
  fault::FaultPlan plan;
  plan.cluster(0).dead = true;  // least_loaded ties to 0: first bind faults
  fault::FaultInjector fi(plan);
  RuntimeOptions ro;
  ro.clusters = 2;
  ro.work_stealing = false;
  ro.fault_injector = &fi;
  ro.resilience.enabled = true;
  ro.resilience.backoff_ms = 0;
  ro.resilience.quarantine_after = 0;  // keep binding the dead cluster
  GemmRuntime rt(ro);

  workload::GemmProblem p = workload::make_problem(64, 32, 32, 5);
  const auto in = GemmInput::bound(p.a.view(), p.b.view(), p.c.view());
  for (std::uint64_t id = 1; id <= 200; ++id) {
    rt.submit(in).get();
    std::vector<RequestStats> rows;
    for (const RequestStats& r : rt.request_log()) {
      if (r.id == id) rows.push_back(r);
    }
    ASSERT_EQ(rows.size(), 2u) << "request " << id;
    EXPECT_TRUE(rows[0].fault && rows[0].attempt == 0) << "request " << id;
    EXPECT_TRUE(!rows[1].fault && rows[1].attempt == 1) << "request " << id;
    rt.wait_idle();  // the faulted worker releases its load before the next
  }
}

// --- request queue ---------------------------------------------------------

std::unique_ptr<Request> make_queue_request(std::uint64_t id, std::size_t m) {
  auto r = std::make_unique<Request>();
  r->id = id;
  r->in = core::GemmInput::shape_only(m, 16, 16);
  r->submit_time = std::chrono::steady_clock::now();
  return r;
}

TEST(RequestQueue, PopsOwnQueueFifo) {
  RequestQueue q(2);
  q.push(0, make_queue_request(1, 64));
  q.push(0, make_queue_request(2, 64));
  bool stolen = true;
  auto r = q.pop(0, true, &stolen);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, 1u);
  EXPECT_FALSE(stolen);
  q.finished(0, r->in.flops());
  r = q.pop(0, true, &stolen);
  EXPECT_EQ(r->id, 2u);
  q.finished(0, r->in.flops());
}

TEST(RequestQueue, StealsNewestFromMostLoadedVictim) {
  RequestQueue q(3);
  q.push(0, make_queue_request(1, 64));
  q.push(1, make_queue_request(2, 4096));  // most-loaded victim
  q.push(1, make_queue_request(3, 4096));
  bool stolen = false;
  auto r = q.pop(2, true, &stolen);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(stolen);
  EXPECT_EQ(r->id, 3u);  // newest entry of cluster 1
  q.finished(2, r->in.flops());
  // With stealing off, cluster 2 would block; shutdown drains instead.
  q.shutdown();
  EXPECT_EQ(q.pop(2, false, &stolen), nullptr);
  // Remaining work is still handed out after shutdown (drain semantics).
  r = q.pop(0, false, &stolen);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, 1u);
  q.finished(0, r->in.flops());
  r = q.pop(1, false, &stolen);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, 2u);
  q.finished(1, r->in.flops());
  EXPECT_EQ(q.pop(1, true, &stolen), nullptr);
}

TEST(RequestQueue, StealNeverTakesFromQuarantinedVictim) {
  RequestQueue q(2);
  q.push(0, make_queue_request(1, 4096));
  q.push(0, make_queue_request(2, 4096));
  q.set_enabled(0, false);
  EXPECT_FALSE(q.enabled(0));

  std::unique_ptr<Request> r;
  bool stolen = false;
  // Cluster 1 is idle and allowed to steal — but 0 is quarantined, so its
  // queued work is off limits.
  EXPECT_EQ(q.pop_wait(1, true, std::chrono::milliseconds(20), &r, &stolen),
            RequestQueue::PopResult::Timeout);
  EXPECT_EQ(r, nullptr);

  // The quarantined cluster's own worker still drains its deque...
  EXPECT_EQ(q.pop_wait(0, false, std::chrono::milliseconds(20), &r, &stolen),
            RequestQueue::PopResult::Item);
  EXPECT_EQ(r->id, 1u);
  q.finished(0, r->in.flops());

  // ...and re-enabling makes the remaining entry stealable again.
  q.set_enabled(0, true);
  EXPECT_EQ(q.pop_wait(1, true, std::chrono::milliseconds(20), &r, &stolen),
            RequestQueue::PopResult::Item);
  EXPECT_EQ(r->id, 2u);
  EXPECT_TRUE(stolen);
  q.finished(1, r->in.flops());
}

TEST(RequestQueue, QuarantinedClusterDrainsOwnQueueAfterShutdown) {
  RequestQueue q(2);
  q.set_enabled(0, false);
  q.push(0, make_queue_request(1, 64));  // queued work held under quarantine
  q.shutdown();
  EXPECT_TRUE(q.stopped());

  // Shutdown must not strand the quarantined cluster's queued request.
  std::unique_ptr<Request> r;
  bool stolen = false;
  EXPECT_EQ(q.pop_wait(0, false, std::chrono::milliseconds(20), &r, &stolen),
            RequestQueue::PopResult::Item);
  EXPECT_EQ(r->id, 1u);
  q.finished(0, r->in.flops());
  EXPECT_EQ(q.pop_wait(0, false, std::chrono::milliseconds(5), &r, &stolen),
            RequestQueue::PopResult::Shutdown);

  // Retry re-pushes are refused after shutdown, leaving the request with
  // the caller (who fails it over to the CPU or a typed error).
  auto extra = make_queue_request(2, 64);
  EXPECT_FALSE(q.try_push(1, extra));
  ASSERT_NE(extra, nullptr);  // ownership retained on refusal
  EXPECT_EQ(extra->id, 2u);
}

TEST(RequestQueue, LeastLoadedPrefersEnabledClusters) {
  RequestQueue q(3);
  q.push(1, make_queue_request(1, 4096));
  EXPECT_EQ(q.least_loaded(), 0);
  q.set_enabled(0, false);
  EXPECT_EQ(q.least_loaded(), 2);
  q.set_enabled(2, false);
  EXPECT_EQ(q.least_loaded(), 1);  // only enabled cluster, however loaded
  q.set_enabled(1, false);
  EXPECT_EQ(q.least_loaded(), 0);  // all disabled: load-only fallback
  const auto idle = q.idle_clusters();
  EXPECT_TRUE(idle.empty());  // disabled clusters are never "idle"
  bool stolen = false;
  q.shutdown();
  auto r = q.pop(1, false, &stolen);
  ASSERT_NE(r, nullptr);
  q.finished(1, r->in.flops());
}

TEST(RequestQueue, WaitStopForWakesOnShutdown) {
  RequestQueue q(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.wait_stop_for(std::chrono::duration<double, std::milli>(5)));
  q.shutdown();
  EXPECT_TRUE(q.wait_stop_for(
      std::chrono::duration<double, std::milli>(60'000)));  // returns now
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 10'000.0);
}

// --- option validation and error propagation -------------------------------

TEST(Runtime, RejectsNonPositiveWideThreshold) {
  // The threshold is validated once, when the runtime is built.
  RuntimeOptions ro;
  ro.clusters = 1;
  for (const double bad : {0.0, -1.0, std::nan("")}) {
    ro.wide_problem_flops = bad;
    EXPECT_THROW(GemmRuntime{ro}, ContractViolation) << bad;
  }
}

TEST(Runtime, WorkerExceptionsPropagateThroughFuture) {
  RuntimeOptions ro;
  ro.clusters = 2;
  GemmRuntime rt(ro);
  // functional mode with unbound views: the DMA layer rejects the null
  // host pointers inside the worker; the future must rethrow it here.
  FtimmOptions opt;
  opt.functional = true;
  auto fut = rt.submit(GemmInput::shape_only(64, 8, 8), opt);
  EXPECT_THROW(fut.get(), ContractViolation);
  // The runtime stays usable afterwards.
  opt.functional = false;
  EXPECT_GT(rt.submit(GemmInput::shape_only(64, 8, 8), opt).get().cycles, 0u);
}

// --- stats / reporting -----------------------------------------------------

TEST(Runtime, ReportSurfacesPerClusterAndCacheCounters) {
  RuntimeOptions ro;
  ro.clusters = 2;
  ro.gemm.functional = false;
  ro.split_wide = false;
  GemmRuntime rt(ro);
  // The first request completes alone: two idle clusters looking up a
  // shape for the first time at once would both miss (a documented
  // PlanCache race), which made the hit count below timing-dependent.
  rt.submit(GemmInput::shape_only(256, 16, 16)).get();
  std::vector<std::future<GemmResult>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(rt.submit(GemmInput::shape_only(256, 16, 16)));
  }
  for (auto& f : futs) f.get();

  const Table t = rt.report();
  // one row per cluster plus the totals row
  EXPECT_EQ(t.rows().size(), 3u);
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.executed, 6u);
  EXPECT_EQ(s.cluster_requests.size(), 2u);
  EXPECT_EQ(s.cluster_requests[0] + s.cluster_requests[1] + s.steals -
                s.steals,  // steals already included per cluster
            6u);
  EXPECT_EQ(s.plan_hits + s.plan_misses, 6u);
  EXPECT_GE(s.plan_hits, 5u);  // same shape six times
  EXPECT_GT(rt.makespan_cycles(), 0u);
  rt.reset_clocks();
  EXPECT_EQ(rt.makespan_cycles(), 0u);
}

}  // namespace
}  // namespace ftm::runtime
