// Chaos harness for the self-healing runtime (ISSUE 3) and the ABFT
// integrity layer (ISSUE 8): drive mixed irregular GEMM traffic through
// GemmRuntime while a seeded FaultInjector breaks DMA transfers, corrupts
// scratchpads, flips bits in stored results, stalls clusters, and kills
// them outright. The invariants checked here are the runtime's whole
// contract under faults:
//
//   * every submitted future resolves — with a correct C (to
//     gemm_tolerance, since retries/CPU fallback may change accumulation
//     order) or with a typed ftm::FaultError — never a hang, never a
//     crash, and never silent corruption;
//   * a failed request leaves C bitwise as submitted (the snapshot
//     restore), because C += A*B is not idempotent;
//   * with every DSP cluster dead, requests still complete on the host
//     CPU, visibly (GemmResult::cpu_fallback, stats, trace counters);
//   * a stalled cluster is quarantined via simulated-cycle deadline
//     misses; a dead cluster is quarantined and later re-admitted by the
//     recovery probe once revived;
//   * the injector itself is deterministic in its seed.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/workload/generators.hpp"

namespace ftm::runtime {
namespace {

using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;

struct Shape {
  std::size_t m, n, k;
};

// Small irregular shapes so hundreds of functional requests stay fast.
const std::vector<Shape> kMix = {
    {64, 48, 32}, {31, 7, 13},  {96, 16, 64}, {24, 24, 96},
    {80, 8, 40},  {57, 33, 19}, {128, 16, 16}, {16, 96, 16},
};

struct ChaosProblem {
  workload::GemmProblem p;
  HostMatrix original;  ///< C as submitted (failure must restore this)
  HostMatrix expected;  ///< C0 + A*B via the reference GEMM
};

ChaosProblem make_chaos_problem(const Shape& s, std::uint64_t seed) {
  ChaosProblem cp{workload::make_problem(s.m, s.n, s.k, seed),
                  HostMatrix(s.m, s.n), HostMatrix(s.m, s.n)};
  for (std::size_t i = 0; i < s.m; ++i) {
    for (std::size_t j = 0; j < s.n; ++j) {
      cp.original.at(i, j) = cp.p.c.at(i, j);
      cp.expected.at(i, j) = cp.p.c.at(i, j);
    }
  }
  cpu::reference_gemm(cp.p.a.view(), cp.p.b.view(), cp.expected.view());
  return cp;
}

std::size_t count_mismatches(ConstMatrixView a, ConstMatrixView b) {
  std::size_t bad = 0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a.at(r, c) != b.at(r, c)) ++bad;
    }
  }
  return bad;
}

RuntimeOptions resilient_options(fault::FaultInjector* fi, int clusters = 4) {
  RuntimeOptions ro;
  ro.clusters = clusters;
  ro.split_wide = false;
  ro.fault_injector = fi;
  ro.resilience.enabled = true;
  ro.resilience.max_retries = 2;
  ro.resilience.quarantine_after = 3;
  ro.resilience.probe_interval_ms = 1;
  // Chaos plans inject silent corruption (ISSUE 8); without the ABFT
  // checksum the "correct C" invariant below would be unprovable.
  ro.integrity = core::IntegrityMode::VerifyCorrect;
  return ro;
}

// --- the headline invariant: hundreds of requests, three fixed seeds -------

TEST(Chaos, EveryFutureResolvesCorrectlyUnderMixedFaults) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    fault::FaultInjector fi(fault::FaultPlan::chaos(seed, 4));
    GemmRuntime rt(resilient_options(&fi));

    constexpr int kRequests = 100;
    std::vector<ChaosProblem> problems;
    std::vector<std::future<GemmResult>> futs;
    problems.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      problems.push_back(
          make_chaos_problem(kMix[i % kMix.size()], seed * 1000 + i));
      auto& p = problems.back().p;
      futs.push_back(
          rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
    }

    int completed = 0;
    for (int i = 0; i < kRequests; ++i) {
      ChaosProblem& cp = problems[static_cast<std::size_t>(i)];
      try {
        const GemmResult r = futs[static_cast<std::size_t>(i)].get();
        ++completed;
        if (!r.cpu_fallback) {
          EXPECT_GT(r.cycles, 0u) << "request " << i;
        }
        EXPECT_LT(max_rel_diff(cp.p.c.view(), cp.expected.view()),
                  gemm_tolerance(cp.p.k))
            << "seed " << seed << " request " << i;
      } catch (const FaultError&) {
        // Typed failure: C must be exactly as submitted.
        EXPECT_EQ(count_mismatches(cp.p.c.view(), cp.original.view()), 0u)
            << "seed " << seed << " request " << i;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "seed " << seed << " request " << i
                      << " resolved with a non-Fault exception: " << e.what();
      }
    }
    // With CPU fallback enabled nothing may fail; with a chaos plan (one
    // dead cluster) faults must actually have been exercised.
    EXPECT_EQ(completed, kRequests) << "seed " << seed;
    const RuntimeStats s = rt.stats();
    EXPECT_EQ(s.completed + s.failed, s.submitted) << "seed " << seed;
    EXPECT_GT(fi.injected_total(), 0u) << "seed " << seed;
    EXPECT_GT(s.faults, 0u) << "seed " << seed;
  }
}

// --- ABFT acceptance: a silent-corruption storm may not escape -------------
//
// SDC-only plans: no loud faults at all, just seeded bit flips landing in
// stored C panels exactly where an ECC escape would put them. Every
// injected flip must either be corrected in place by the checksum layer
// or escalate as a typed IntegrityError whose recompute delivers a
// correct C. The sweep drives >= 1000 flips across rounds and asserts
// zero silent escapes — "all delivered C correct", not "most".
TEST(Chaos, SdcSweepZeroSilentEscapes) {
  std::uint64_t flips = 0, corrected = 0, recomputed = 0;
  std::uint64_t detected = 0, checks = 0;
  for (std::uint64_t round = 0; flips < 1000; ++round) {
    ASSERT_LT(round, 64u) << "sweep failed to reach 1000 injected flips";
    fault::FaultPlan plan;
    plan.seed = 2026 + round;
    for (int c = 0; c < 4; ++c) {
      // Spread the rates so low-rate clusters exercise single-element
      // correction while high-rate ones force multi-error recomputes.
      plan.cluster(c).silent_corruption_rate = 0.05 * (c + 1);
    }
    fault::FaultInjector fi(plan);
    GemmRuntime rt(resilient_options(&fi));

    constexpr int kRequests = 64;
    std::vector<ChaosProblem> problems;
    std::vector<std::future<GemmResult>> futs;
    problems.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      problems.push_back(
          make_chaos_problem(kMix[i % kMix.size()], round * 10000 + i));
      auto& p = problems.back().p;
      futs.push_back(
          rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
    }
    for (int i = 0; i < kRequests; ++i) {
      ChaosProblem& cp = problems[static_cast<std::size_t>(i)];
      const GemmResult r = futs[static_cast<std::size_t>(i)].get();
      // An ABFT-corrected element is recomputed, so a delivered C meets
      // gemm_tolerance(k) whether or not a flip hit it.
      EXPECT_LT(max_rel_diff(cp.p.c.view(), cp.expected.view()),
                gemm_tolerance(cp.p.k))
          << "round " << round << " request " << i << " corrected "
          << r.sdc_corrected;
    }
    const RuntimeStats s = rt.stats();
    EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(fi.injected_total(), fi.injected(FaultKind::SilentCorruption))
        << "an SDC-only plan may not inject loud faults";
    flips += fi.injected(FaultKind::SilentCorruption);
    detected += s.sdc_detected;
    corrected += s.sdc_corrected;
    recomputed += s.recomputed_shards;
    checks += s.checksum_checks;
  }
  EXPECT_GE(flips, 1000u);
  EXPECT_GT(checks, 0u);
  EXPECT_GT(detected, 0u);
  EXPECT_GE(corrected, 1u) << "sweep never exercised in-place correction";
  EXPECT_GE(recomputed, 1u) << "sweep never exercised the recompute path";
}

// Without the CPU safety net, failures are allowed — but only as typed
// FaultErrors that leave C untouched. All clusters dead makes every
// request fail deterministically.
TEST(Chaos, ExhaustedRetriesFailTypedAndRestoreC) {
  fault::FaultPlan plan;
  for (int c = 0; c < 4; ++c) plan.cluster(c).dead = true;
  fault::FaultInjector fi(plan);
  RuntimeOptions ro = resilient_options(&fi);
  ro.resilience.cpu_fallback = false;
  GemmRuntime rt(ro);

  std::vector<ChaosProblem> problems;
  std::vector<std::future<GemmResult>> futs;
  for (int i = 0; i < 8; ++i) {
    problems.push_back(make_chaos_problem(kMix[i % kMix.size()], 500 + i));
    auto& p = problems.back().p;
    futs.push_back(
        rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_THROW(futs[static_cast<std::size_t>(i)].get(), FaultError);
    const auto& pi = problems[static_cast<std::size_t>(i)];
    EXPECT_EQ(count_mismatches(pi.p.c.view(), pi.original.view()), 0u)
        << "request " << i;
  }
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.failed, 8u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.fallbacks, 0u);
}

// --- acceptance: all clusters killed, CPU fallback keeps serving -----------

TEST(Chaos, AllClustersDeadFallsBackToCpu) {
  trace::TraceSession session;
  session.start();
  fault::FaultPlan plan;
  for (int c = 0; c < 4; ++c) plan.cluster(c).dead = true;
  fault::FaultInjector fi(plan);
  {
    GemmRuntime rt(resilient_options(&fi));

    std::vector<ChaosProblem> problems;
    std::vector<std::future<GemmResult>> futs;
    for (int i = 0; i < 12; ++i) {
      problems.push_back(make_chaos_problem(kMix[i % kMix.size()], 700 + i));
      auto& p = problems.back().p;
      futs.push_back(
          rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
    }
    for (int i = 0; i < 12; ++i) {
      const GemmResult r = futs[static_cast<std::size_t>(i)].get();
      EXPECT_TRUE(r.cpu_fallback) << "request " << i;
      EXPECT_EQ(r.cycles, 0u) << "host CPU is outside the cycle model";
      ChaosProblem& cp = problems[static_cast<std::size_t>(i)];
      EXPECT_LT(max_rel_diff(cp.p.c.view(), cp.expected.view()),
                gemm_tolerance(cp.p.k))
          << "request " << i;
    }

    const RuntimeStats s = rt.stats();
    EXPECT_EQ(s.fallbacks, 12u);
    EXPECT_EQ(s.completed, 12u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_GT(s.faults, 0u);
    std::uint64_t quarantines = 0;
    for (const std::uint64_t q : s.cluster_quarantines) quarantines += q;
    EXPECT_GE(quarantines, 1u);
    EXPECT_EQ(fi.injected(FaultKind::ClusterDead), fi.injected_total());

    // report() carries the health evidence: one row per cluster + totals.
    EXPECT_EQ(rt.report().rows().size(), 5u);
    bool any_fallback_logged = false;
    for (const RequestStats& r : rt.request_log()) {
      any_fallback_logged = any_fallback_logged || r.cpu_fallback;
    }
    EXPECT_TRUE(any_fallback_logged);
  }
  session.stop();
  EXPECT_EQ(session.counters().value("runtime.fallbacks"), 12u);
  EXPECT_GT(session.counters().value("fault.injected"), 0u);
  EXPECT_GE(session.counters().value("runtime.quarantines"), 1u);
}

// --- stalled cluster: quarantined through simulated-cycle deadlines --------

TEST(Chaos, StalledClusterQuarantinedViaSimDeadline) {
  const Shape shape{64, 48, 32};
  // Healthy cycle cost of the test shape, measured fault-free.
  core::FtimmEngine probe_engine;
  FtimmOptions probe_opt;
  probe_opt.functional = false;
  const std::uint64_t healthy =
      probe_engine.sgemm(GemmInput::shape_only(shape.m, shape.n, shape.k),
                         probe_opt)
          .cycles;
  ASSERT_GT(healthy, 0u);

  fault::FaultPlan plan;
  plan.cluster(1).stall_multiplier = 8.0;
  fault::FaultInjector fi(plan);
  RuntimeOptions ro = resilient_options(&fi, 2);
  // Stealing off so cluster 1 must execute its own bound share — making
  // the three consecutive deadline misses (and the quarantine) certain.
  ro.work_stealing = false;
  // Between 1x (healthy passes) and 8x (stalled blows it). The recovery
  // probe's 64^3 canary also blows it at 8x, so the quarantine holds.
  ro.resilience.deadline_cycles = 4 * healthy;
  GemmRuntime rt(ro);

  std::vector<ChaosProblem> problems;
  std::vector<std::future<GemmResult>> futs;
  for (int i = 0; i < 30; ++i) {
    problems.push_back(make_chaos_problem(shape, 900 + i));
    auto& p = problems.back().p;
    futs.push_back(
        rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
  }
  for (int i = 0; i < 30; ++i) {
    const GemmResult r = futs[static_cast<std::size_t>(i)].get();
    ChaosProblem& cp = problems[static_cast<std::size_t>(i)];
    EXPECT_LT(max_rel_diff(cp.p.c.view(), cp.expected.view()),
              gemm_tolerance(cp.p.k))
        << "request " << i;
    EXPECT_FALSE(r.cpu_fallback) << "cluster 0 can absorb all retries";
  }
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.completed, 30u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.deadline_misses, 3u);
  EXPECT_GE(s.retries, 3u);
  EXPECT_GE(s.cluster_quarantines[1], 1u);
  EXPECT_EQ(s.cluster_quarantines[0], 0u);
  EXPECT_TRUE(rt.quarantined(1));
  EXPECT_FALSE(rt.quarantined(0));
  EXPECT_GT(fi.injected(FaultKind::ClusterStall), 0u);
}

// --- dead cluster revived: the probe re-admits it ---------------------------

TEST(Chaos, RevivedClusterRecoversThroughProbe) {
  fault::FaultPlan plan;
  plan.cluster(1).dead = true;
  fault::FaultInjector fi(plan);
  RuntimeOptions ro = resilient_options(&fi, 2);
  ro.work_stealing = false;
  GemmRuntime rt(ro);

  auto run_batch = [&](int count, std::uint64_t seed) {
    std::vector<ChaosProblem> problems;
    std::vector<std::future<GemmResult>> futs;
    for (int i = 0; i < count; ++i) {
      problems.push_back(make_chaos_problem(kMix[i % kMix.size()], seed + i));
      auto& p = problems.back().p;
      futs.push_back(
          rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
    }
    for (int i = 0; i < count; ++i) {
      futs[static_cast<std::size_t>(i)].get();
      ChaosProblem& cp = problems[static_cast<std::size_t>(i)];
      EXPECT_LT(max_rel_diff(cp.p.c.view(), cp.expected.view()),
                gemm_tolerance(cp.p.k));
    }
  };

  run_batch(20, 1100);
  EXPECT_TRUE(rt.quarantined(1));
  EXPECT_GE(rt.stats().cluster_quarantines[1], 1u);

  fi.set_dead(1, false);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (rt.quarantined(1) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(rt.quarantined(1)) << "probe should have re-admitted it";
  EXPECT_GE(rt.stats().cluster_probes[1], 1u);

  run_batch(10, 1200);
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.completed, 30u);
  EXPECT_EQ(s.failed, 0u);
}

// --- shutdown while faulty work is still queued: nothing may hang ----------

TEST(Chaos, ShutdownWithQueuedWorkResolvesEveryFuture) {
  fault::FaultPlan plan;
  for (int c = 0; c < 4; ++c) plan.cluster(c).dead = true;
  fault::FaultInjector fi(plan);
  std::vector<ChaosProblem> problems;
  std::vector<std::future<GemmResult>> futs;
  {
    GemmRuntime rt(resilient_options(&fi));
    for (int i = 0; i < 8; ++i) {
      problems.push_back(make_chaos_problem(kMix[i % kMix.size()], 1300 + i));
      auto& p = problems.back().p;
      futs.push_back(
          rt.submit(GemmInput::bound(p.a.view(), p.b.view(), p.c.view())));
    }
    // ~rt runs here: shutdown drains quarantined queues and the retry
    // paths fail over to the CPU because re-push is refused.
  }
  for (int i = 0; i < 8; ++i) {
    ChaosProblem& cp = problems[static_cast<std::size_t>(i)];
    try {
      const GemmResult r = futs[static_cast<std::size_t>(i)].get();
      EXPECT_TRUE(r.cpu_fallback);
      EXPECT_LT(max_rel_diff(cp.p.c.view(), cp.expected.view()),
                gemm_tolerance(cp.p.k));
    } catch (const FaultError&) {
      EXPECT_EQ(count_mismatches(cp.p.c.view(), cp.original.view()), 0u);
    }
  }
}

// --- injector determinism ---------------------------------------------------

TEST(Chaos, InjectorIsDeterministicInItsSeed) {
  const fault::FaultPlan plan = fault::FaultPlan::chaos(42, 4);
  fault::FaultInjector a(plan), b(plan);
  // Same plan, same call sequence => identical injected outcomes.
  for (int c = 0; c < 4; ++c) {
    if (plan.clusters[static_cast<std::size_t>(c)].dead) continue;
    for (int i = 0; i < 200; ++i) {
      std::int64_t oa = -1, ob = -1;  // -1 error, -2 ecc, else penalty
      try {
        oa = static_cast<std::int64_t>(a.on_dma(c, i % 8, 4096));
      } catch (const FaultError& e) {
        oa = e.kind() == FaultKind::SpmEcc ? -2 : -1;
      }
      try {
        ob = static_cast<std::int64_t>(b.on_dma(c, i % 8, 4096));
      } catch (const FaultError& e) {
        ob = e.kind() == FaultKind::SpmEcc ? -2 : -1;
      }
      ASSERT_EQ(oa, ob) << "cluster " << c << " call " << i;
    }
  }
  EXPECT_EQ(a.injected_total(), b.injected_total());

  // chaos() itself is deterministic in the seed and varies across seeds.
  const fault::FaultPlan p1 = fault::FaultPlan::chaos(7, 4);
  const fault::FaultPlan p2 = fault::FaultPlan::chaos(7, 4);
  const fault::FaultPlan p3 = fault::FaultPlan::chaos(8, 4);
  ASSERT_EQ(p1.clusters.size(), p2.clusters.size());
  bool differs = false;
  for (std::size_t c = 0; c < p1.clusters.size(); ++c) {
    EXPECT_EQ(p1.clusters[c].dma_error_rate, p2.clusters[c].dma_error_rate);
    EXPECT_EQ(p1.clusters[c].stall_multiplier,
              p2.clusters[c].stall_multiplier);
    EXPECT_EQ(p1.clusters[c].dead, p2.clusters[c].dead);
    differs = differs ||
              p1.clusters[c].dma_error_rate != p3.clusters[c].dma_error_rate ||
              p1.clusters[c].dead != p3.clusters[c].dead;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace ftm::runtime
