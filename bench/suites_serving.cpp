// The multi-cluster runtime (docs/serving.md, docs/robustness.md):
// throughput vs offered load, the optional DMA-fault goodput sweep, the
// open-loop arrival replay with and without shape-class coalescing, and
// the silent-data-corruption sweep under ABFT verify+correct.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/util/stats.hpp"
#include "ftm/workload/generators.hpp"
#include "harness.hpp"

namespace ftm::bench {

using core::GemmInput;
using runtime::GemmRuntime;
using runtime::RuntimeOptions;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One "unit" of offered load: a wide skinny-tall problem plus a handful
// of FEM-sized smalls, mirroring the mixed serving traffic the runtime
// is built for.
std::vector<GemmInput> make_batch(std::size_t units) {
  std::vector<GemmInput> b;
  for (std::size_t u = 0; u < units; ++u) {
    b.push_back(GemmInput::shape_only(20480, 96, 2048));
    for (int i = 0; i < 8; ++i) {
      b.push_back(GemmInput::shape_only(512, 16, 32));
    }
  }
  return b;
}

// Async serving traffic for the resilience sweep: the same mixed shapes
// submitted through submit() (timing-only), with an optional uniform DMA
// fault rate. Returns wall milliseconds; fills the stats snapshot.
double run_serving(int requests, double rate, bool resilient,
                   runtime::RuntimeStats* out) {
  fault::FaultPlan plan;
  for (int c = 0; c < 4; ++c) {
    plan.cluster(c).dma_error_rate = rate;
    plan.cluster(c).dma_timeout_rate = rate / 2;
  }
  fault::FaultInjector fi(plan);
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.gemm.functional = false;
  ro.keep_request_log = false;
  ro.split_wide = false;
  ro.resilience.enabled = resilient;
  if (rate > 0) ro.fault_injector = &fi;
  GemmRuntime rt(ro);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<core::GemmResult>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    futs.push_back(rt.submit(i % 9 == 0
                                 ? GemmInput::shape_only(20480, 96, 2048)
                                 : GemmInput::shape_only(512, 16, 32)));
  }
  for (auto& f : futs) {
    try {
      f.get();
    } catch (const FaultError&) {
      // counted in stats.failed; goodput reflects it
    }
  }
  const double ms = ms_since(t0);
  *out = rt.stats();
  return ms;
}

/// Per-rate outcome of the silent-corruption sweep.
struct SdcPoint {
  runtime::RuntimeStats stats;
  std::uint64_t injected = 0;  ///< bit flips the injector landed
  std::size_t correct = 0;     ///< delivered C matching the reference
  std::size_t total = 0;
  double wall_ms = 0;
};

/// Functional traffic (real matrices — corruption needs data to land in)
/// over the chaos harness's small irregular mix, under an SDC-only plan.
SdcPoint run_sdc_point(int requests, double rate, std::uint64_t seed) {
  const std::vector<std::array<std::size_t, 3>> mix = {
      {64, 48, 32}, {96, 16, 64}, {24, 24, 96}, {128, 16, 16}};
  fault::FaultPlan plan;
  plan.seed = seed;
  for (int c = 0; c < 4; ++c) {
    plan.cluster(c).silent_corruption_rate = rate;
  }
  fault::FaultInjector fi(plan);
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.split_wide = false;
  ro.keep_request_log = false;
  ro.resilience.enabled = true;
  ro.fault_injector = &fi;
  ro.integrity = core::IntegrityMode::VerifyCorrect;
  GemmRuntime rt(ro);

  struct Problem {
    workload::GemmProblem p;
    HostMatrix expected;
  };
  std::vector<Problem> problems;
  problems.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const auto& s = mix[static_cast<std::size_t>(i) % mix.size()];
    const std::uint64_t pseed = seed * 10000 + static_cast<std::uint64_t>(i);
    Problem pr{workload::make_problem(s[0], s[1], s[2], pseed),
               HostMatrix(s[0], s[1])};
    for (std::size_t r = 0; r < s[0]; ++r) {
      for (std::size_t c = 0; c < s[1]; ++c) {
        pr.expected.at(r, c) = pr.p.c.at(r, c);
      }
    }
    cpu::reference_gemm(pr.p.a.view(), pr.p.b.view(), pr.expected.view());
    problems.push_back(std::move(pr));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<core::GemmResult>> futs;
  futs.reserve(problems.size());
  for (Problem& pr : problems) {
    futs.push_back(rt.submit(GemmInput::bound(
        pr.p.a.view(), pr.p.b.view(), pr.p.c.view())));
  }
  SdcPoint pt;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ++pt.total;
    try {
      futs[i].get();
    } catch (const FaultError&) {
      continue;  // counted in stats.failed; not a correct delivery
    }
    // An ABFT-corrected element carries the row-checksum's rounding
    // noise, far below any surviving bit flip (relative error >= ~0.5);
    // 1e-2 separates the two regimes (see tests/chaos_test.cpp).
    if (max_rel_diff(problems[i].p.c.view(), problems[i].expected.view()) <
        1e-2) {
      ++pt.correct;
    }
  }
  pt.wall_ms = ms_since(t0);
  pt.stats = rt.stats();
  pt.injected = fi.injected(FaultKind::SilentCorruption);
  return pt;
}

/// One Poisson arrival: a virtual submission cycle and a shape index.
struct Arrival {
  std::uint64_t cycle = 0;
  std::size_t shape = 0;
};

/// Per-(rate, mode) replay outcome.
struct ReplayPoint {
  double p50_us = 0, p95_us = 0, p99_us = 0;
  std::size_t met = 0;  ///< requests whose latency beat the SLO
  std::size_t total = 0;
  double goodput_rps = 0;  ///< met / virtual span seconds
  std::uint64_t batches = 0, coalesced = 0;
};

/// The irregular sub-wide mix the replay serves: FEM-style skinny-tall
/// smalls across four shape classes, so coalescing has classes to key on.
std::vector<GemmInput> replay_mix() {
  return {GemmInput::shape_only(512, 16, 32),
          GemmInput::shape_only(512, 16, 128),
          GemmInput::shape_only(1024, 32, 64),
          GemmInput::shape_only(256, 64, 64)};
}

/// Poisson arrival sequence at `rps` offered (virtual) requests/second;
/// deterministic in `seed`, shared by the with/without-coalescing runs.
std::vector<Arrival> make_arrivals(int requests, double rps,
                                   double cycles_per_s, std::size_t shapes,
                                   std::uint64_t seed) {
  Prng rng(seed);
  std::vector<Arrival> arr;
  arr.reserve(static_cast<std::size_t>(requests));
  double t = 0;
  for (int i = 0; i < requests; ++i) {
    // Exponential inter-arrival with mean 1/rps (in virtual seconds).
    t += -std::log(1.0 - rng.next_double()) / rps;
    arr.push_back({static_cast<std::uint64_t>(t * cycles_per_s),
                   rng.next_below(shapes)});
  }
  return arr;
}

/// Replays one arrival sequence through a fresh runtime and accounts
/// simulated latency and goodput against `slo_cycles`.
ReplayPoint run_replay(const std::vector<Arrival>& arrivals,
                       const std::vector<GemmInput>& shapes,
                       std::uint64_t slo_cycles, bool coalesce) {
  RuntimeOptions ro;
  ro.clusters = 4;
  ro.gemm.functional = false;
  ro.split_wide = false;
  if (coalesce) {
    ro.batching.enabled = true;
    ro.batching.max_batch = 8;
    ro.batching.max_delay_ms = 0.25;
  }
  GemmRuntime rt(ro);
  const double cycles_per_s = rt.machine().freq_ghz * 1e9;
  std::vector<std::future<core::GemmResult>> futs;
  futs.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    runtime::QosOptions qos;
    qos.arrival_cycle = a.cycle;
    futs.push_back(rt.submit(shapes[a.shape], ro.gemm, qos));
  }
  rt.flush_batches();
  for (auto& f : futs) f.get();

  ReplayPoint p;
  std::vector<double> lat_us;
  for (const runtime::RequestStats& r : rt.request_log()) {
    if (r.failed || r.finish_cycle == 0) continue;
    const std::uint64_t lat = r.finish_cycle - r.arrival_cycle;
    lat_us.push_back(static_cast<double>(lat) / (cycles_per_s / 1e6));
    if (lat <= slo_cycles) ++p.met;
    ++p.total;
  }
  p.p50_us = percentile(lat_us, 50);
  p.p95_us = percentile(lat_us, 95);
  p.p99_us = percentile(lat_us, 99);
  const std::uint64_t span_cycles =
      std::max(arrivals.back().cycle, rt.makespan_cycles());
  const double span_s = static_cast<double>(span_cycles) / cycles_per_s;
  p.goodput_rps = span_s > 0 ? static_cast<double>(p.met) / span_s : 0;
  const runtime::RuntimeStats s = rt.stats();
  p.batches = s.batches;
  p.coalesced = s.coalesced;
  return p;
}

}  // namespace

// Aggregate throughput vs offered load: each batch mixes wide irregular
// problems (whole-cluster phases) with many small ones (one core each);
// the sweep scales batch size and cluster count so the CSV shows how
// close N clusters get to N-fold single-cluster throughput. --fault-rate R
// adds goodput under per-transfer DMA fault rates {0, R/4, R/2, R} and the
// wall-clock overhead of the resilience machinery with injection off.
void suite_runtime(Ctx& ctx) {
  const core::FtimmOptions opt = timing();
  Table t({"clusters", "batch", "problems", "wide", "small", "makespan ms",
           "GFlops", "speedup vs 1"});
  for (std::size_t units : {1, 2, 4, 8, 16}) {
    const std::vector<GemmInput> batch = make_batch(units);
    double base_seconds = 0.0;
    for (int clusters = 1; clusters <= 4; ++clusters) {
      RuntimeOptions ro;
      ro.clusters = clusters;
      ro.gemm = opt;
      ro.keep_request_log = false;
      GemmRuntime rt(ro);
      const core::BatchResult br = rt.run_all(batch, opt);
      if (clusters == 1) base_seconds = br.seconds;
      t.begin_row()
          .cell(clusters)
          .cell(units)
          .cell(br.problems)
          .cell(br.wide_problems)
          .cell(br.small_problems)
          .cell(br.seconds * 1e3, 3)
          .cell(br.gflops, 1)
          .cell(base_seconds / br.seconds, 2);
    }
  }
  t.print("Multi-cluster runtime: throughput vs offered load");
  ctx.csv(t, "runtime.csv");
  if (ctx.fault_rate <= 0) return;

  constexpr int kRequests = 200;
  const double top = ctx.fault_rate;
  Table g({"fault rate", "requests", "clean", "retries", "fallbacks",
           "failed", "goodput %", "wall ms"});
  for (const double rate : {0.0, top / 4, top / 2, top}) {
    runtime::RuntimeStats s;
    const double ms = run_serving(kRequests, rate, true, &s);
    // "Clean" = resolved on the DSP without any retry or fallback.
    const std::uint64_t dirty = s.retries + s.fallbacks + s.failed;
    const double clean =
        s.submitted > dirty ? static_cast<double>(s.submitted - dirty) : 0.0;
    g.begin_row()
        .cell(rate, 4)
        .cell(static_cast<std::size_t>(s.submitted))
        .cell(clean, 0)
        .cell(static_cast<std::size_t>(s.retries))
        .cell(static_cast<std::size_t>(s.fallbacks))
        .cell(static_cast<std::size_t>(s.failed))
        .cell(100.0 * static_cast<double>(s.completed) /
                  static_cast<double>(s.submitted),
              1)
        .cell(ms, 1);
  }
  g.print("Goodput vs injected DMA fault rate (resilience on)");
  ctx.csv(g, "runtime_faults.csv");

  // Identical traffic, fail-fast vs resilient workers, no injector.
  runtime::RuntimeStats s_off, s_on;
  const double ms_off = run_serving(kRequests, 0.0, false, &s_off);
  const double ms_on = run_serving(kRequests, 0.0, true, &s_on);
  std::printf(
      "resilience overhead (no injection): fail-fast %.1f ms, "
      "resilient %.1f ms (%+.2f%%)\n",
      ms_off, ms_on, 100.0 * (ms_on - ms_off) / ms_off);
}

// Open-loop arrival replay (docs/serving.md): Poisson arrivals in
// simulated cycles over an irregular small-shape mix, swept across offered
// rates, once without and once with shape-class coalescing. Per point:
// p50/p95/p99 simulated latency (finish_cycle - arrival_cycle) and goodput
// (requests meeting the SLO per second of virtual span). A full run
// requires the coalesced goodput knee (max over the sweep) to clear 1.3x
// the uncoalesced one; --smoke shrinks the sweep and checks structural
// invariants only. The knees go to --json as informational entries.
void suite_replay(Ctx& ctx) {
  const int requests = ctx.smoke ? 150 : 1200;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<GemmInput> shapes = replay_mix();

  // Calibrate: isolated whole-cluster execution cycles per shape. The
  // simulator is bit-reproducible, so this anchors the SLO and the rate
  // sweep to the mix itself rather than to magic constants.
  std::uint64_t max_iso = 0;
  double mean_iso = 0;
  double cycles_per_s = 0;
  {
    RuntimeOptions ro;
    ro.clusters = 1;
    ro.gemm.functional = false;
    ro.split_wide = false;
    GemmRuntime rt(ro);
    cycles_per_s = rt.machine().freq_ghz * 1e9;
    for (const GemmInput& in : shapes) {
      const std::uint64_t c = rt.submit(in).get().cycles;
      max_iso = std::max(max_iso, c);
      mean_iso += static_cast<double>(c) / static_cast<double>(shapes.size());
    }
  }
  // SLO: generous multiple of the slowest isolated run, so queueing (not
  // the execution itself) is what blows it. Capacity estimate for the
  // sweep grid: 4 clusters of serial whole-cluster runs.
  const std::uint64_t slo_cycles = 25 * max_iso;
  const double capacity_rps = 4.0 * cycles_per_s / mean_iso;
  const std::vector<double> fractions =
      ctx.smoke ? std::vector<double>{0.6, 1.5}
                : std::vector<double>{0.3, 0.6, 0.9, 1.2, 1.5, 2.0, 2.5};
  std::printf("replay: %d requests/point, SLO %.1f us, "
              "est. uncoalesced capacity %.0f rps\n",
              requests, static_cast<double>(slo_cycles) / (cycles_per_s / 1e6),
              capacity_rps);

  Table t({"offered rps", "mode", "p50 us", "p95 us", "p99 us", "met",
           "goodput rps", "batches", "coalesced"});
  double knee_off = 0, knee_on = 0;
  for (const double frac : fractions) {
    const double rps = frac * capacity_rps;
    const std::vector<Arrival> arr =
        make_arrivals(requests, rps, cycles_per_s, shapes.size(), kSeed);
    for (const bool coalesce : {false, true}) {
      const ReplayPoint p = run_replay(arr, shapes, slo_cycles, coalesce);
      t.begin_row()
          .cell(rps, 0)
          .cell(coalesce ? "coalesced" : "baseline")
          .cell(p.p50_us, 1)
          .cell(p.p95_us, 1)
          .cell(p.p99_us, 1)
          .cell(p.met)
          .cell(p.goodput_rps, 0)
          .cell(static_cast<std::size_t>(p.batches))
          .cell(static_cast<std::size_t>(p.coalesced));
      double& knee = coalesce ? knee_on : knee_off;
      knee = std::max(knee, p.goodput_rps);
      ctx.check(p.total == static_cast<std::size_t>(requests),
                "replay: %zu of %d requests accounted", p.total, requests);
      ctx.check(p.p99_us + 1e-9 >= p.p50_us, "replay: p99 < p50 at %.0f rps",
                rps);
      ctx.check(!coalesce || p.batches > 0,
                "replay: coalesced run produced no batches");
    }
  }
  t.print("Open-loop arrival replay: latency and goodput vs offered load");
  ctx.csv(t, "runtime_replay.csv");
  const double ratio = knee_off > 0 ? knee_on / knee_off : 0;
  std::printf("goodput knee: baseline %.0f rps, coalesced %.0f rps "
              "(%.2fx)\n",
              knee_off, knee_on, ratio);
  ctx.check(knee_on > 0, "replay: coalesced knee is zero");
  ctx.check(ctx.smoke || ratio >= 1.3,
            "replay: coalesced/baseline goodput knee %.2fx < 1.30x", ratio);

  // Informational only: goodput is a throughput (requests/s), not a cycle
  // count, so bench_compare.py must never gate on it.
  ctx.info("replay:mix4", "goodput_knee_baseline",
           static_cast<std::uint64_t>(knee_off));
  ctx.info("replay:mix4", "goodput_knee_coalesced",
           static_cast<std::uint64_t>(knee_on));
  ctx.info("replay:mix4", "goodput_ratio_x100",
           static_cast<std::uint64_t>(ratio * 100));
}

// Silent-data-corruption sweep (docs/robustness.md): functional
// small-shape traffic with SDC-only fault plans at flip rates
// {0, R/4, R/2, R} (R = --sdc-rate), resilience and ABFT verify+correct
// on. Per rate: checksum checks, detections, in-place corrections,
// IntegrityError recomputes, CPU fallbacks, and goodput (requests
// delivered with a C that matches the host reference).
void suite_sdc(Ctx& ctx) {
  const int requests = ctx.smoke ? 60 : 200;
  constexpr std::uint64_t kSeed = 2026;
  const double top = ctx.sdc_rate;
  Table t({"sdc rate", "requests", "checks", "detected", "corrected",
           "recomputed", "fallbacks", "correct", "goodput %", "wall ms"});
  for (const double rate : {0.0, top / 4, top / 2, top}) {
    const SdcPoint p = run_sdc_point(requests, rate, kSeed);
    t.begin_row()
        .cell(rate, 4)
        .cell(p.total)
        .cell(static_cast<std::size_t>(p.stats.checksum_checks))
        .cell(static_cast<std::size_t>(p.stats.sdc_detected))
        .cell(static_cast<std::size_t>(p.stats.sdc_corrected))
        .cell(static_cast<std::size_t>(p.stats.recomputed_shards))
        .cell(static_cast<std::size_t>(p.stats.fallbacks))
        .cell(p.correct)
        .cell(100.0 * static_cast<double>(p.correct) /
                  static_cast<double>(p.total),
              1)
        .cell(p.wall_ms, 1);
    // With resilience + verify+correct every request must deliver a
    // correct C: an incorrect delivery is a silent escape, the one outcome
    // the ABFT layer exists to rule out.
    ctx.check(p.correct == p.total,
              "sdc: %zu of %zu deliveries correct at rate %.4f (silent "
              "escape)",
              p.correct, p.total, rate);
    ctx.check(p.stats.checksum_checks > 0,
              "sdc: no checksum checks ran at rate %.4f", rate);
    ctx.check(rate > 0 || p.stats.sdc_detected == 0,
              "sdc: %llu false positives at rate 0",
              static_cast<unsigned long long>(p.stats.sdc_detected));
    ctx.check(p.injected == 0 || p.stats.sdc_detected > 0,
              "sdc: %llu flips injected at rate %.4f, none detected",
              static_cast<unsigned long long>(p.injected), rate);
  }
  t.print("Goodput vs injected silent-corruption rate (ABFT verify+correct)");
  ctx.csv(t, "runtime_sdc.csv");
}

}  // namespace ftm::bench
