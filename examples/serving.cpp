// Async serving demo for the multi-cluster GEMM runtime: a deterministic
// stream of mixed irregular requests (transformer-style skinny GEMMs of
// varying batch dimension) is submitted through GemmRuntime::submit(),
// which binds each request to the least-loaded simulated cluster, splits
// the widest ones across idle clusters, and caches plans per shape so
// repeated shapes skip strategy selection.
//
//   ./serving [--requests N]  requests to submit            (default 32)
//             [--clusters C]  simulated GPDSP clusters      (default 4)
//             [--seed S]      traffic PRNG seed             (default 7)
//             [--trace FILE]  Chrome trace-event JSON out
//             [--chaos S]     fault drill: seeded FaultPlan::chaos(S)
//                             (S >= 0; also enables the resilience layer)
//             [--sdc S]       integrity drill: seeded SDC-only plan flips
//                             bits in stored C panels while the ABFT
//                             verify+correct policy catches every one;
//                             runs *functional* (scaled-down) traffic
//                             since corruption needs real data to land in
//             [--rps R]       open-loop replay: Poisson arrivals at R
//                             virtual requests/s with shape-class
//                             coalescing on (docs/serving.md)
//             [--coalesce B]  with --rps: toggle coalescing (default 1)
//             [--qos]         QoS demo: priority classes, per-request
//                             deadlines, bounded-queue admission control
//
// With --trace FILE the whole run is recorded through the trace layer
// (src/trace/) and exported as Chrome trace-event JSON — open it at
// https://ui.perfetto.dev to see one track per cluster/core/DMA engine
// plus the host-side request lifecycle. See docs/tracing.md.
//
// With --chaos S the run doubles as a fault drill: a seeded
// FaultPlan::chaos() breaks DMA transfers, stalls one cluster, and kills
// another, while the runtime's resilience layer (retries, quarantine,
// CPU fallback — see docs/robustness.md) keeps every request resolving.
//
// With --sdc S it becomes an integrity drill instead: silent bit flips
// land in stored results exactly where an ECC escape would put them, the
// Huang–Abraham checksum layer (src/abft/) detects every one, corrects
// single-element damage in place, and escalates the rest through the
// resilience path as typed IntegrityErrors — the report's integrity
// columns show checks/detections/corrections per request.
//
// With --rps R arrivals happen on the *simulated* clock (virtual time):
// each request carries a QosOptions::arrival_cycle drawn from a Poisson
// process and the summary reports simulated p50/p95/p99 latency. With
// --qos the traffic also exercises the serving QoS surface: decode
// requests run Priority::Latency with a cycle deadline, tiny requests run
// Bulk, the queue is bounded, and rejected submissions resolve with
// FaultError(FaultKind::Rejected) — counted, never hung.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "ftm/fault/fault.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/trace/chrome.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/util/cli.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/util/stats.hpp"
#include "ftm/workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace ftm;
  Cli cli(argc, argv);
  const int requests = cli.get_int("requests", 32);
  const int clusters = cli.get_int("clusters", 4);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const std::string trace_path = cli.get("trace", "");
  const int chaos_seed = cli.get_int("chaos", -1);
  const int sdc_seed = cli.get_int("sdc", -1);
  const double rps = cli.get_double("rps", 0.0);
  const bool qos_mode = cli.has("qos");

  trace::TraceSession session;
  if (!trace_path.empty()) session.start();

  std::unique_ptr<fault::FaultInjector> injector;
  runtime::RuntimeOptions ro;
  ro.clusters = clusters;
  ro.gemm.functional = false;  // timing-only serving simulation
  if (chaos_seed >= 0) {
    injector = std::make_unique<fault::FaultInjector>(fault::FaultPlan::chaos(
        static_cast<std::uint64_t>(chaos_seed), clusters));
    ro.fault_injector = injector.get();
    ro.resilience.enabled = true;
    std::printf("chaos mode: seed %d —", chaos_seed);
    for (int c = 0; c < clusters; ++c) {
      const fault::ClusterFaults& f = injector->plan().clusters[c];
      std::printf(" c%d[%s err=%.3f to=%.3f ecc=%.3f x%.1f]", c,
                  f.dead ? "DEAD" : "ok", f.dma_error_rate,
                  f.dma_timeout_rate, f.spm_ecc_rate, f.stall_multiplier);
    }
    std::printf("\n");
  }
  if (sdc_seed >= 0 && chaos_seed < 0) {
    // SDC-only plan: no loud faults, just seeded bit flips in stored C
    // panels. Functional traffic (corruption needs data), resilience for
    // the IntegrityError recompute path, verify+correct as the policy
    // floor for every priority class.
    fault::FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(sdc_seed);
    Prng rates(plan.seed ^ 0x5DC05DC05DC05DC0ULL);
    for (int c = 0; c < clusters; ++c) {
      plan.cluster(c).silent_corruption_rate =
          0.02 + rates.next_double() * 0.10;
    }
    injector = std::make_unique<fault::FaultInjector>(plan);
    ro.fault_injector = injector.get();
    ro.resilience.enabled = true;
    ro.gemm.functional = true;
    ro.integrity = core::IntegrityMode::VerifyCorrect;
    std::printf("sdc mode: seed %d, ABFT verify+correct —", sdc_seed);
    for (int c = 0; c < clusters; ++c) {
      std::printf(" c%d[flip=%.3f]", c,
                  injector->plan().clusters[c].silent_corruption_rate);
    }
    std::printf("\n");
  }
  if (rps > 0) {
    ro.batching.enabled = cli.get_bool("coalesce", true);
    ro.batching.max_batch = 8;
    ro.batching.max_delay_ms = 0.25;
  }
  if (qos_mode) {
    // Bounded queue so backpressure is visible at demo scale: Bulk sheds
    // first (half this bound), Latency last (1.5x).
    ro.batching.max_queue =
        static_cast<std::size_t>(cli.get_int("max-queue", 24));
  }
  runtime::GemmRuntime rt(ro);
  const double cycles_per_us = rt.machine().freq_ghz * 1e3;

  // Serving traffic: mostly decode-sized skinny GEMMs with a few large
  // prefill bursts mixed in. Shapes repeat, so the plan cache warms up.
  // With --qos, decode traffic is latency-class with a 2 ms simulated
  // deadline, tiny traffic is bulk, prefill is normal.
  Prng rng(seed);
  std::vector<std::future<core::GemmResult>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  // SDC mode runs functional: real operands, kept alive until the futures
  // resolve (HostMatrix buffers are stable across vector growth).
  std::vector<workload::GemmProblem> live;
  if (ro.gemm.functional) live.reserve(static_cast<std::size_t>(requests));
  std::printf("serving %d requests on %d cluster(s)%s%s\n\n", requests,
              clusters, rps > 0 ? " [open-loop replay]" : "",
              qos_mode ? " [qos]" : "");
  double arrival_s = 0;
  for (int i = 0; i < requests; ++i) {
    const std::uint64_t roll = rng.next_u64() % 8;
    core::GemmInput in =
        roll == 0 ? core::GemmInput::shape_only(32768, 96, 2048)   // prefill
        : roll < 4 ? core::GemmInput::shape_only(4096, 16, 512)    // decode
                   : core::GemmInput::shape_only(512, 16, 128);    // tiny
    if (ro.gemm.functional) {
      // Same mix, scaled down so host-side functional execution stays
      // demo-fast: prefill / decode / tiny.
      const std::size_t m = roll == 0 ? 2048 : roll < 4 ? 512 : 128;
      const std::size_t n = roll == 0 ? 96 : 16;
      const std::size_t k = roll == 0 ? 512 : roll < 4 ? 128 : 64;
      live.push_back(workload::make_problem(
          m, n, k, seed * 1000 + static_cast<std::uint64_t>(i)));
      workload::GemmProblem& p = live.back();
      in = core::GemmInput::bound(p.a.view(), p.b.view(), p.c.view());
    }
    runtime::QosOptions qos;
    if (rps > 0) {
      arrival_s += -std::log(1.0 - rng.next_double()) / rps;
      qos.arrival_cycle =
          static_cast<std::uint64_t>(arrival_s * cycles_per_us * 1e6);
    }
    if (qos_mode) {
      if (roll == 0) {
        qos.priority = runtime::Priority::Normal;
      } else if (roll < 4) {
        qos.priority = runtime::Priority::Latency;
        qos.deadline_cycles =
            static_cast<std::uint64_t>(2000.0 * cycles_per_us);  // 2 ms sim
      } else {
        qos.priority = runtime::Priority::Bulk;
      }
    }
    futs.push_back(rt.submit(in, ro.gemm, qos));
  }
  rt.flush_batches();
  std::size_t failed = 0, rejected = 0;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (const FaultError& e) {
      if (e.kind() == FaultKind::Rejected) {
        ++rejected;  // admission control shed it; C was never touched
        continue;
      }
      ++failed;  // typed failure — the chaos drill's tolerated outcome
      std::printf("request failed: %s (%s, cluster %d)\n", e.what(),
                  to_string(e.kind()), e.cluster());
    }
  }
  rt.wait_idle();

  if (session.active()) {
    session.stop();
    if (trace::write_chrome_json(session, trace_path)) {
      std::printf("trace: %zu events -> %s\n\n", session.event_count(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path.c_str());
      return 1;
    }
    session.summary().print("Trace summary");
    session.counters().table().print("Counters");
    std::printf("\n");
  }

  for (const runtime::RequestStats& r : rt.request_log()) {
    std::printf(
        "req %3llu  cluster %d  %-9s  %-7s  wait %7.3f ms  exec %7.3f ms  "
        "%10llu cycles  %s%s%s%s\n",
        static_cast<unsigned long long>(r.id), r.cluster,
        core::to_string(r.strategy), runtime::to_string(r.priority),
        r.queue_wait_ms, r.exec_ms,
        static_cast<unsigned long long>(r.cycles),
        r.plan_cache_hit ? "[plan hit]" : "[plan miss]",
        r.stolen ? " [stolen]" : "", r.shards > 1 ? " [split]" : "",
        r.batched ? " [batched]" : "");
    if (r.batched) {
      std::printf("        ^ batch %llu (%d member%s)\n",
                  static_cast<unsigned long long>(r.batch_id), r.batch_size,
                  r.batch_size == 1 ? "" : "s");
    }
    if (r.attempt > 0 || r.fault || r.cpu_fallback || r.deadline_missed) {
      std::printf("        ^ attempt %d%s%s%s\n", r.attempt,
                  r.fault ? " [fault]" : "",
                  r.cpu_fallback ? " [cpu fallback]" : "",
                  r.deadline_missed ? " [deadline missed]" : "");
    }
    if (r.checksum_checks > 0 || r.sdc_detected > 0) {
      std::printf("        ^ integrity: %llu checks, %llu detected, "
                  "%llu corrected%s\n",
                  static_cast<unsigned long long>(r.checksum_checks),
                  static_cast<unsigned long long>(r.sdc_detected),
                  static_cast<unsigned long long>(r.sdc_corrected),
                  r.fault && r.sdc_detected > 0 ? " [recompute queued]"
                                                : "");
    }
  }
  std::printf("\n");
  rt.report().print("Runtime per-cluster summary");

  const runtime::RuntimeStats s = rt.stats();
  std::printf(
      "\n%llu submitted, %llu completed, %llu plan hits / %llu misses, "
      "%llu steals, %llu splits, makespan %llu cycles\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.plan_hits),
      static_cast<unsigned long long>(s.plan_misses),
      static_cast<unsigned long long>(s.steals),
      static_cast<unsigned long long>(s.splits),
      static_cast<unsigned long long>(rt.makespan_cycles()));
  if (s.batches > 0 || s.rejected > 0 || qos_mode) {
    std::printf(
        "serving: %llu batches (%llu coalesced members), %llu rejected, "
        "%llu shared-panel bytes saved\n",
        static_cast<unsigned long long>(s.batches),
        static_cast<unsigned long long>(s.coalesced),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.batch_ddr_saved_bytes));
  }
  if (rps > 0) {
    std::vector<double> lat_us;
    for (const runtime::RequestStats& r : rt.request_log()) {
      if (r.failed || r.finish_cycle == 0) continue;
      lat_us.push_back(
          static_cast<double>(r.finish_cycle - r.arrival_cycle) /
          cycles_per_us);
    }
    std::printf("simulated latency: p50 %.1f us, p95 %.1f us, p99 %.1f us "
                "(%zu measured)\n",
                percentile(lat_us, 50), percentile(lat_us, 95),
                percentile(lat_us, 99), lat_us.size());
  }
  if (injector) {
    std::printf(
        "chaos: %llu faults injected, %llu retries, %llu cpu fallbacks, "
        "%llu deadline misses, %llu rerouted, %zu failed future(s)\n",
        static_cast<unsigned long long>(injector->injected_total()),
        static_cast<unsigned long long>(s.retries),
        static_cast<unsigned long long>(s.fallbacks),
        static_cast<unsigned long long>(s.deadline_misses),
        static_cast<unsigned long long>(s.rerouted), failed);
  }
  if (s.checksum_checks > 0 || s.sdc_detected > 0) {
    std::printf(
        "integrity: %llu checksum checks, %llu flips injected, "
        "%llu detected, %llu corrected in place, %llu recomputed\n",
        static_cast<unsigned long long>(s.checksum_checks),
        static_cast<unsigned long long>(
            injector ? injector->injected(FaultKind::SilentCorruption) : 0),
        static_cast<unsigned long long>(s.sdc_detected),
        static_cast<unsigned long long>(s.sdc_corrected),
        static_cast<unsigned long long>(s.recomputed_shards));
  }
  return 0;
}
