// The paper's evidence (Tables I-III, Figs. 3-7) plus the ablations and
// single-processor extensions built on the same engine. Each figure suite
// asserts the qualitative result the paper argues from it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/cpu/peak.hpp"
#include "ftm/kernelgen/generator.hpp"
#include "ftm/kernelgen/microkernel.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/util/task_pool.hpp"
#include "ftm/workload/generators.hpp"
#include "harness.hpp"

namespace ftm::bench {

using core::FtimmEngine;
using core::FtimmOptions;
using core::GemmInput;
using core::GemmResult;
using workload::GemmShape;

namespace {

/// Locates the loop body (bundles between the SBR target and the SBR) and
/// prints its unit occupancy for the first 12 cycles.
void print_pipeline(const kernelgen::KernelSpec& spec) {
  constexpr int columns = 12;
  const auto& mc = isa::default_machine();
  const kernelgen::Tiling t = kernelgen::choose_tiling(spec, mc);
  const isa::Program p = kernelgen::generate_microkernel(spec, t, mc);

  std::size_t body_begin = 0, body_end = p.bundles.size();
  for (std::size_t i = 0; i < p.bundles.size(); ++i) {
    for (const auto& op : p.bundles[i].ops) {
      if (op.op == isa::Opcode::SBR) {
        body_begin = static_cast<std::size_t>(op.imm);
        body_end = i + mc.lat_sbr;  // branch + delay slots
      }
    }
  }
  const std::size_t body_len = body_end - body_begin;

  std::printf(
      "\nKernel %s  [regime=%s, mu=%d, ku=%d, II=%d, body=%zu cycles for %d "
      "unrolled iterations]\n",
      p.name.c_str(), to_string(kernelgen::regime_for(spec.na)), t.mu, t.ku,
      t.ii, body_len, std::max(2, (240 / std::max(t.ii, 1) + 1) & ~1));

  std::map<isa::Unit, std::vector<std::string>> rows;
  for (int u = 0; u < isa::kUnitCount; ++u)
    rows[static_cast<isa::Unit>(u)].assign(columns, ".");
  for (int c = 0; c < columns && body_begin + c < body_end; ++c) {
    for (const auto& op : p.bundles[body_begin + c].ops) {
      rows[op.unit][c] = isa::to_string(op.op);
    }
  }
  std::printf("%-10s", "Cycle");
  for (int c = 0; c < columns; ++c) std::printf("%-11d", c + 1);
  std::printf("\n");
  for (int u = 0; u < isa::kUnitCount; ++u) {
    const auto unit = static_cast<isa::Unit>(u);
    std::printf("%-10s", isa::to_string(unit));
    for (int c = 0; c < columns; ++c)
      std::printf("%-11s", rows[unit][c].c_str());
    std::printf("\n");
  }

  // Whole-body per-unit utilization.
  std::map<isa::Unit, int> counts;
  for (std::size_t i = body_begin; i < body_end; ++i)
    for (const auto& op : p.bundles[i].ops) counts[op.unit]++;
  std::printf("Unit utilization over the %zu-cycle body: ", body_len);
  for (const auto& [unit, n] : counts) {
    std::printf("%s=%.0f%% ", isa::to_string(unit),
                100.0 * n / static_cast<double>(body_len));
  }
  std::printf("\n");
}

/// One panel of a figure: its letter, console title and shape sweep.
struct Panel {
  const char* panel;
  std::string title;
  std::vector<GemmShape> shapes;
};

/// One point of a Fig. 4/5 panel.
struct Point {
  GemmShape s;
  GemmResult ft, tg;
  double roof = 0;
};

/// A Fig. 4 (one core) or Fig. 5 (eight cores, with the roofline the
/// paper plots) panel: ftIMM vs TGEMM per shape, one CSV row each.
std::vector<Point> ftimm_vs_tgemm(FtimmEngine& eng, int cores,
                                  const char* panel, const std::string& title,
                                  const std::vector<GemmShape>& shapes,
                                  Table& all) {
  const bool roofline = cores > 1;
  std::vector<std::string> cols = {"M", "N", "K", "ftIMM GFlops",
                                   "TGEMM GFlops", "speedup"};
  if (roofline) cols.insert(cols.end(), {"roofline", "% of roof"});
  cols.push_back("strategy");
  Table t(cols);
  std::vector<Point> points;
  sweep(eng, shapes, {{timing(cores)}, {timing(cores), true}},
        [&](const GemmShape& s, const std::vector<GemmResult>& r) {
          const Point p{s, r[0], r[1],
                        roofline ? eng.roofline(s.m, s.n, s.k, cores) : 0};
          const double speedup = p.tg.seconds / p.ft.seconds;
          t.begin_row().cell(s.m).cell(s.n).cell(s.k).cell(p.ft.gflops, 1);
          t.cell(p.tg.gflops, 1).cell(speedup, 2);
          all.begin_row().cell(panel).cell(s.m).cell(s.n).cell(s.k);
          all.cell(p.ft.gflops, 1).cell(p.tg.gflops, 1).cell(speedup, 2);
          if (roofline) {
            t.cell(p.roof, 1).cell(100.0 * p.ft.gflops / p.roof, 1);
            all.cell(p.roof, 1);
          }
          t.cell(to_string(p.ft.strategy));
          points.push_back(p);
        });
  t.print(title);
  return points;
}

}  // namespace

void suite_tables(Ctx& ctx) {
  print_banner("Table I: m_s >= t_fma, 64 < n_a <= 96 (wide regime)");
  print_pipeline({8, 512, 96});
  print_banner("Table II: m_s = 6, 32 < n_a <= 64 (medium regime)");
  print_pipeline({6, 512, 64});
  print_banner("Table III: m_s = 6, 0 < n_a <= 32 (narrow regime)");
  print_pipeline({6, 512, 32});

  // Cross-check: the three kernels' measured utilization against the
  // paper's upper bounds (§IV-A3).
  Table t({"kernel", "regime", "measured util", "paper bound"});
  const auto& mc = isa::default_machine();
  for (const kernelgen::KernelSpec s :
       {kernelgen::KernelSpec{8, 512, 96}, kernelgen::KernelSpec{6, 512, 64},
        kernelgen::KernelSpec{6, 512, 32}}) {
    kernelgen::MicroKernel uk(s, mc);
    t.begin_row()
        .cell(uk.program().name)
        .cell(to_string(kernelgen::regime_for(s.na)))
        .cell(uk.calibration().fmac_utilization(mc), 3)
        .cell(kernelgen::upper_bound_utilization(s.na, mc), 3);
  }
  t.print("FMAC utilization vs paper upper bound");
  ctx.csv(t, "pipeline_tables.csv");
}

// Fig. 3: micro-kernel performance on one simulated core, all six panels
// ((a-c) K=512, (d-f) K=32; N in {96, 64, 32}) sweeping M (= m_s), against
// the 345.6 GFlops core peak, the analytic prediction and the §IV-A3
// bound.
void suite_fig3(Ctx& ctx) {
  const auto& mc = isa::default_machine();
  kernelgen::KernelCache cache(mc);

  const char panel_name[] = {'a', 'b', 'c', 'd', 'e', 'f'};
  int panel = 0;
  Table all({"panel", "N", "K", "M", "cycles", "GFlops", "efficiency",
             "predicted", "upper bound", "stalls"});
  // Panel (b) efficiencies split by M mod 3, for the paper's dip claim.
  double b_worst_mod3 = 1e300, b_best_other = 0;
  for (int k : workload::microkernel_k_values()) {
    for (int n : workload::microkernel_n_values()) {
      Table t({"M", "cycles", "GFlops", "efficiency", "predicted",
               "upper bound"});
      for (int m : workload::microkernel_m_values()) {
        const kernelgen::KernelSpec spec{m, k, n};
        const kernelgen::MicroKernel& uk = cache.get(spec);
        const double secs =
            static_cast<double>(uk.cycles()) / (mc.freq_ghz * 1e9);
        const double gflops = spec.flops() / secs / 1e9;
        const double predicted =
            kernelgen::predicted_utilization(spec, uk.tiling(), mc);
        const double bound = kernelgen::upper_bound_utilization(n, mc);
        t.begin_row()
            .cell(static_cast<long long>(m))
            .cell(static_cast<std::size_t>(uk.cycles()))
            .cell(gflops, 1)
            .cell(uk.efficiency(), 3)
            .cell(predicted, 3)
            .cell(bound, 3);
        all.begin_row()
            .cell(std::string(1, panel_name[panel]))
            .cell(static_cast<long long>(n))
            .cell(static_cast<long long>(k))
            .cell(static_cast<long long>(m))
            .cell(static_cast<std::size_t>(uk.cycles()))
            .cell(gflops, 1)
            .cell(uk.efficiency(), 3)
            .cell(predicted, 3)
            .cell(bound, 3)
            .cell(static_cast<std::size_t>(uk.calibration().stall_cycles));
        // N <= 32 kernels hit the broadcast wall: two FP32 scalars per
        // cycle feed at most 2/3 of the FMAC slots.
        if (n <= 32) {
          ctx.check(uk.efficiency() <= bound,
                    "fig3(%c) M=%d: efficiency %.3f above the %.3f "
                    "broadcast bound",
                    panel_name[panel], m, uk.efficiency(), bound);
        }
        if (n == 64 && k == 512 && m % 3 == 0) {
          b_worst_mod3 = std::min(b_worst_mod3, uk.efficiency());
        } else if (n == 64 && k == 512) {
          b_best_other = std::max(b_best_other, uk.efficiency());
        }
      }
      char title[128];
      std::snprintf(title, sizeof(title),
                    "Fig. 3(%c): micro-kernel performance, N=%d, K=%d",
                    panel_name[panel], n, k);
      t.print(title);
      ++panel;
    }
  }
  // The paper's "M mod 3 != 0" dip: at N=64 every M that is not a
  // multiple of 3 runs below every M that is.
  ctx.check(b_best_other < b_worst_mod3,
            "fig3(b): best M mod 3 != 0 efficiency %.3f not below worst "
            "M mod 3 == 0 efficiency %.3f",
            b_best_other, b_worst_mod3);
  ctx.csv(all, "fig3_microkernel.csv");
  std::printf("Kernels generated: %zu (cache hits %zu)\n", cache.generated(),
              cache.hits());
}

// Fig. 4: single-core ftIMM vs TGEMM on the three irregular types.
void suite_fig4(Ctx& ctx) {
  FtimmEngine eng;
  Table all({"panel", "M", "N", "K", "ftimm_gflops", "tgemm_gflops",
             "speedup"});
  const Panel panels[] = {
      {"a", "Fig. 4(a): tall-and-skinny x small, M=20480, single core",
       workload::fig4_type1()},
      {"b",
       "Fig. 4(b): skinny-and-tall x tall-and-skinny, K=20480, single core",
       workload::fig4_type2()},
      {"c",
       "Fig. 4(c): large regular x tall-and-skinny, M=K=20480, single core",
       workload::fig4_type3()},
  };
  std::map<std::size_t, double> c_gflops;  // panel (c) by N
  for (const Panel& p : panels) {
    for (const Point& pt :
         ftimm_vs_tgemm(eng, 1, p.panel, p.title, p.shapes, all)) {
      ctx.check(pt.ft.gflops >= pt.tg.gflops,
                "fig4(%s) %zux%zux%zu: ftIMM %.1f < TGEMM %.1f GFlops",
                p.panel, pt.s.m, pt.s.n, pt.s.k, pt.ft.gflops, pt.tg.gflops);
      if (p.panel[0] == 'c') c_gflops[pt.s.n] = pt.ft.gflops;
    }
  }
  ctx.csv(all, "fig4_singlecore.csv");
  // The paper's N=80 dip: blocks shrink at n_a=80, so it runs below both
  // N=64 and N=96.
  const double n64 = c_gflops.at(64), n80 = c_gflops.at(80),
               n96 = c_gflops.at(96);
  ctx.check(n80 < n64 && n80 < n96,
            "fig4(c): no N=80 dip (%.1f vs N=64 %.1f, N=96 %.1f GFlops)", n80,
            n64, n96);
}

// Fig. 5: eight-core ftIMM vs TGEMM with the roofline, all six panels,
// plus the forced-strategy comparison that quantifies the dispatcher.
void suite_fig5(Ctx& ctx) {
  FtimmEngine eng;
  Table all({"panel", "M", "N", "K", "ftimm_gflops", "tgemm_gflops",
             "speedup", "roofline"});
  const Panel panels[] = {
      {"a", "Fig. 5(a): type I, M=2^16, N=K sweep, 8 cores",
       workload::fig5a()},
      {"b", "Fig. 5(b): type II, K=2^16, M=N sweep, 8 cores",
       workload::fig5b()},
      {"c", "Fig. 5(c): type III, M=K=20480, N sweep, 8 cores",
       workload::fig5c()},
      {"d", "Fig. 5(d): type I, N=K=32, M=2^16..2^22, 8 cores",
       workload::fig5d()},
      {"e", "Fig. 5(e): type II, M=N=32, K=2^16..2^22, 8 cores",
       workload::fig5e()},
      {"f", "Fig. 5(f): type III, N=32, M=K=4096..20480, 8 cores",
       workload::fig5f()},
  };
  for (const Panel& p : panels) {
    for (const Point& pt :
         ftimm_vs_tgemm(eng, 8, p.panel, p.title, p.shapes, all)) {
      ctx.check(pt.ft.gflops <= pt.roof,
                "fig5(%s) %zux%zux%zu: %.1f GFlops above the %.1f roofline",
                p.panel, pt.s.m, pt.s.n, pt.s.k, pt.ft.gflops, pt.roof);
    }
  }
  ctx.csv(all, "fig5_multicore.csv");

  Table t({"M", "N", "K", "auto", "force-M GFlops", "force-K GFlops",
           "tgemm GFlops"});
  Variant force_m{timing()}, force_k{timing()};
  force_m.opt.force = core::Strategy::ParallelM;
  force_k.opt.force = core::Strategy::ParallelK;
  const std::vector<GemmShape> forced = {
      {1 << 18, 32, 32}, {32, 32, 1 << 18}, {20480, 32, 20480},
      {4096, 96, 4096},  {1024, 32, 1024},
  };
  sweep(eng, forced, {force_m, force_k, {timing(), true}},
        [&](const GemmShape& s, const std::vector<GemmResult>& r) {
          t.begin_row()
              .cell(s.m)
              .cell(s.n)
              .cell(s.k)
              .cell(to_string(eng.choose_strategy(s.m, s.n, s.k)))
              .cell(r[0].gflops, 1)
              .cell(r[1].gflops, 1)
              .cell(r[2].gflops, 1);
        });
  t.print("Ablation: forced parallelization strategy (8 cores)");
}

// Fig. 6: scalability from 1 to 8 cores on the three 20480-scale
// irregular GEMMs, as speedup over the single-core run.
void suite_fig6(Ctx& ctx) {
  FtimmEngine eng;
  const std::vector<GemmShape> cases = workload::fig6_cases();
  std::vector<Variant> cores;
  for (int c = 1; c <= 8; ++c) cores.push_back({timing(c)});
  std::vector<std::vector<GemmResult>> res;  // [case][cores - 1]
  sweep(eng, cases, cores,
        [&](const GemmShape&, const std::vector<GemmResult>& r) {
          res.push_back(r);
        });

  Table t({"cores", "typeI speedup", "typeI GFlops", "typeII speedup",
           "typeII GFlops", "typeIII speedup", "typeIII GFlops"});
  Table csv({"cores", "case", "M", "N", "K", "gflops", "speedup"});
  std::vector<double> at8(cases.size());
  for (int c = 1; c <= 8; ++c) {
    t.begin_row().cell(c);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const GemmResult& r = res[i][c - 1];
      const double speedup = res[i][0].seconds / r.seconds;
      t.cell(speedup, 2).cell(r.gflops, 1);
      csv.begin_row()
          .cell(c)
          .cell(static_cast<long long>(i) + 1)
          .cell(cases[i].m)
          .cell(cases[i].n)
          .cell(cases[i].k)
          .cell(r.gflops, 2)
          .cell(speedup, 3);
      // The three problems are DDR-bandwidth bound: scaling is sublinear.
      if (c >= 2) {
        ctx.check(speedup < c,
                  "fig6 case %zu: %.3fx on %d cores is not sub-linear", i + 1,
                  speedup, c);
      }
      if (c == 8) at8[i] = speedup;
    }
  }
  t.print(
      "Fig. 6: scalability (type I: 20480x32x32 | type II: 32x32x20480 | "
      "type III: 20480x32x20480)");
  ctx.csv(csv, "fig6_scalability.csv");
  // Type II scales worst: its K-parallel reduction grows with cores.
  ctx.check(at8[1] < at8[0] && at8[1] < at8[2],
            "fig6: type II 8-core speedup %.3f is not the lowest (%.3f, "
            "%.3f)",
            at8[1], at8[0], at8[2]);
}

// Fig. 7: efficiency (achieved / device peak) of ftIMM on the simulated
// cluster vs an OpenBLAS-style blocked SGEMM on the host CPU. The devices
// differ, so the paper compares efficiencies: simulated cycles against
// the 2764.8 GFlops cluster peak, and host wall-clock against the host's
// measured FMA peak. Type III runs at M=K=10240 unless --full.
void suite_fig7(Ctx& ctx) {
  constexpr int kReps = 2;  // best-of CPU timings
  FtimmEngine eng;
  TaskPool pool;
  print_banner("Measuring host CPU FP32 peak");
  const double cpu_peak = cpu::measure_peak_gflops(pool);
  const double dsp_peak = eng.machine().cluster_peak_gflops();
  std::printf("Host peak (FMA microbenchmark, %u threads): %.1f GFlops\n",
              pool.parallelism(), cpu_peak);
  std::printf("Simulated GPDSP cluster peak: %.1f GFlops\n", dsp_peak);

  std::vector<GemmShape> t3 = workload::fig7_type3();
  if (!ctx.full) {
    for (auto& s : t3) s.m = s.k = 10240;
  }
  Table all({"panel", "M", "N", "K", "dsp_eff", "cpu_eff", "ratio"});
  const Panel panels[] = {
      {"a", "Fig. 7(a): type I (M=20480, N=K sweep)", workload::fig7_type1()},
      {"b", "Fig. 7(b): type II (K=20480, M=N sweep)",
       workload::fig7_type2()},
      {"c",
       ctx.full ? "Fig. 7(c): type III (M=K=20480, N sweep)"
                : "Fig. 7(c): type III (M=K=10240, N sweep; --full for 20480)",
       t3},
  };
  for (const Panel& panel : panels) {
    Table t({"M", "N", "K", "DSP GFlops", "DSP eff", "CPU GFlops", "CPU eff",
             "eff ratio"});
    sweep(eng, panel.shapes, {{timing()}},
          [&](const GemmShape& s, const std::vector<GemmResult>& r) {
            workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k, 5);
            double secs = 1e300;
            for (int rep = 0; rep < kReps; ++rep) {
              p.c.fill(0.0f);
              const auto t0 = std::chrono::steady_clock::now();
              cpu::cpu_gemm(p.a.view(), p.b.view(), p.c.view(), &pool);
              secs = std::min(secs, std::chrono::duration<double>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
            }
            const double cpu_gflops = p.flops() / secs / 1e9;
            const double dsp_eff = r[0].gflops / dsp_peak;
            const double cpu_eff = cpu_gflops / cpu_peak;
            t.begin_row()
                .cell(s.m)
                .cell(s.n)
                .cell(s.k)
                .cell(r[0].gflops, 1)
                .cell(dsp_eff, 3)
                .cell(cpu_gflops, 1)
                .cell(cpu_eff, 3)
                .cell(dsp_eff / cpu_eff, 2);
            all.begin_row()
                .cell(panel.panel)
                .cell(s.m)
                .cell(s.n)
                .cell(s.k)
                .cell(dsp_eff, 4)
                .cell(cpu_eff, 4)
                .cell(dsp_eff / cpu_eff, 2);
          });
    t.print(panel.title);
  }
  ctx.csv(all, "fig7_cpu_vs_dsp.csv");
}

// Ablations of ftIMM's ingredients: the three-level DMA/compute ping-pong,
// dynamic block adjusting (§IV-C), and the analytic kernel model (§IV-A).
void suite_ablation(Ctx& ctx) {
  FtimmEngine eng;
  {
    // Ping-pong off serializes every transfer with the compute it feeds.
    Table t({"case", "overlap GFlops", "serial GFlops", "overlap gain",
             "strategy"});
    const struct {
      const char* label;
      GemmShape s;
    } cases[] = {
        {"type I 2^18x32x32", {1 << 18, 32, 32}},
        {"type I 2^16x96x96", {1 << 16, 96, 96}},
        {"type II 32x32x2^18", {32, 32, 1 << 18}},
        {"type III 20480x32x20480", {20480, 32, 20480}},
        {"tgemm-regular 4096x512x4096", {4096, 512, 4096}},
    };
    for (const auto& c : cases) {
      // N > 96 is outside ftIMM's kernels: that anchor runs TGEMM.
      const Variant on{timing(), c.s.n > 96};
      Variant off = on;
      off.opt.pingpong = false;
      sweep(eng, {c.s}, {on, off},
            [&](const GemmShape&, const std::vector<GemmResult>& r) {
              t.begin_row()
                  .cell(c.label)
                  .cell(r[0].gflops, 1)
                  .cell(r[1].gflops, 1)
                  .cell(r[1].seconds / r[0].seconds, 2)
                  .cell(to_string(r[0].strategy));
            });
    }
    t.print("Ablation: ping-pong (DMA/compute overlap) on vs off, 8 cores");
    ctx.csv(t, "ablation_pingpong.csv");
  }
  {
    // With the adjuster off every shape runs the shape-agnostic initial
    // blocks (the CMR optimum for large matrices).
    Table t({"M", "N", "K", "dynamic GFlops", "static GFlops", "gain",
             "strategy"});
    Variant fixed{timing()};
    fixed.opt.dynamic_blocks = false;
    const std::vector<GemmShape> cases = {
        {1 << 18, 8, 8},   {1 << 18, 32, 32}, {1 << 18, 96, 96},
        {1 << 16, 16, 64}, {20480, 32, 20480}, {32, 32, 1 << 18},
    };
    sweep(eng, cases, {{timing()}, fixed},
          [&](const GemmShape& s, const std::vector<GemmResult>& r) {
            t.begin_row()
                .cell(s.m)
                .cell(s.n)
                .cell(s.k)
                .cell(r[0].gflops, 1)
                .cell(r[1].gflops, 1)
                .cell(r[1].seconds / r[0].seconds, 2)
                .cell(to_string(r[0].strategy));
          });
    t.print("Ablation: dynamic block adjusting vs fixed initial blocks");
    ctx.csv(t, "ablation_dynamic.csv");
  }
  {
    // Detailed VLIW simulation (scoreboard stalls) vs the closed-form
    // initiation-interval bound; short K is where pipeline fill shows.
    const auto& mc = isa::default_machine();
    kernelgen::KernelCache cache(mc);
    Table t({"ms", "ka", "na", "measured cycles", "analytic cycles",
             "measured/analytic", "measured eff", "predicted eff"});
    const kernelgen::KernelSpec cases[] = {
        {8, 512, 96}, {8, 128, 96}, {8, 32, 96},  {6, 512, 64}, {6, 128, 64},
        {6, 32, 64},  {6, 512, 32}, {6, 128, 32}, {6, 32, 32},  {12, 512, 96},
        {16, 512, 32}, {4, 512, 96}, {2, 512, 96},
    };
    for (const kernelgen::KernelSpec& spec : cases) {
      const kernelgen::MicroKernel& uk = cache.get(spec);
      const kernelgen::Tiling& tl = uk.tiling();
      // Analytic: II cycles per (mu x ku) block, per k-iteration, per tile.
      const int tiles = (spec.ms + tl.mu - 1) / tl.mu;
      const double analytic =
          static_cast<double>((spec.ka + tl.ku - 1) / tl.ku) * tiles * tl.ii;
      t.begin_row()
          .cell(static_cast<long long>(spec.ms))
          .cell(static_cast<long long>(spec.ka))
          .cell(static_cast<long long>(spec.na))
          .cell(static_cast<std::size_t>(uk.cycles()))
          .cell(analytic, 0)
          .cell(static_cast<double>(uk.cycles()) / analytic, 3)
          .cell(uk.efficiency(), 3)
          .cell(kernelgen::predicted_utilization(spec, tl, mc), 3);
    }
    t.print("Model cross-check: detailed simulation vs analytic II bound");
    ctx.csv(t, "ablation_model.csv");
  }
}

// FP64 micro-kernels: 16 FP64 lanes and one 64-bit broadcast per cycle
// move the §IV-A3 wall to vn/3 (33% for N<=16, 67% for N<=32, ~100% for
// 33<=N<=48). Same grid as Fig. 3, with the FP32 kernel of equal vector
// count (2N) alongside.
void suite_fp64(Ctx& ctx) {
  const auto& mc = isa::default_machine();
  kernelgen::KernelCache cache(mc);
  Table t({"M", "N(f64)", "K", "f64 GFlops", "f64 eff", "f64 bound",
           "f32 eff @2N", "f32 bound"});
  for (int k : {512, 32}) {
    for (int n : {48, 32, 16, 8}) {
      for (int m : {2, 4, 6, 8, 12}) {
        kernelgen::KernelSpec s64{m, k, n};
        s64.dtype = kernelgen::DType::F64;
        const auto& uk64 = cache.get(s64);
        const kernelgen::KernelSpec s32{m, k, 2 * n};
        const auto& uk32 = cache.get(s32);
        const double secs =
            static_cast<double>(uk64.cycles()) / (mc.freq_ghz * 1e9);
        t.begin_row()
            .cell(m)
            .cell(n)
            .cell(k)
            .cell(s64.flops() / secs / 1e9, 1)
            .cell(uk64.efficiency(), 3)
            .cell(kernelgen::upper_bound_utilization(s64, mc), 3)
            .cell(uk32.efficiency(), 3)
            .cell(kernelgen::upper_bound_utilization(s32, mc), 3);
      }
    }
  }
  t.print("FP64 micro-kernels (extension): efficiency vs the moved "
          "broadcast wall");
  ctx.csv(t, "fp64_kernels.csv");
}

// Hardware what-ifs: the machine description is a parameter
// (src/isa/machine.hpp), so ask how much DDR bandwidth the irregular
// shapes need before they turn compute-bound, and how much DMA startup
// latency costs at ftIMM's block sizes.
void suite_sensitivity(Ctx& ctx) {
  const std::vector<GemmShape> cases = workload::fig6_cases();
  {
    Table t({"bw scale", "GB/s", "typeI GFlops", "typeII GFlops",
             "typeIII GFlops", "typeIII % of compute peak"});
    for (double scale : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      isa::MachineConfig mc;
      mc.ddr_bytes_per_sec *= scale;
      FtimmEngine eng(mc);
      std::vector<double> g;
      sweep(eng, cases, {{timing()}},
            [&](const GemmShape&, const std::vector<GemmResult>& r) {
              g.push_back(r[0].gflops);
            });
      t.begin_row()
          .cell(scale, 1)
          .cell(mc.ddr_bytes_per_sec / 1e9, 1)
          .cell(g[0], 1)
          .cell(g[1], 1)
          .cell(g[2], 1)
          .cell(100.0 * g[2] / mc.cluster_peak_gflops(), 1);
    }
    t.print(
        "Sensitivity: DDR bandwidth (paper hardware = scale 1.0; the "
        "irregular shapes stay memory-bound until several x)");
    ctx.csv(t, "sensitivity_bandwidth.csv");
  }
  {
    // Small blocks (the 2048x8x8 batch member) feel startup hardest.
    Table t({"startup cycles", "typeI GFlops", "small-batch GFlops"});
    for (std::uint64_t startup : {0ull, 256ull, 1024ull, 4096ull}) {
      isa::MachineConfig mc;
      mc.dma_startup_cycles = startup;
      FtimmEngine eng(mc);
      t.begin_row().cell(static_cast<std::size_t>(startup));
      sweep(eng, {{1 << 18, 32, 32}, {2048, 8, 8}}, {{timing()}},
            [&](const GemmShape&, const std::vector<GemmResult>& r) {
              t.cell(r[0].gflops, 1);
            });
    }
    t.print("Sensitivity: DMA startup latency (assumption in machine.hpp)");
    ctx.csv(t, "sensitivity_dma_startup.csv");
  }
  {
    // The ISA models the broadcast ceiling structurally (one SVBCAST2
    // slot), so only the analytic bound would move with the config; the
    // kernel efficiencies show what the structural ceiling produces.
    Table t({"bcast fp32/cycle", "N=32 kernel eff", "N=96 kernel eff"});
    FtimmEngine eng;
    const auto& k32 = eng.kernels().get({6, 512, 32});
    const auto& k96 = eng.kernels().get({8, 512, 96});
    for (int bc : {1, 2, 4}) {
      t.begin_row()
          .cell(bc)
          .cell(k32.efficiency(), 3)
          .cell(k96.efficiency(), 3);
    }
    t.print("Broadcast path: structural 2-FP32/cycle ceiling (paper "
            "§IV-A1); N<=32 kernels pinned to 2/3 peak");
  }
}

// Batched small irregular GEMMs (the paper's FEM / libxsmm motivation):
// the batch-parallel scheduler (run_all on one cluster) against
// per-problem whole-cluster runs.
void suite_batched(Ctx& ctx) {
  FtimmEngine eng;
  runtime::RuntimeOptions ro;
  ro.clusters = 1;
  runtime::GemmRuntime rt(ro, eng.machine());
  const FtimmOptions opt = timing();
  Table t({"batch", "M", "N", "K", "batched GFlops", "per-problem GFlops",
           "batch speedup"});
  const struct {
    std::size_t batch, m, n, k;
  } cases[] = {
      {64, 128, 8, 8},    {64, 256, 16, 16},  {256, 128, 8, 8},
      {256, 512, 16, 16}, {64, 1024, 32, 32}, {16, 4096, 32, 32},
      {8, 20480, 32, 32},
  };
  for (const auto& c : cases) {
    std::vector<GemmInput> batch(c.batch,
                                 GemmInput::shape_only(c.m, c.n, c.k));
    const core::BatchResult br = rt.run_all(batch, opt);
    std::uint64_t seq = 0;
    for (const auto& in : batch) seq += eng.sgemm(in, opt).cycles;
    const double seq_secs =
        static_cast<double>(seq) / (eng.machine().freq_ghz * 1e9);
    t.begin_row()
        .cell(c.batch)
        .cell(c.m)
        .cell(c.n)
        .cell(c.k)
        .cell(br.gflops, 1)
        .cell(br.flops / seq_secs / 1e9, 1)
        .cell(seq_secs / br.seconds, 2);
  }
  t.print("Batched small GEMMs: batch-parallel vs per-problem 8-core");
  ctx.csv(t, "batched.csv");
}

}  // namespace ftm::bench
