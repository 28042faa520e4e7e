// The layers above one GEMM: the operator-graph executor, the multi-node
// tier, the mixed-precision tier, and the CI perf gate that
// pins all of their simulated cycles (docs/tuning.md).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ftm/core/dgemm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/graph/executor.hpp"
#include "ftm/graph/graph.hpp"
#include "ftm/graph/planner.hpp"
#include "ftm/nodes/scaleout.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/tune/tuner.hpp"
#include "ftm/workload/generators.hpp"
#include "harness.hpp"

namespace ftm::bench {

using core::FtimmOptions;
using core::GemmInput;
using core::Strategy;
using workload::GemmShape;

namespace {

/// x -> [gemm -> bias -> relu] x layers (no ReLU on the last).
graph::Graph mlp(std::size_t rows, const std::vector<std::size_t>& dims) {
  graph::Graph g;
  graph::TensorId h = g.input("x", rows, dims[0]);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const std::string ln = "l" + std::to_string(l + 1);
    const graph::TensorId w = g.input(ln + ".w", dims[l], dims[l + 1]);
    const graph::TensorId b = g.input(ln + ".b", 1, dims[l + 1]);
    h = g.bias_add(g.gemm(h, w, ln), b);
    if (l + 2 < dims.size()) h = g.relu(h);
  }
  g.mark_output(h);
  return g;
}

/// Pure 3-GEMM chain (the graph acceptance-criterion shape).
graph::Graph gemm3(std::size_t m, std::size_t k, std::size_t n) {
  graph::Graph g;
  const graph::TensorId x = g.input("x", m, k);
  const graph::TensorId w1 = g.input("w1", k, n);
  const graph::TensorId w2 = g.input("w2", n, n);
  const graph::TensorId w3 = g.input("w3", n, n);
  g.mark_output(g.gemm(g.gemm(g.gemm(x, w1), w2), w3));
  return g;
}

/// One conv layer as im2col + GEMM.
graph::Graph conv(std::size_t in_ch, std::size_t hw, std::size_t out_ch,
                  const std::string& name) {
  graph::Graph g;
  graph::ConvParams p;
  p.in_ch = in_ch;
  p.height = p.width = hw;
  const graph::TensorId img = g.input("img", p.batch * in_ch * hw, hw);
  const graph::TensorId filters = g.input("filters", p.gemm_k(), out_ch);
  g.mark_output(graph::conv2d(g, img, filters, p, name));
  return g;
}

/// A runtime whose graph runs are bit-reproducible: wide-split shard
/// counts depend on which clusters happen to be idle at submit time.
runtime::RuntimeOptions reproducible_runtime() {
  runtime::RuntimeOptions ro;
  ro.split_wide = false;
  return ro;
}

const std::vector<int> kNodeCounts = {1, 2, 4, 8};
const std::vector<double> kBandwidths = {4, 16, 64, 256};

nodes::NodeResult run_nodes(const GemmShape& s, int n, double bytes_per_cycle,
                            bool model_input, std::size_t tile = 8192,
                            std::size_t panel = 8192) {
  nodes::NodeOptions no;
  no.nodes = n;
  no.link.bytes_per_cycle = bytes_per_cycle;
  no.model_input_distribution = model_input;
  no.m_tile_rows = tile;
  no.k_panel = panel;
  no.runtime.gemm.functional = false;
  nodes::NodeCluster nc(no);
  return nc.gemm(GemmInput::shape_only(s.m, s.n, s.k));
}

/// The node tier's CI contract: N-node functional results bit-identical
/// to 1-node and correct against the host reference; compute cycles
/// monotone non-increasing in node count; makespan monotone
/// non-increasing in link bandwidth.
void nodes_invariants(Ctx& ctx) {
  // Miniature taxonomy shapes, so the full canonical grid (several M
  // tiles x K panels) is exercised, across node counts including
  // non-powers of two (docs/scaleout.md "Determinism").
  const std::vector<GemmShape> minis = {
      {256, 16, 48},   // type I mini  (Tm=4, Tk=1)
      {16, 16, 256},   // type II mini (Tm=1, Tk=4)
      {192, 16, 192},  // type III mini (Tm=3, Tk=3)
  };
  for (const auto& s : minis) {
    const workload::GemmProblem p = workload::make_problem(s.m, s.n, s.k);
    HostMatrix ref(s.m, s.n);
    std::copy(p.c.data(), p.c.data() + ref.size(), ref.data());
    cpu::reference_gemm(p.a.view(), p.b.view(), ref.view());
    std::vector<float> c1;
    for (const int n : {1, 2, 3, 5}) {
      nodes::NodeOptions no;
      no.nodes = n;
      no.m_tile_rows = 64;
      no.k_panel = 64;
      HostMatrix c(s.m, s.n);
      std::copy(p.c.data(), p.c.data() + c.size(), c.data());
      nodes::NodeCluster nc(no);
      nc.gemm(GemmInput::bound(p.a.view(), p.b.view(), c.view()));
      if (n == 1) {
        c1.assign(c.data(), c.data() + c.size());
        ctx.check(max_rel_diff(c.view(), ref.view()) <= gemm_tolerance(s.k),
                  "nodes %s: 1-node result disagrees with host reference",
                  shape_name(s.m, s.n, s.k).c_str());
      } else {
        ctx.check(std::memcmp(c1.data(), c.data(),
                              c1.size() * sizeof(float)) == 0,
                  "nodes %s: %d-node C not bit-identical to 1-node C",
                  shape_name(s.m, s.n, s.k).c_str(), n);
      }
    }
  }
  // The grid only ever spreads the same canonical cells.
  for (const auto& s : workload::fig6_cases()) {
    std::uint64_t prev = ~0ull;
    for (const int n : kNodeCounts) {
      const std::uint64_t c = run_nodes(s, n, 16.0, false).compute_cycles;
      ctx.check(c <= prev, "nodes %s: compute cycles grew at %d nodes",
                shape_name(s.m, s.n, s.k).c_str(), n);
      prev = c;
    }
  }
  // Collective and distribution costs shrink; compute is fixed.
  const GemmShape s = workload::fig6_cases().back();
  std::uint64_t prev = ~0ull;
  for (const double bpc : kBandwidths) {
    const std::uint64_t c = run_nodes(s, 4, bpc, true).cycles;
    ctx.check(c <= prev, "nodes %s: makespan grew at %.0f bytes/cycle",
              shape_name(s.m, s.n, s.k).c_str(), bpc);
    prev = c;
  }
}

const char* dtype_name(kernelgen::DType d) {
  switch (d) {
    case kernelgen::DType::F64: return "f64";
    case kernelgen::DType::F16: return "f16";
    case kernelgen::DType::BF16: return "bf16";
    default: return "f32";
  }
}

}  // namespace

// Layer chains through the operator-graph executor (docs/graph.md), each
// run with scratchpad-residency planning on and off: simulated cycles,
// DDR traffic both ways, the bytes residency deletes, host wall-clock.
// Checked on every run: planned DDR bytes strictly below unplanned on
// every chain with a scratchpad-sized intermediate, saved == unplanned -
// planned exactly, planning never changes a pure-GEMM chain's cycles, and
// repeated runs are bit-identical. --smoke shrinks rows, not structure.
void suite_graph(Ctx& ctx) {
  struct Chain {
    std::string name;
    graph::Graph g;
    bool pure_gemm = false;  ///< no elementwise/im2col nodes
    bool expect_savings = true;
  };
  // Tall-skinny MLPs (paper type I/III activations), a pure GEMM chain,
  // and conv layers whose patch matrix is the dominant intermediate. The
  // 48x48 patch matrix (48*48 x 576 = 5.3 MB) fits the 6 MB GSM arena;
  // the 56x56 one (7.2 MB) exercises the deterministic spill path, and
  // since its conv output is a graph output (DDR by rule) that chain
  // legitimately saves nothing.
  const std::size_t r1 = ctx.smoke ? 640 : 1847;
  const std::size_t r2 = ctx.smoke ? 1024 : 16384;
  const std::size_t hw = ctx.smoke ? 28 : 48;
  std::vector<Chain> chains;
  chains.push_back({"mlp3-taper", mlp(r1, {512, 256, 64, 10})});
  chains.push_back({"mlp3-wide", mlp(r2, {256, 96, 96, 32})});
  chains.push_back({"gemm3-384x64", gemm3(384, 64, 64), true});
  chains.push_back({"conv-48x48x64", conv(64, hw, 96, "conv-48x48x64")});
  chains.push_back(
      {"conv-56x56x64", conv(64, 56, 96, "conv-56x56x64"), false, false});

  runtime::GemmRuntime rt(reproducible_runtime());
  graph::GraphOptions timing;
  timing.gemm.functional = false;
  graph::GraphOptions off = timing;
  off.planner.residency = false;
  off.planner.inplace = false;

  Table t({"chain", "nodes", "gemms", "cycles", "ms", "DDR MB (all-DDR)",
           "DDR MB (planned)", "saved %", "resident", "inplace", "spilled",
           "wall us"});
  Table csv({"chain", "nodes", "gemm_nodes", "cycles", "seconds",
             "ddr_bytes_unplanned", "ddr_bytes_planned", "ddr_bytes_saved",
             "resident", "inplace", "spilled", "host_wall_us"});
  const auto g6 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };
  for (Chain& c : chains) {
    graph::GraphExecutor pex(rt, timing);
    const graph::GraphResult p = pex.run(c.g, {});
    const graph::GraphResult u = graph::GraphExecutor(rt, off).run(c.g, {});
    const graph::MemoryPlan& mp = pex.last_plan();
    const char* name = c.name.c_str();
    ctx.check(p.ddr_bytes_saved == u.ddr_bytes_unplanned - p.ddr_bytes &&
                  p.ddr_bytes_unplanned == u.ddr_bytes,
              "graph %s: savings accounting inconsistent", name);
    ctx.check(!c.expect_savings ||
                  (p.ddr_bytes_saved > 0 && p.ddr_bytes < u.ddr_bytes),
              "graph %s: no strict DDR decrease", name);
    ctx.check(!c.pure_gemm || p.cycles == u.cycles,
              "graph %s: planning changed GEMM cycles", name);
    const graph::GraphResult again = pex.run(c.g, {});
    ctx.check(again.cycles == p.cycles && again.ddr_bytes == p.ddr_bytes,
              "graph %s: run not deterministic", name);

    t.begin_row()
        .cell(c.name)
        .cell(p.nodes)
        .cell(p.gemm_nodes)
        .cell(static_cast<std::size_t>(p.cycles))
        .cell(p.seconds * 1e3, 3)
        .cell(u.ddr_bytes / 1e6, 2)
        .cell(p.ddr_bytes / 1e6, 2)
        .cell(100.0 * p.ddr_bytes_saved / u.ddr_bytes, 1)
        .cell(mp.resident_tensors)
        .cell(mp.inplace_tensors)
        .cell(mp.spilled_tensors)
        .cell(p.host_wall_us, 0);
    csv.begin_row()
        .cell(c.name)
        .cell(p.nodes)
        .cell(p.gemm_nodes)
        .cell(static_cast<std::size_t>(p.cycles))
        .cell(g6(p.seconds))
        .cell(static_cast<std::size_t>(u.ddr_bytes))
        .cell(static_cast<std::size_t>(p.ddr_bytes))
        .cell(static_cast<std::size_t>(p.ddr_bytes_saved))
        .cell(mp.resident_tensors)
        .cell(mp.inplace_tensors)
        .cell(mp.spilled_tensors)
        .cell(g6(p.host_wall_us));
  }
  t.print(std::string("operator-graph layer chains") +
          (ctx.smoke ? " (smoke)" : ""));
  ctx.csv(csv, "graph_chains.csv");
}

// Multi-node scale-out (docs/scaleout.md): Fig. 6 one level up. The three
// 20480-scale taxonomy problems plus a regular 4096^3 anchor, sharded
// across 1/2/4/8 modeled FT-m7032 nodes (timing only), then a fixed grid
// under varying link bandwidth. The scaling cycles go to --json as
// informational entries: the node layer's cost model is policy above the
// gated single-processor cycle model. --smoke checks the tier's
// invariants instead of sweeping.
void suite_nodes(Ctx& ctx) {
  if (ctx.smoke) {
    nodes_invariants(ctx);
    return;
  }
  // 2048-element tiles give every sweep shape (the 4096^3 anchor
  // included) a multi-cell canonical grid, so the node counts have
  // something to spread.
  constexpr std::size_t kTile = 2048;
  std::vector<GemmShape> shapes = workload::fig6_cases();
  shapes.push_back({4096, 4096, 4096});

  // Steady state: operands already distributed (iterative workloads), so
  // the curve isolates compute scaling + reduction cost. The input
  // distribution cost is the bandwidth sweep's subject below.
  Table st({"shape", "type", "nodes", "grid", "cycles", "compute",
            "reduce", "link MB", "gflops", "speedup"});
  for (const auto& s : shapes) {
    std::uint64_t base = 0;
    for (const int n : kNodeCounts) {
      const nodes::NodeResult r = run_nodes(s, n, 16.0, false, kTile, kTile);
      if (n == 1) base = r.cycles;
      st.begin_row()
          .cell(shape_name(s.m, s.n, s.k))
          .cell(to_string(workload::classify(s.m, s.n, s.k)))
          .cell(n)
          .cell(std::to_string(r.grid_p) + "x" + std::to_string(r.grid_q))
          .cell(static_cast<std::size_t>(r.cycles))
          .cell(static_cast<std::size_t>(r.compute_cycles))
          .cell(static_cast<std::size_t>(r.reduce_cycles))
          .cell(static_cast<double>(r.link_bytes) / 1e6, 2)
          .cell(r.gflops, 1)
          .cell(static_cast<double>(base) / static_cast<double>(r.cycles),
                2);
      ctx.info(shape_name(s.m, s.n, s.k), "nodes_" + std::to_string(n),
               r.cycles);
    }
  }
  st.print("node scaling (steady state: operands pre-distributed)");
  ctx.csv(st, "nodes_scaling.csv");

  Table bt({"shape", "bytes/cycle", "GB/s", "cycles", "input", "reduce",
            "link MB"});
  const GemmShape bs = workload::fig6_cases().back();
  for (const double bpc : kBandwidths) {
    const nodes::NodeResult r = run_nodes(bs, 4, bpc, true, kTile, kTile);
    bt.begin_row()
        .cell(shape_name(bs.m, bs.n, bs.k))
        .cell(bpc, 0)
        .cell(bpc * 1.8, 1)  // at the 1.8 GHz core clock
        .cell(static_cast<std::size_t>(r.cycles))
        .cell(static_cast<std::size_t>(r.input_cycles))
        .cell(static_cast<std::size_t>(r.reduce_cycles))
        .cell(static_cast<double>(r.link_bytes) / 1e6, 2);
  }
  bt.print("link bandwidth sensitivity (4 nodes)");
  ctx.csv(bt, "nodes_bandwidth.csv");
}

// Mixed precision (docs/precision.md): the shape taxonomy across FP32 /
// FP16 / BF16 against the dtype-aware roofline. Checked: on
// compute-bound type-III shapes the half tiers run >= 1.8x the FP32 FLOP
// rate (the VFMULAH32 2-way dot doubles the ceiling; the margin below
// 2.0x absorbs the unchanged fill/drain overhead).
void suite_mixed(Ctx& ctx) {
  const auto& mc = isa::default_machine();
  core::FtimmEngine engine(mc);
  const FtimmOptions base = timing();

  const struct {
    const char* cls;  // taxonomy class from the paper's §V evaluation
    GemmShape s;
  } shapes[] = {
      {"I", {262144, 32, 32}},   {"I", {262144, 64, 64}},
      {"II", {32, 32, 262144}},  {"II", {64, 64, 262144}},
      {"III", {4096, 64, 4096}}, {"III", {8192, 96, 8192}},
      {"square", {2048, 2048, 2048}},
  };
  std::vector<Variant> dtypes;
  for (const auto dt : {kernelgen::DType::F32, kernelgen::DType::F16,
                        kernelgen::DType::BF16}) {
    dtypes.push_back({base});
    dtypes.back().opt.dtype = dt;
  }
  Table t({"class", "m", "n", "k", "dtype", "strategy", "cycles", "GFlops",
           "roofline", "% roof"});
  for (const auto& sh : shapes) {
    sweep(engine, {sh.s}, dtypes,
          [&](const GemmShape& s, const std::vector<core::GemmResult>& r) {
            for (std::size_t i = 0; i < r.size(); ++i) {
              const kernelgen::DType dt = dtypes[i].opt.dtype;
              const double roof = core::roofline_gflops(s.m, s.n, s.k,
                                                        base.cores, mc, dt);
              t.begin_row()
                  .cell(sh.cls)
                  .cell(s.m)
                  .cell(s.n)
                  .cell(s.k)
                  .cell(dtype_name(dt))
                  .cell(core::to_string(r[i].strategy))
                  .cell(static_cast<std::size_t>(r[i].cycles))
                  .cell(r[i].gflops, 1)
                  .cell(roof, 1)
                  .cell(100.0 * r[i].gflops / roof, 1);
              const double speedup = static_cast<double>(r[0].cycles) /
                                     static_cast<double>(r[i].cycles);
              ctx.check(i == 0 || std::string(sh.cls) != "III" ||
                            speedup >= 1.8,
                        "mixed %s %zux%zux%zu: only %.2fx over f32 (want "
                        ">= 1.8x)",
                        dtype_name(dt), s.m, s.n, s.k, speedup);
            }
          });
  }
  t.print("mixed-precision sweep (timing-only, dtype-aware roofline)");
  ctx.csv(t, "mixed_precision.csv");
}

// CI perf gate (docs/tuning.md): a fixed matrix of regular + irregular
// shapes through every execution variant (TGEMM, forced M/K, the analytic
// default plan, the tuner's winning plan), the half tier, FP64
// dgemm and three graph chains, recorded for --json. Two layers of
// checking: this suite's internal gate (below), and tools/bench_compare.py
// diffing the JSON against bench/baseline.json in CI. The simulator is
// bit-reproducible, so the external gate is noise-free.
void suite_gate(Ctx& ctx) {
  struct Shape {
    std::size_t m, n, k;
    bool irregular;
  };
  // Two regular anchors plus two shapes per irregular type of the paper's
  // taxonomy (§V).
  const std::vector<Shape> shapes = {
      {2048, 2048, 2048, false},  // regular
      {4096, 4096, 4096, false},  // regular
      {262144, 32, 32, true},     // type I: tall-and-skinny times small
      {262144, 64, 64, true},     // type I
      {32, 32, 262144, true},     // type II: huge-K reduction
      {64, 64, 262144, true},     // type II
      {8192, 96, 8192, true},     // type III: regular times skinny
      {4096, 64, 4096, true},     // type III
  };
  const auto name = [](const Shape& s) { return shape_name(s.m, s.n, s.k); };
  const isa::MachineConfig mc = isa::default_machine();
  core::FtimmEngine eng(mc);

  // The tuned variant replays the tuner's winning plan for each shape:
  // the oracle the analytic default is measured against.
  tune::Tuner tuner(mc);

  // A forced strategy whose blocks cannot fit the shape (the capacity
  // audit rejects it) is recorded as 0 cycles, so the matrix stays fixed.
  const auto run = [&eng](const Shape& s, Strategy force) {
    FtimmOptions opt = timing();
    opt.force = force;
    try {
      return eng.sgemm(GemmInput::shape_only(s.m, s.n, s.k), opt);
    } catch (const ContractViolation&) {
      return core::GemmResult{};
    }
  };
  Table t({"M", "N", "K", "kind", "tgemm", "ftimm-M", "ftimm-K", "default",
           "tuned", "gain_pct"});
  std::vector<std::uint64_t> def(shapes.size());
  int big_wins = 0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    t.begin_row()
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(s.irregular ? "irregular" : "regular");
    const tune::TuneReport best = tuner.tune(s.m, s.n, s.k);
    FtimmOptions tuned_opt = timing();
    tuned_opt.pingpong = best.pingpong;
    const char* variants[] = {"tgemm", "parallel_m", "parallel_k", "default",
                              "tuned"};
    const core::GemmResult results[] = {
        run(s, Strategy::TGemm), run(s, Strategy::ParallelM),
        run(s, Strategy::ParallelK), run(s, Strategy::Auto),
        eng.sgemm_planned(GemmInput::shape_only(s.m, s.n, s.k), best.plan,
                          tuned_opt)};
    std::uint64_t cycles[5];
    for (int v = 0; v < 5; ++v) {
      const core::GemmResult& r = results[v];
      ctx.record(name(s), variants[v], r.cycles, r.host_wall_us);
      t.cell(static_cast<std::size_t>(r.cycles));
      cycles[v] = r.cycles;
    }
    def[i] = cycles[3];
    const std::uint64_t tuned = cycles[4];
    t.cell(100.0 * (1.0 - static_cast<double>(tuned) /
                              static_cast<double>(def[i])),
           2);
    ctx.check(tuned <= def[i],
              "gate: tuned slower than default on %s (%llu > %llu)",
              name(s).c_str(), static_cast<unsigned long long>(tuned),
              static_cast<unsigned long long>(def[i]));
    if (s.irregular &&
        static_cast<double>(tuned) <= 0.95 * static_cast<double>(def[i])) {
      ++big_wins;
    }
  }
  t.print("perf gate (simulated cycles)");
  ctx.check(big_wins >= 3,
            "gate: only %d irregular shapes improved >= 5%% (need 3)",
            big_wins);

  // Graph chains, timing-only with planning on: cycles under "graph",
  // planned DDR bytes under "graph_ddr" (in the cycles field), so a
  // planner regression that re-inflates DDR traffic fails the external
  // gate exactly like a cycle regression.
  {
    runtime::GemmRuntime rt(reproducible_runtime());
    graph::GraphOptions opt;
    opt.gemm.functional = false;
    const std::pair<const char*, graph::Graph> chains[] = {
        {"graph:mlp3-1847", mlp(1847, {512, 256, 64, 10})},
        {"graph:gemm3-384x64", gemm3(384, 64, 64)},
        {"graph:conv-48x48x64", conv(64, 48, 96, "conv")},
    };
    Table gt({"chain", "nodes", "cycles", "DDR KB (planned)", "saved KB"});
    for (const auto& [chain, g] : chains) {
      graph::GraphExecutor ex(rt, opt);
      const graph::GraphResult r = ex.run(g, {});
      ctx.record(chain, "graph", r.cycles, r.host_wall_us);
      ctx.record(chain, "graph_ddr", r.ddr_bytes, 0);
      gt.begin_row()
          .cell(chain)
          .cell(r.nodes)
          .cell(static_cast<std::size_t>(r.cycles))
          .cell(r.ddr_bytes / 1e3, 1)
          .cell(r.ddr_bytes_saved / 1e3, 1);
      ctx.check(r.ddr_bytes_saved > 0 && r.ddr_bytes < r.ddr_bytes_unplanned,
                "gate: %s: residency planning saved no DDR traffic", chain);
    }
    gt.print("perf gate: operator-graph chains (residency planning on)");
  }

  // Half tier on the compute-bound type-III shapes (where the DOT2
  // ceiling shows) plus the regular anchor; gated like the FP32 matrix.
  Table mt({"M", "N", "K", "f32 default", "f16", "bf16", "half speedup"});
  for (const std::size_t i : {0, 6, 7}) {
    const Shape& s = shapes[i];
    FtimmOptions opt = timing();
    const GemmInput in = GemmInput::shape_only(s.m, s.n, s.k);
    opt.dtype = kernelgen::DType::F16;
    const core::GemmResult f16 = eng.sgemm(in, opt);
    opt.dtype = kernelgen::DType::BF16;
    const core::GemmResult bf16 = eng.sgemm(in, opt);
    ctx.record(name(s), "hgemm_f16", f16.cycles, f16.host_wall_us);
    ctx.record(name(s), "hgemm_bf16", bf16.cycles, bf16.host_wall_us);
    mt.begin_row()
        .cell(s.m)
        .cell(s.n)
        .cell(s.k)
        .cell(static_cast<std::size_t>(def[i]))
        .cell(static_cast<std::size_t>(f16.cycles))
        .cell(static_cast<std::size_t>(bf16.cycles))
        .cell(static_cast<double>(def[i]) / static_cast<double>(f16.cycles),
              2);
    ctx.check(f16.cycles < def[i] && bf16.cycles < def[i],
              "gate: half tier not faster than f32 default on %s",
              name(s).c_str());
    ctx.check(f16.cycles == bf16.cycles,
              "gate: f16/bf16 cycle models diverged on %s (same ISA ops)",
              name(s).c_str());
  }
  mt.print("perf gate: mixed-precision tier");

  // FP64 Algorithm 4 on the N = 32 type-I and type-II shapes (dgemm's
  // N <= 48 limit excludes the others).
  for (const std::size_t i : {2, 4}) {
    const Shape& s = shapes[i];
    const core::GemmResult r = core::dgemm(
        eng, core::DGemmInput::shape_only(s.m, s.n, s.k), timing());
    ctx.record(name(s), "dgemm", r.cycles, r.host_wall_us);
    std::printf("perf gate: dgemm %s: %llu cycles\n", name(s).c_str(),
                static_cast<unsigned long long>(r.cycles));
  }

  // ABFT verify overhead on one shape per irregular type, informational
  // (checksum-cost-model changes are policy, not regressions; the gated
  // entries above already pin the verify-off path) and held under 5%.
  Table at({"M", "N", "K", "verify off", "verify on", "overhead %"});
  for (const std::size_t i : {3, 6, 7}) {
    const Shape& s = shapes[i];
    FtimmOptions opt = timing();
    const GemmInput in = GemmInput::shape_only(s.m, s.n, s.k);
    const std::uint64_t off = eng.sgemm(in, opt).cycles;
    opt.integrity = core::IntegrityMode::Verify;
    const std::uint64_t on = eng.sgemm(in, opt).cycles;
    ctx.info(name(s), "abft_off", off);
    ctx.info(name(s), "abft_verify", on);
    const double ovh =
        100.0 * static_cast<double>(on - off) / static_cast<double>(off);
    at.begin_row().cell(s.m).cell(s.n).cell(s.k);
    at.cell(static_cast<std::size_t>(off)).cell(static_cast<std::size_t>(on));
    at.cell(ovh, 2);
    ctx.check(ovh < 5.0, "gate: ABFT verify overhead %.2f%% >= 5%% on %s", ovh,
              name(s).c_str());
  }
  at.print("perf gate: ABFT checksum overhead (informational)");
}

}  // namespace ftm::bench
