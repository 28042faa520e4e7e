// Tests for the operator-graph subsystem (src/graph/): builder shape/
// structure validation, memory-planner liveness / in-place / spill edge
// cases, bit-identical execution vs. separate engine calls, planner and
// executor determinism, fault-injected node retry through the runtime
// path, and the hostsimd validation regression of ISSUE 6's bugfix sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/cpu/cpu_gemm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/graph/executor.hpp"
#include "ftm/graph/graph.hpp"
#include "ftm/graph/planner.hpp"
#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/workload/generators.hpp"

using namespace ftm;
using graph::Bindings;
using graph::Graph;
using graph::GraphExecutor;
using graph::GraphOptions;
using graph::GraphResult;
using graph::MemoryPlan;
using graph::Placement;
using graph::PlannerOptions;
using graph::TensorId;

namespace {

runtime::RuntimeOptions quiet_runtime(int clusters = 2) {
  runtime::RuntimeOptions ro;
  ro.clusters = clusters;
  ro.split_wide = false;  // keep per-node blocking identical to sgemm()
  return ro;
}

/// Three-layer GEMM chain over deterministic data; returns the graph and
/// fills the owner structs the bindings view into.
struct Mlp3 {
  Graph g;
  TensorId x, w1, w2, w3, out;
  HostMatrix xm, w1m, w2m, w3m, outm;

  explicit Mlp3(std::size_t m = 384, std::size_t h = 64)
      : xm(m, h), w1m(h, h), w2m(h, h), w3m(h, h), outm(m, h) {
    Prng rng(99);
    xm.fill_random(rng);
    w1m.fill_random(rng);
    w2m.fill_random(rng);
    w3m.fill_random(rng);
    outm.fill(0.0f);
    x = g.input("x", m, h);
    w1 = g.input("w1", h, h);
    w2 = g.input("w2", h, h);
    w3 = g.input("w3", h, h);
    out = g.gemm(g.gemm(g.gemm(x, w1, "l1"), w2, "l2"), w3, "l3");
    g.mark_output(out);
  }

  Bindings bindings() {
    Bindings b;
    b.bind_input(x, xm.view())
        .bind_input(w1, w1m.view())
        .bind_input(w2, w2m.view())
        .bind_input(w3, w3m.view());
    b.bind_output(out, outm.view());
    return b;
  }
};

}  // namespace

// ---- builder validation -------------------------------------------------

TEST(GraphBuilder, GemmInnerDimensionMismatchThrows) {
  Graph g;
  const TensorId a = g.input("a", 16, 32);
  const TensorId b = g.input("b", 48, 8);  // inner 32 != 48
  EXPECT_THROW(g.gemm(a, b), ContractViolation);
}

TEST(GraphBuilder, ElementwiseShapeMismatchThrows) {
  Graph g;
  const TensorId a = g.input("a", 16, 32);
  const TensorId b = g.input("b", 16, 31);
  EXPECT_THROW(g.add(a, b), ContractViolation);
  const TensorId bias = g.input("bias", 2, 32);  // must be a single row
  EXPECT_THROW(g.bias_add(a, bias), ContractViolation);
}

TEST(GraphBuilder, Im2colImageShapeMismatchThrows) {
  Graph g;
  graph::ConvParams p;
  p.in_ch = 3;
  p.height = p.width = 8;
  const TensorId img = g.input("img", 3 * 8, 8);  // rows != batch*in_ch*h
  p.batch = 2;  // expects 2*3*8 rows
  EXPECT_THROW(g.im2col(img, p), ContractViolation);
  const TensorId wide = g.input("wide", 2 * 3 * 8, 9);  // cols != width
  EXPECT_THROW(g.im2col(wide, p), ContractViolation);
}

TEST(GraphBuilder, ValidateRequiresAnOutput) {
  Graph g;
  const TensorId a = g.input("a", 8, 8);
  (void)g.relu(a);
  EXPECT_THROW(g.validate(), ContractViolation);
}

TEST(GraphBuilder, DeadIntermediateIsRejected) {
  Graph g;
  const TensorId a = g.input("a", 8, 8);
  (void)g.relu(a);              // never consumed, never marked output
  g.mark_output(g.relu(a));
  EXPECT_THROW(g.validate(), ContractViolation);
}

TEST(GraphBuilder, RewiredCycleIsDetected) {
  Graph g;
  const TensorId a = g.input("a", 8, 8);
  const TensorId r1 = g.relu(a);   // node 0
  const TensorId r2 = g.relu(r1);  // node 1
  g.mark_output(r2);
  g.validate();
  // Repoint node 0's input at node 1's output: 0 -> 1 -> 0.
  g.rewire_input(0, 0, r2);
  EXPECT_THROW(g.topo_order(), ContractViolation);
  EXPECT_THROW(g.validate(), ContractViolation);
}

TEST(GraphBuilder, DanglingEdgeIsDetected) {
  Graph g;
  const TensorId a = g.input("a", 8, 8);
  g.mark_output(g.relu(a));
  g.rewire_input(0, 0, 1234);  // no such tensor
  EXPECT_THROW(g.validate(), ContractViolation);
}

// ---- planner ------------------------------------------------------------

TEST(GraphPlanner, LivenessAndResidencyOnAChain) {
  Mlp3 mlp;
  const MemoryPlan mp =
      graph::plan_memory(mlp.g, isa::default_machine(), {});
  // l1.out is produced at step 0 and last read at step 1 — its single
  // consumer is the very next op, so it qualifies for the AM handoff.
  const TensorId l1 = mlp.g.node(0).output;
  EXPECT_EQ(mp.tensors[l1].def_step, 0);
  EXPECT_EQ(mp.tensors[l1].last_use, 1);
  EXPECT_EQ(mp.tensors[l1].placement, Placement::Am);
  // The graph output must stay caller-visible in DDR, live past the end.
  EXPECT_EQ(mp.tensors[mlp.out].placement, Placement::Ddr);
  EXPECT_EQ(mp.tensors[mlp.out].last_use,
            static_cast<int>(mp.order.size()));
  EXPECT_EQ(mp.spilled_tensors, 0u);
  EXPECT_GT(mp.ddr_bytes_saved, 0u);
}

TEST(GraphPlanner, InPlaceReuseForDyingElementwiseInput) {
  Graph g;
  const TensorId x = g.input("x", 64, 64);
  const TensorId w = g.input("w", 64, 64);
  const TensorId h = g.gemm(x, w);     // node 0
  const TensorId r = g.relu(h);        // node 1: h dies here -> in-place
  g.mark_output(g.gemm(r, w));         // node 2
  const MemoryPlan mp = graph::plan_memory(g, isa::default_machine(), {});
  EXPECT_EQ(mp.tensors[r].alias_of, h);
  EXPECT_EQ(mp.inplace_tensors, 1u);
  // The alias inherits its root's placement.
  EXPECT_EQ(mp.tensors[r].placement, mp.tensors[h].placement);
}

TEST(GraphPlanner, NoInPlaceWhenInputIsReadLater) {
  Graph g;
  const TensorId x = g.input("x", 64, 64);
  const TensorId w = g.input("w", 64, 64);
  const TensorId h = g.gemm(x, w);  // node 0
  const TensorId r = g.relu(h);     // node 1: h still read by node 2
  const TensorId s = g.add(r, h);   // node 2 (diamond join)
  g.mark_output(s);
  const MemoryPlan mp = graph::plan_memory(g, isa::default_machine(), {});
  EXPECT_EQ(mp.tensors[r].alias_of, -1);
}

TEST(GraphPlanner, OutputsAreNeverAliasedOrResident) {
  Graph g;
  const TensorId x = g.input("x", 64, 64);
  const TensorId w = g.input("w", 64, 64);
  const TensorId h = g.gemm(x, w);
  const TensorId r = g.relu(h);  // would be in-place, but it is an output
  g.mark_output(r);
  const MemoryPlan mp = graph::plan_memory(g, isa::default_machine(), {});
  EXPECT_EQ(mp.tensors[r].alias_of, -1);
  EXPECT_EQ(mp.tensors[r].placement, Placement::Ddr);
  EXPECT_EQ(mp.inplace_tensors, 0u);
}

TEST(GraphPlanner, CapacityOneArenaSpillsDeterministically) {
  // Diamond: both branch tensors are live at the join, but the arena only
  // fits one of them (and is too small for the AM handoff to matter: the
  // branches are not consumed by the *next* op).
  Graph g;
  const TensorId x = g.input("x", 64, 64);
  const TensorId w = g.input("w", 64, 64);
  const TensorId h = g.gemm(x, w);    // node 0, read by nodes 1, 2, 3
  const TensorId b1 = g.gemm(h, w);   // node 1   (branch, live to join)
  const TensorId b2 = g.gemm(h, w);   // node 2   (branch, live to join)
  g.mark_output(g.add(b1, b2));       // node 3: join
  PlannerOptions po;
  po.gsm_bytes = 64 * 64 * sizeof(float);  // exactly one tensor
  po.am_bytes = 1;                         // AM effectively disabled
  const MemoryPlan mp = graph::plan_memory(g, isa::default_machine(), po);
  // h and b1 contend with b2: first-fit in topo order gives h the arena
  // slot; b1 reuses it only if intervals do not overlap (they do: h is
  // live to step 2, b1 to step 3) -> b1 and b2 spill.
  EXPECT_EQ(mp.tensors[h].placement, Placement::Gsm);
  EXPECT_TRUE(mp.tensors[b1].spilled);
  EXPECT_TRUE(mp.tensors[b2].spilled);
  EXPECT_EQ(mp.spilled_tensors, 2u);
  // Spilled tensors fall back to DDR.
  EXPECT_EQ(mp.tensors[b1].placement, Placement::Ddr);
}

TEST(GraphPlanner, DiamondBranchesGetDisjointArenaSlots) {
  Graph g;
  const TensorId x = g.input("x", 64, 64);
  const TensorId w = g.input("w", 64, 64);
  const TensorId h = g.gemm(x, w);
  const TensorId b1 = g.gemm(h, w);
  const TensorId b2 = g.gemm(h, w);
  g.mark_output(g.add(b1, b2));
  PlannerOptions po;
  po.am_bytes = 1;  // force everything through the GSM arena
  const MemoryPlan mp = graph::plan_memory(g, isa::default_machine(), po);
  ASSERT_EQ(mp.tensors[b1].placement, Placement::Gsm);
  ASSERT_EQ(mp.tensors[b2].placement, Placement::Gsm);
  // b1 and b2 are simultaneously live: their byte ranges must not overlap.
  const auto& p1 = mp.tensors[b1];
  const auto& p2 = mp.tensors[b2];
  const std::size_t bytes = g.tensor(b1).bytes();
  EXPECT_TRUE(p1.offset + bytes <= p2.offset ||
              p2.offset + bytes <= p1.offset);
  EXPECT_LE(mp.gsm_peak_bytes, isa::default_machine().gsm_bytes);
}

TEST(GraphPlanner, DeterministicAcrossRuns) {
  Mlp3 a, b;
  const MemoryPlan pa = graph::plan_memory(a.g, isa::default_machine(), {});
  const MemoryPlan pb = graph::plan_memory(b.g, isa::default_machine(), {});
  ASSERT_EQ(pa.tensors.size(), pb.tensors.size());
  for (std::size_t i = 0; i < pa.tensors.size(); ++i) {
    EXPECT_EQ(pa.tensors[i].placement, pb.tensors[i].placement);
    EXPECT_EQ(pa.tensors[i].offset, pb.tensors[i].offset);
    EXPECT_EQ(pa.tensors[i].alias_of, pb.tensors[i].alias_of);
  }
  EXPECT_EQ(pa.ddr_bytes_saved, pb.ddr_bytes_saved);
  EXPECT_EQ(pa.order, pb.order);
}

TEST(GraphPlanner, ReportListsEveryTensor) {
  Mlp3 mlp;
  const MemoryPlan mp =
      graph::plan_memory(mlp.g, isa::default_machine(), {});
  EXPECT_EQ(mp.report(mlp.g).rows().size(), mlp.g.num_tensors());
}

// ---- executor -----------------------------------------------------------

TEST(GraphExecutorTest, ChainIsBitIdenticalToSeparateSgemmCalls) {
  Mlp3 mlp;
  runtime::GemmRuntime rt(quiet_runtime());
  GraphExecutor ex(rt);
  const GraphResult gr = ex.run(mlp.g, mlp.bindings());

  // Reference: the same three GEMMs as isolated engine calls.
  core::FtimmEngine eng;
  HostMatrix c1(384, 64), c2(384, 64), c3(384, 64);
  c1.fill(0.0f);
  c2.fill(0.0f);
  c3.fill(0.0f);
  eng.sgemm(core::GemmInput::bound(mlp.xm.view(), mlp.w1m.view(), c1.view()));
  eng.sgemm(core::GemmInput::bound(c1.view(), mlp.w2m.view(), c2.view()));
  eng.sgemm(core::GemmInput::bound(c2.view(), mlp.w3m.view(), c3.view()));
  EXPECT_EQ(std::memcmp(mlp.outm.data(), c3.data(),
                        c3.size() * sizeof(float)),
            0);

  // Residency must have deleted DDR traffic: the acceptance criterion.
  EXPECT_GT(gr.ddr_bytes_saved, 0u);
  EXPECT_LT(gr.ddr_bytes, gr.ddr_bytes_unplanned);
  EXPECT_EQ(gr.gemm_nodes, 3u);
}

TEST(GraphExecutorTest, PlannedAndUnplannedProduceSameBytesAndCycles) {
  // Residency planning is a memory-traffic model: it must never change
  // the computed C, and (GEMM timing being engine-internal) the cycles of
  // a pure GEMM chain are identical with planning on or off.
  Mlp3 a, b;
  runtime::GemmRuntime rt(quiet_runtime());
  GraphOptions planned;
  GraphOptions unplanned;
  unplanned.planner.residency = false;
  unplanned.planner.inplace = false;
  const GraphResult rp = GraphExecutor(rt, planned).run(a.g, a.bindings());
  const GraphResult ru =
      GraphExecutor(rt, unplanned).run(b.g, b.bindings());
  EXPECT_EQ(std::memcmp(a.outm.data(), b.outm.data(),
                        a.outm.size() * sizeof(float)),
            0);
  EXPECT_EQ(rp.cycles, ru.cycles);
  EXPECT_EQ(ru.ddr_bytes_saved, 0u);
  EXPECT_EQ(ru.ddr_bytes, ru.ddr_bytes_unplanned);
  EXPECT_LT(rp.ddr_bytes, ru.ddr_bytes);
}

TEST(GraphExecutorTest, DeterministicAcrossRuns) {
  Mlp3 mlp;
  runtime::GemmRuntime rt(quiet_runtime());
  GraphExecutor ex(rt);
  const GraphResult r1 = ex.run(mlp.g, mlp.bindings());
  const GraphResult r2 = ex.run(mlp.g, mlp.bindings());
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.ddr_bytes, r2.ddr_bytes);
  EXPECT_EQ(r1.ddr_bytes_saved, r2.ddr_bytes_saved);
}

TEST(GraphExecutorTest, MlpWithElementwiseMatchesScalarReference) {
  const std::size_t m = 128, h = 64;
  Prng rng(7);
  HostMatrix xm(m, h), wm(h, h), biasm(1, h), outm(m, h);
  xm.fill_random(rng);
  wm.fill_random(rng);
  biasm.fill_random(rng);
  outm.fill(0.0f);

  Graph g;
  const TensorId x = g.input("x", m, h);
  const TensorId w = g.input("w", h, h);
  const TensorId bias = g.input("bias", 1, h);
  const TensorId out = g.relu(g.bias_add(g.gemm(x, w), bias));
  g.mark_output(out);
  Bindings bind;
  bind.bind_input(x, xm.view())
      .bind_input(w, wm.view())
      .bind_input(bias, biasm.view());
  bind.bind_output(out, outm.view());

  runtime::GemmRuntime rt(quiet_runtime());
  const GraphResult gr = GraphExecutor(rt).run(g, bind);
  EXPECT_EQ(gr.nodes, 3u);

  core::FtimmEngine eng;
  HostMatrix expect(m, h);
  expect.fill(0.0f);
  eng.sgemm(core::GemmInput::bound(xm.view(), wm.view(), expect.view()));
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < h; ++c) {
      const float v = expect.at(r, c) + biasm.at(0, c);
      expect.at(r, c) = v > 0.0f ? v : 0.0f;
    }
  }
  EXPECT_EQ(std::memcmp(outm.data(), expect.data(), m * h * sizeof(float)),
            0);
}

TEST(GraphExecutorTest, Conv2dMatchesReferenceGemm) {
  workload::ConvLayer layer;
  layer.in_ch = 3;
  layer.height = layer.width = 16;
  layer.out_ch = 8;
  const workload::GemmProblem p = workload::make_im2col_gemm(layer);

  // Rebuild the same conv through the graph front-end: the image input is
  // reconstructed from the problem's patch matrix via a reference im2col
  // inverse-free path — instead, generate the image deterministically the
  // same way and compare against the reference GEMM on the lowered A.
  graph::ConvParams cp;
  cp.batch = layer.batch;
  cp.in_ch = layer.in_ch;
  cp.height = layer.height;
  cp.width = layer.width;
  cp.kh = layer.kh;
  cp.kw = layer.kw;
  cp.stride = layer.stride;
  cp.pad = layer.pad;
  Prng rng(11);  // same seed/order as make_im2col_gemm's image fill
  HostMatrix image(cp.batch * cp.in_ch * cp.height, cp.width);
  for (std::size_t r = 0; r < image.rows(); ++r) {
    for (std::size_t c = 0; c < image.cols(); ++c) {
      image.at(r, c) = rng.next_float(-1.0f, 1.0f);
    }
  }

  Graph g;
  const TensorId img = g.input("img", image.rows(), image.cols());
  const TensorId filters = g.input("filters", p.k, p.n);
  const TensorId out = graph::conv2d(g, img, filters, cp, "conv");
  g.mark_output(out);
  HostMatrix outm(p.m, p.n);
  outm.fill(0.0f);
  Bindings bind;
  bind.bind_input(img, image.view()).bind_input(filters, p.b.view());
  bind.bind_output(out, outm.view());

  runtime::GemmRuntime rt(quiet_runtime());
  const GraphResult gr = GraphExecutor(rt).run(g, bind);
  EXPECT_EQ(gr.gemm_nodes, 1u);
  EXPECT_GT(gr.ddr_bytes_saved, 0u);  // the patch matrix stays on-chip

  HostMatrix expect(p.m, p.n);
  expect.fill(0.0f);
  cpu::reference_gemm(p.a.view(), p.b.view(), expect.view());
  EXPECT_LT(max_rel_diff(outm.view(), expect.view()), gemm_tolerance(p.k));
}

namespace {

/// Per-element im2col with the padding test on every element: the
/// reference the executor's row-chunked gather must match bit for bit.
HostMatrix reference_im2col(const graph::ConvParams& p,
                            const HostMatrix& image) {
  HostMatrix out(p.gemm_m(), p.gemm_k());
  for (std::size_t row = 0; row < out.rows(); ++row) {
    const std::size_t n = row / (p.out_h() * p.out_w());
    const std::size_t oy = row / p.out_w() % p.out_h();
    const std::size_t ox = row % p.out_w();
    std::size_t col = 0;
    for (std::size_t ch = 0; ch < p.in_ch; ++ch) {
      for (std::size_t ky = 0; ky < p.kh; ++ky) {
        for (std::size_t kx = 0; kx < p.kw; ++kx, ++col) {
          const long y = static_cast<long>(oy * p.stride + ky) -
                         static_cast<long>(p.pad);
          const long x = static_cast<long>(ox * p.stride + kx) -
                         static_cast<long>(p.pad);
          const bool in = y >= 0 && x >= 0 &&
                          y < static_cast<long>(p.height) &&
                          x < static_cast<long>(p.width);
          out.at(row, col) =
              in ? image.at((n * p.in_ch + ch) * p.height +
                                static_cast<std::size_t>(y),
                            static_cast<std::size_t>(x))
                 : 0.0f;
        }
      }
    }
  }
  return out;
}

runtime::RuntimeOptions pooled_runtime(int threads) {
  runtime::RuntimeOptions ro = quiet_runtime();
  ro.host_threads = threads;
  return ro;
}

}  // namespace

TEST(GraphExecutorTest, Im2colIsExactForEveryConvGeometry) {
  // The gather is a pure copy, so every geometry must reproduce the
  // per-element reference exactly, inline (1 thread) and row-chunked
  // across the pool (4 threads). The odd width puts patches on both
  // edges; 16 channels of 24x23 push the larger cases past the 256 KiB
  // chunking floor. The output is NaN-filled first, so an element no
  // chunk writes fails the memcmp.
  const std::pair<std::size_t, std::size_t> kKernels[] = {
      {3, 3}, {1, 1}, {5, 3}};
  std::size_t above_floor = 0;
  for (const int threads : {1, 4}) {
    runtime::GemmRuntime rt(pooled_runtime(threads));
    GraphExecutor ex(rt);
    for (const std::size_t stride : {1u, 2u}) {
      for (const std::size_t pad : {0u, 1u, 2u}) {
        for (const auto& [kh, kw] : kKernels) {
          for (const std::size_t batch : {1u, 2u}) {
            graph::ConvParams p;
            p.batch = batch;
            p.in_ch = 16;
            p.height = 24;
            p.width = 23;
            p.kh = kh;
            p.kw = kw;
            p.stride = stride;
            p.pad = pad;
            Prng rng(stride * 1000 + pad * 100 + kh * 10 + batch);
            HostMatrix image(batch * p.in_ch * p.height, p.width);
            image.fill_random(rng);
            HostMatrix out(p.gemm_m(), p.gemm_k());
            out.fill(std::numeric_limits<float>::quiet_NaN());

            Graph g;
            const TensorId img = g.input("img", image.rows(), image.cols());
            const TensorId patches = g.im2col(img, p);
            g.mark_output(patches);
            Bindings bind;
            bind.bind_input(img, image.view()).bind_output(patches, out.view());
            ex.run(g, bind);

            const HostMatrix expect = reference_im2col(p, image);
            EXPECT_EQ(std::memcmp(out.data(), expect.data(),
                                  out.size() * sizeof(float)),
                      0)
                << "threads " << threads << " stride " << stride << " pad "
                << pad << " kernel " << kh << "x" << kw << " batch " << batch;
            if (out.size() * sizeof(float) > 256 * 1024) ++above_floor;
          }
        }
      }
    }
  }
  EXPECT_GT(above_floor, 0u);
}

TEST(GraphExecutorTest, ElementwiseChainIsBitIdenticalAcrossPoolSizes) {
  // Add -> BiasAdd -> ReLU over 1000x96 floats (375 KiB per tensor, above
  // the chunking floor): the pooled row chunks must give the bits of the
  // inline pass and of a scalar reference.
  const std::size_t m = 1000, n = 96;
  Prng rng(5);
  HostMatrix xm(m, n), ym(m, n), biasm(1, n);
  xm.fill_random(rng);
  ym.fill_random(rng);
  biasm.fill_random(rng);
  Graph g;
  const TensorId x = g.input("x", m, n);
  const TensorId y = g.input("y", m, n);
  const TensorId bias = g.input("bias", 1, n);
  const TensorId out = g.relu(g.bias_add(g.add(x, y), bias));
  g.mark_output(out);

  std::vector<HostMatrix> outs;
  for (const int threads : {1, 4}) {
    outs.emplace_back(m, n);
    outs.back().fill(std::numeric_limits<float>::quiet_NaN());
    Bindings bind;
    bind.bind_input(x, xm.view())
        .bind_input(y, ym.view())
        .bind_input(bias, biasm.view());
    bind.bind_output(out, outs.back().view());
    runtime::GemmRuntime rt(pooled_runtime(threads));
    GraphExecutor(rt).run(g, bind);
  }
  HostMatrix expect(m, n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const float v = xm.at(r, c) + ym.at(r, c) + biasm.at(0, c);
      expect.at(r, c) = v > 0.0f ? v : 0.0f;
    }
  }
  for (const HostMatrix& o : outs) {
    EXPECT_EQ(std::memcmp(o.data(), expect.data(), m * n * sizeof(float)), 0);
  }
}

TEST(GraphExecutorTest, NodeHostTimeIsMeasuredWithoutATrace) {
  // NodeStats::host_us needs no trace session: every node is timed, the
  // im2col gather measurably, and the nodes fit inside the run's wall time.
  graph::ConvParams p;
  p.in_ch = 8;
  p.height = p.width = 16;
  Prng rng(3);
  HostMatrix image(p.in_ch * p.height, p.width), filters(p.gemm_k(), 16),
      outm(p.gemm_m(), 16);
  image.fill_random(rng);
  filters.fill_random(rng);
  Graph g;
  const TensorId img = g.input("img", image.rows(), image.cols());
  const TensorId filt = g.input("filters", filters.rows(), filters.cols());
  const TensorId out = graph::conv2d(g, img, filt, p, "conv");
  g.mark_output(out);
  Bindings bind;
  bind.bind_input(img, image.view()).bind_input(filt, filters.view());
  bind.bind_output(out, outm.view());

  ASSERT_EQ(trace::TraceSession::current(), nullptr);
  runtime::GemmRuntime rt(quiet_runtime());
  const GraphResult gr = GraphExecutor(rt).run(g, bind);
  double sum_us = 0;
  std::size_t im2col_nodes = 0;
  for (const graph::NodeStats& ns : gr.node_stats) {
    sum_us += ns.host_us;
    if (ns.kind == graph::OpKind::Im2col) {
      ++im2col_nodes;
      EXPECT_GT(ns.host_us, 0.0);
    }
  }
  EXPECT_EQ(im2col_nodes, 1u);
  EXPECT_LE(sum_us, gr.host_wall_us);
}

TEST(GraphExecutorTest, TimingOnlyModeNeedsNoBindings) {
  Mlp3 mlp;
  runtime::GemmRuntime rt(quiet_runtime());
  GraphOptions opt;
  opt.gemm.functional = false;
  const GraphResult gr = GraphExecutor(rt, opt).run(mlp.g, Bindings{});
  EXPECT_GT(gr.cycles, 0u);
  EXPECT_GT(gr.ddr_bytes_saved, 0u);
}

TEST(GraphExecutorTest, UnboundOrMisshapedBindingThrows) {
  Mlp3 mlp;
  runtime::GemmRuntime rt(quiet_runtime());
  GraphExecutor ex(rt);
  EXPECT_THROW(ex.run(mlp.g, Bindings{}), ContractViolation);
  Bindings bad = mlp.bindings();
  HostMatrix wrong(2, 2);
  bad.bind_input(mlp.x, wrong.view());
  EXPECT_THROW(ex.run(mlp.g, bad), ContractViolation);
}

TEST(GraphExecutorTest, TraceCountersReportDdrSavings) {
  Mlp3 mlp;
  runtime::GemmRuntime rt(quiet_runtime());
  trace::TraceSession session;
  session.start();
  const GraphResult gr = GraphExecutor(rt).run(mlp.g, mlp.bindings());
  session.stop();
  const trace::CounterRegistry counters = session.counters();
  EXPECT_EQ(counters.value("graph.ddr_bytes_saved"), gr.ddr_bytes_saved);
  EXPECT_EQ(counters.value("graph.nodes"), gr.nodes);
  std::size_t node_spans = 0;
  for (const trace::Event& e : session.events()) {
    if (std::string(e.name) == "graph.node") ++node_spans;
  }
  EXPECT_EQ(node_spans, gr.nodes);
}

TEST(GraphExecutorTest, FaultInjectedNodeRetriesThroughRuntime) {
  // Cluster 0 is dead; with resilience on, every GEMM node that lands
  // there re-dispatches to cluster 1 and the chain still completes with a
  // correct C — the graph path inherits the runtime's self-healing.
  Mlp3 mlp;
  fault::FaultPlan plan;
  plan.cluster(0).dead = true;
  fault::FaultInjector injector(std::move(plan));
  runtime::RuntimeOptions ro = quiet_runtime(2);
  ro.fault_injector = &injector;
  ro.resilience.enabled = true;
  ro.resilience.max_retries = 3;
  // Without stealing the first node binds to the least-loaded cluster,
  // cluster 0 on a tie, so it reaches the dead cluster whichever worker
  // thread wakes first.
  ro.work_stealing = false;
  runtime::GemmRuntime rt(ro);
  GraphExecutor ex(rt);
  const GraphResult gr = ex.run(mlp.g, mlp.bindings());
  EXPECT_EQ(gr.gemm_nodes, 3u);

  core::FtimmEngine eng;
  HostMatrix c1(384, 64), c2(384, 64), c3(384, 64);
  c1.fill(0.0f);
  c2.fill(0.0f);
  c3.fill(0.0f);
  eng.sgemm(core::GemmInput::bound(mlp.xm.view(), mlp.w1m.view(), c1.view()));
  eng.sgemm(core::GemmInput::bound(c1.view(), mlp.w2m.view(), c2.view()));
  eng.sgemm(core::GemmInput::bound(c2.view(), mlp.w3m.view(), c3.view()));
  EXPECT_EQ(std::memcmp(mlp.outm.data(), c3.data(),
                        c3.size() * sizeof(float)),
            0);

  const runtime::RuntimeStats stats = rt.stats();
  EXPECT_EQ(stats.completed, 3u);
  // At least one node must have hit the dead cluster or been diverted.
  EXPECT_GT(stats.faults + stats.rerouted, 0u);
}

// ---- hostsimd validation regression (ISSUE 6 bugfix sweep) --------------

TEST(HostSimdValidation, NullArraysWithNonZeroLengthThrow) {
  float f = 1.0f;
  EXPECT_THROW(kernelgen::hostsimd::add_f32(nullptr, &f, 4),
               ContractViolation);
  EXPECT_THROW(kernelgen::hostsimd::add_f32(&f, nullptr, 4),
               ContractViolation);
  EXPECT_THROW(kernelgen::hostsimd::relu_f32(nullptr, 4),
               ContractViolation);
  // Zero-length calls are legal no-ops regardless of the pointers. The
  // micro-kernel's null-operand cases are FastPath.RejectsNullOperands.
  EXPECT_NO_THROW(kernelgen::hostsimd::add_f32(nullptr, nullptr, 0));
  EXPECT_NO_THROW(kernelgen::hostsimd::relu_f32(nullptr, 0));
}

TEST(HostSimdValidation, ReluBitIdenticalAcrossTiers) {
  using kernelgen::hostsimd::Tier;
  std::vector<float> input = {1.5f,  -2.0f, 0.0f, -0.0f,
                              1e-30f, -1e-30f, 3.0f, -4.0f, 0.25f};
  input.push_back(std::numeric_limits<float>::quiet_NaN());
  std::vector<float> scalar = input;
  const Tier prev = kernelgen::hostsimd::active_tier();
  kernelgen::hostsimd::set_active_tier(Tier::Scalar);
  kernelgen::hostsimd::relu_f32(scalar.data(), scalar.size());
  kernelgen::hostsimd::set_active_tier(kernelgen::hostsimd::best_tier());
  std::vector<float> simd = input;
  kernelgen::hostsimd::relu_f32(simd.data(), simd.size());
  kernelgen::hostsimd::set_active_tier(prev);
  EXPECT_EQ(std::memcmp(scalar.data(), simd.data(),
                        scalar.size() * sizeof(float)),
            0);
  // NaN and -0.0 must both clamp to +0.0.
  EXPECT_EQ(scalar[3], 0.0f);
  EXPECT_FALSE(std::signbit(scalar[3]));
  EXPECT_EQ(scalar.back(), 0.0f);
}
