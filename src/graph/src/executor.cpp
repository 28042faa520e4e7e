#include "ftm/graph/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "ftm/kernelgen/hostsimd.hpp"
#include "ftm/trace/trace.hpp"

namespace ftm::graph {

namespace {

std::uint64_t div_ceil(std::uint64_t a, double per_cycle) {
  if (a == 0) return 0;
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(a) / per_cycle));
}

/// Bytes an elementwise/im2col node moves, split by the placement of each
/// operand it touches. The unplanned model charges everything to DDR.
struct Traffic {
  std::uint64_t ddr = 0, gsm = 0, am = 0;

  void touch(Placement p, std::uint64_t bytes) {
    switch (p) {
      case Placement::Ddr: ddr += bytes; break;
      case Placement::Gsm: gsm += bytes; break;
      case Placement::Am: am += bytes; break;
    }
  }
  std::uint64_t total() const { return ddr + gsm + am; }
};

/// Deterministic cost of a host-side node: one DMA startup plus the
/// bandwidth-bound transfer time per memory level, overlapped with (i.e.
/// floored by) the VPU-side elementwise processing rate. Same constants
/// the GEMM simulator charges, so planned-vs-unplanned cycle deltas are
/// meaningful.
std::uint64_t node_cycles(const isa::MachineConfig& mc, const Traffic& tr,
                          std::uint64_t out_elems) {
  const std::uint64_t mem =
      mc.dma_startup_cycles + div_ceil(tr.ddr, mc.ddr_bytes_per_cycle()) +
      div_ceil(tr.gsm, static_cast<double>(mc.gsm_bytes_per_cycle_total)) +
      div_ceil(tr.am, static_cast<double>(mc.am_bytes_per_cycle));
  const std::uint64_t compute = div_ceil(
      out_elems, static_cast<double>(mc.fp32_lanes * mc.cores_per_cluster));
  return std::max(mem, compute);
}

TensorId alias_root(const MemoryPlan& mp, TensorId t) {
  while (mp.tensors[static_cast<std::size_t>(t)].alias_of >= 0) {
    t = mp.tensors[static_cast<std::size_t>(t)].alias_of;
  }
  return t;
}

/// Output bytes below which a host pass runs inline on the calling thread:
/// under this a batch hand-off to the pool costs more than it saves.
constexpr std::size_t kChunkFloorBytes = 256 * 1024;

/// Runs body(r0, r1) over contiguous row ranges covering [0, rows), one per
/// pool thread, and returns when all are done; inline when there is no pool
/// or the pass writes fewer than kChunkFloorBytes. `body` must not throw
/// (TaskPool::run_batch terminates on an exception), so callers resolve
/// every view and check every bound before calling.
template <typename Body>
void for_row_chunks(TaskPool* pool, MatrixView out, const Body& body) {
  const std::size_t rows = out.rows();
  const std::size_t bytes = rows * out.cols() * sizeof(float);
  const std::size_t chunks =
      pool == nullptr || bytes < kChunkFloorBytes
          ? 1
          : std::min<std::size_t>(pool->parallelism(), rows);
  if (chunks <= 1) {
    body(std::size_t{0}, rows);
    return;
  }
  // 16-byte task closures fit std::function's inline storage, so a batch
  // allocates no closure storage.
  const auto chunk = [&body, rows, chunks](std::size_t i) {
    body(rows * i / chunks, rows * (i + 1) / chunks);
  };
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (std::size_t i = 0; i < chunks; ++i) {
    tasks.emplace_back([&chunk, i] { chunk(i); });
  }
  pool->run_batch(std::move(tasks));
}

/// Gathers patch rows [r0, r1) of the im2col matrix. Image is the NCHW
/// volume flattened to (batch*in_ch*height) x width; out row = (n, oy, ox),
/// col = (ch, ky, kx), the layout of workload::make_im2col_gemm, so graph
/// results verify against it. A pure copy with zero padding, so any row
/// split gives the same bits.
void im2col_gather(const ConvParams& p, ConstMatrixView image, MatrixView out,
                   std::size_t r0, std::size_t r1) {
  const std::size_t oh = p.out_h(), ow = p.out_w();
  const long height = static_cast<long>(p.height);
  const long width = static_cast<long>(p.width);
  const long kw = static_cast<long>(p.kw);
  for (std::size_t row = r0; row < r1; ++row) {
    const std::size_t n = row / (oh * ow);
    const std::size_t oy = row / ow % oh;
    const long x0 = static_cast<long>(row % ow * p.stride) -
                    static_cast<long>(p.pad);
    // Only patches that overhang the left or right edge need the per-x
    // padding test; every other (ch, ky) line is kw contiguous floats.
    const bool x_inside = x0 >= 0 && x0 + kw <= width;
    float* dst = out.data() + row * out.ld();
    for (std::size_t ch = 0; ch < p.in_ch; ++ch) {
      for (std::size_t ky = 0; ky < p.kh; ++ky, dst += kw) {
        const long y = static_cast<long>(oy * p.stride + ky) -
                       static_cast<long>(p.pad);
        if (y < 0 || y >= height) {
          std::fill(dst, dst + kw, 0.0f);
          continue;
        }
        const std::size_t image_row =
            (n * p.in_ch + ch) * p.height + static_cast<std::size_t>(y);
        const float* src = image.data() + image_row * image.ld();
        if (x_inside) {
          for (long kx = 0; kx < kw; ++kx) dst[kx] = src[x0 + kx];
        } else {
          for (long kx = 0; kx < kw; ++kx) {
            const long x = x0 + kx;
            dst[kx] = x >= 0 && x < width ? src[x] : 0.0f;
          }
        }
      }
    }
  }
}

}  // namespace

Bindings& Bindings::bind_input(TensorId t, ConstMatrixView v) {
  inputs_[t] = v;
  return *this;
}

Bindings& Bindings::bind_output(TensorId t, MatrixView v) {
  outputs_[t] = v;
  return *this;
}

const ConstMatrixView* Bindings::find_input(TensorId t) const {
  const auto it = inputs_.find(t);
  return it == inputs_.end() ? nullptr : &it->second;
}

const MatrixView* Bindings::find_output(TensorId t) const {
  const auto it = outputs_.find(t);
  return it == outputs_.end() ? nullptr : &it->second;
}

GraphExecutor::GraphExecutor(runtime::GemmRuntime& rt, GraphOptions opt)
    : rt_(rt), opt_(std::move(opt)) {}

GraphResult GraphExecutor::run(const Graph& g, const Bindings& bind) {
  const auto wall_start = std::chrono::steady_clock::now();
  plan_ = plan_memory(g, rt_.machine(), opt_.planner);
  const isa::MachineConfig& mc = rt_.machine();
  const bool fn = opt_.gemm.functional;
  // Host passes use the pool the GEMM nodes run on: the caller's, else the
  // runtime's (the rule GemmRuntime applies to every request).
  TaskPool* const pool =
      opt_.gemm.host_pool != nullptr ? opt_.gemm.host_pool : rt_.host_pool();

  // --- Resolve storage: caller views for externals/outputs, owned
  // buffers for intermediates (alias roots own, aliases share). In
  // timing-only mode no buffer is allocated and bindings may be empty.
  std::vector<std::unique_ptr<HostMatrix>> owned(g.num_tensors());
  std::vector<MatrixView> views(g.num_tensors());
  if (fn) {
    for (std::size_t ti = 0; ti < g.num_tensors(); ++ti) {
      const TensorId t = static_cast<TensorId>(ti);
      const Tensor& tn = g.tensor(t);
      if (tn.external) {
        const ConstMatrixView* v = bind.find_input(t);
        if (v == nullptr) {
          throw ContractViolation("graph: external tensor '" + tn.name +
                                  "' was not bound to an input view");
        }
        FTM_EXPECTS(v->rows() == tn.rows && v->cols() == tn.cols);
        continue;  // read through bind.find_input
      }
      if (g.is_output(t)) {
        const MatrixView* v = bind.find_output(t);
        if (v == nullptr) {
          throw ContractViolation("graph: output tensor '" + tn.name +
                                  "' was not bound to an output view");
        }
        FTM_EXPECTS(v->rows() == tn.rows && v->cols() == tn.cols);
        views[ti] = *v;
        continue;
      }
      const TensorId root = alias_root(plan_, t);
      if (root == t) {
        // Uninitialised: its producer writes every element before any
        // reader runs (the im2col gather and elementwise passes cover the
        // whole output, and GEMM outputs get their own zero pass below).
        owned[ti] = std::make_unique<HostMatrix>(
            HostMatrix::uninitialized(tn.rows, tn.cols));
        views[ti] = owned[ti]->view();
      }
    }
    // Second pass: aliases point at their root's storage.
    for (std::size_t ti = 0; ti < g.num_tensors(); ++ti) {
      const TensorId t = static_cast<TensorId>(ti);
      const TensorId root = alias_root(plan_, t);
      if (root != t) views[ti] = views[static_cast<std::size_t>(root)];
    }
  }

  const auto cview = [&](TensorId t) -> ConstMatrixView {
    const Tensor& tn = g.tensor(t);
    if (tn.external) return *bind.find_input(t);
    return views[static_cast<std::size_t>(t)];
  };
  const auto place = [&](TensorId t) -> Placement {
    return plan_.tensors[static_cast<std::size_t>(alias_root(plan_, t))]
        .placement;
  };

  trace::TraceSession* ts = trace::TraceSession::current();
  const std::uint64_t run_t0 = ts != nullptr ? ts->host_now_us() : 0;

  GraphResult gr;
  gr.nodes = g.num_nodes();
  gr.node_stats.reserve(plan_.order.size());

  for (const NodeId nid : plan_.order) {
    const Node& n = g.node(nid);
    const Tensor& tout = g.tensor(n.output);
    const std::uint64_t node_t0 = ts != nullptr ? ts->host_now_us() : 0;
    const auto node_start = std::chrono::steady_clock::now();
    NodeStats st;
    st.node = nid;
    st.kind = n.kind;

    if (n.kind == OpKind::Gemm) {
      ++gr.gemm_nodes;
      const Tensor& ta = g.tensor(n.inputs[0]);
      const Tensor& tb = g.tensor(n.inputs[1]);
      core::GemmInput in;
      if (fn) {
        const MatrixView out = views[static_cast<std::size_t>(n.output)];
        // The engine computes C += A*B; node semantics are C = A*B.
        for_row_chunks(pool, out, [out](std::size_t r0, std::size_t r1) {
          for (std::size_t r = r0; r < r1; ++r) {
            std::fill_n(out.data() + r * out.ld(), out.cols(), 0.0f);
          }
        });
        in = core::GemmInput::bound(cview(n.inputs[0]), cview(n.inputs[1]),
                                    out);
      } else {
        in = core::GemmInput::shape_only(ta.rows, tb.cols, ta.cols);
      }
      const core::GemmResult r = rt_.submit(in, opt_.gemm).get();
      st.cycles = r.cycles;
      st.strategy = r.strategy;
      st.ddr_bytes_unplanned = r.ddr_bytes;
      // Residency deletes (at least) one full pass over each resident
      // operand: the producer already left it on-chip, or the result
      // never leaves. Clamped — the engine cannot save more than it
      // actually spent.
      std::uint64_t saved = 0;
      if (place(n.inputs[0]) != Placement::Ddr) saved += ta.bytes();
      if (place(n.inputs[1]) != Placement::Ddr) saved += tb.bytes();
      if (place(n.output) != Placement::Ddr) saved += tout.bytes();
      saved = std::min(saved, st.ddr_bytes_unplanned);
      st.ddr_bytes = st.ddr_bytes_unplanned - saved;
    } else {
      // Host-side node: elementwise through the SIMD primitives, or the
      // im2col gather. Traffic model: every operand is read (the bias row
      // once), the output written; the unplanned variant charges all of
      // it to DDR.
      Traffic planned;
      std::uint64_t unplanned = 0;
      for (const TensorId tin : n.inputs) {
        const std::uint64_t b =
            n.kind == OpKind::Im2col
                ? static_cast<std::uint64_t>(tout.bytes())  // gathered reads
                : g.tensor(tin).bytes();
        planned.touch(place(tin), b);
        unplanned += b;
      }
      planned.touch(place(n.output), tout.bytes());
      unplanned += tout.bytes();
      st.cycles = node_cycles(mc, planned, tout.rows * tout.cols);
      st.ddr_bytes = planned.ddr;
      st.ddr_bytes_unplanned = unplanned;

      if (fn) {
        const MatrixView out = views[static_cast<std::size_t>(n.output)];
        const ConstMatrixView x = cview(n.inputs[0]);
        if (n.kind == OpKind::Im2col) {
          const ConvParams& p = n.conv;
          FTM_EXPECTS(x.rows() == p.batch * p.in_ch * p.height &&
                      x.cols() == p.width);
          FTM_EXPECTS(out.rows() == p.gemm_m() && out.cols() == p.gemm_k());
          const auto gather = [&p, x, out](std::size_t r0, std::size_t r1) {
            im2col_gather(p, x, out, r0, r1);
          };
          for_row_chunks(pool, out, gather);
        } else {
          // Elementwise: out = x (no copy when the plan put both in one
          // buffer), then ReLU in place, or add the second operand — the
          // matching row for Add, BiasAdd's one bias row for every row.
          FTM_EXPECTS(x.rows() == out.rows() && x.cols() == out.cols());
          const OpKind kind = n.kind;
          ConstMatrixView y;
          std::size_t y_step = 0;
          if (kind != OpKind::Relu) {
            y = cview(n.inputs[1]);
            y_step = kind == OpKind::Add ? y.ld() : 0;
            FTM_EXPECTS(y.cols() == out.cols() &&
                        y.rows() == (kind == OpKind::Add ? out.rows() : 1));
          }
          for_row_chunks(pool, out, [=](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
              float* o = out.data() + r * out.ld();
              const float* xr = x.data() + r * x.ld();
              if (o != xr) std::copy(xr, xr + out.cols(), o);
              if (kind == OpKind::Relu) {
                kernelgen::hostsimd::relu_f32(o, out.cols());
              } else {
                kernelgen::hostsimd::add_f32(o, y.data() + r * y_step,
                                             out.cols());
              }
            }
          });
        }
      }
    }

    st.host_us = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - node_start)
                     .count();
    gr.cycles += st.cycles;
    gr.ddr_bytes += st.ddr_bytes;
    gr.ddr_bytes_unplanned += st.ddr_bytes_unplanned;
    if (ts != nullptr) {
      trace::Event e;
      e.name = "graph.node";
      e.cat = to_string(n.kind);
      e.ts = node_t0;
      e.dur = ts->host_now_us() - node_t0;
      e.track = trace::TrackKind::Runtime;
      e.arg("cycles", st.cycles);
      e.arg("ddr_bytes", st.ddr_bytes);
      e.arg("ddr_saved", st.ddr_bytes_unplanned - st.ddr_bytes);
      ts->record(e);
    }
    gr.node_stats.push_back(std::move(st));
  }

  gr.ddr_bytes_saved = gr.ddr_bytes_unplanned - gr.ddr_bytes;
  gr.seconds = static_cast<double>(gr.cycles) / (mc.freq_ghz * 1e9);
  gr.host_wall_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  if (ts != nullptr) {
    trace::Event e;
    e.name = "graph.run";
    e.cat = "graph";
    e.ts = run_t0;
    e.dur = ts->host_now_us() - run_t0;
    e.track = trace::TrackKind::Runtime;
    e.arg("nodes", gr.nodes);
    e.arg("cycles", gr.cycles);
    e.arg("ddr_saved", gr.ddr_bytes_saved);
    ts->record(e);
    ts->count("graph.runs");
    ts->count("graph.nodes", gr.nodes);
    ts->count("graph.cycles", gr.cycles);
    ts->count("graph.ddr_bytes", gr.ddr_bytes);
    ts->count("graph.ddr_bytes_saved", gr.ddr_bytes_saved);
    ts->count("graph.resident_tensors", plan_.resident_tensors);
    ts->count("graph.inplace_tensors", plan_.inplace_tensors);
    ts->count("graph.spilled_tensors", plan_.spilled_tensors);
  }
  return gr;
}

}  // namespace ftm::graph
