// graph_chain: serial, dependent, latency-bound traffic. One functional
// GraphExecutor::run at a time over the perf gate's irregular MLP (1847
// rows, 512->256->64->10, bias+ReLU) and its im2col conv chain (64 input
// channels, 48x48, 96 output channels), split_wide=false as in the gate.
// The runtime sees one request at a time, so dispatch and delivery sit on
// the critical path while stealing and queueing do nothing; this is also
// the only workload that reaches the graph planner and the elementwise
// host kernels. Outputs are checked against the same ops run as separate
// reference GEMM, bias and ReLU passes.
#include <cmath>
#include <map>

#include "common.hpp"
#include "ftm/core/roofline.hpp"
#include "ftm/graph/executor.hpp"
#include "ftm/graph/graph.hpp"
#include "ftm/runtime/runtime.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace g = ftm::graph;

constexpr int kInstances = 2;

/// One chain with its bound inputs, output buffer and reference.
struct Chain {
  const char* label = "";
  g::Graph graph;
  std::vector<g::TensorId> inputs;
  g::TensorId output = -1;
  std::vector<Shape> gemms;  ///< GEMM node shapes in node order
  double flops = 0;          ///< GEMM flops of one run
  double tolerance = 0;
  struct Instance {
    std::vector<ftm::HostMatrix> in;
    ftm::HostMatrix ref;
  };
  std::vector<Instance> inst;
  ftm::HostMatrix out;
};

void add_gemm(Chain& c, std::size_t m, std::size_t n, std::size_t k) {
  c.gemms.push_back({m, n, k});
  c.flops += 2.0 * m * n * k;
  c.tolerance += ftm::gemm_tolerance(k);
}

/// x -> [gemm -> bias -> relu] per layer, no ReLU on the last.
Chain make_mlp(std::size_t rows, const std::vector<std::size_t>& dims,
               std::uint64_t seed) {
  Chain c;
  c.label = "mlp";
  g::TensorId h = c.graph.input("x", rows, dims[0]);
  c.inputs.push_back(h);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const g::TensorId w = c.graph.input("w", dims[l], dims[l + 1]);
    const g::TensorId b = c.graph.input("b", 1, dims[l + 1]);
    c.inputs.push_back(w);
    c.inputs.push_back(b);
    h = c.graph.bias_add(c.graph.gemm(h, w), b);
    if (l + 2 < dims.size()) h = c.graph.relu(h);
    add_gemm(c, rows, dims[l + 1], dims[l]);
  }
  c.graph.mark_output(h);
  c.output = h;
  for (int i = 0; i < kInstances; ++i) {
    ftm::Prng rng(seed + static_cast<std::uint64_t>(i));
    Chain::Instance inst;
    for (g::TensorId t : c.inputs) {
      const g::Tensor& tt = c.graph.tensor(t);
      inst.in.emplace_back(tt.rows, tt.cols);
      inst.in.back().fill_random(rng);
    }
    // Reference: the same ops as separate passes, float between layers.
    ftm::HostMatrix cur(rows, dims[0]);
    std::copy_n(inst.in[0].data(), cur.size(), cur.data());
    for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
      ftm::HostMatrix next(rows, dims[l + 1]);
      reference_gemm(cur.cview(), inst.in[1 + 2 * l].cview(), next.view());
      const float* bias = inst.in[2 + 2 * l].data();
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t j = 0; j < dims[l + 1]; ++j) {
          float v = next.at(r, j) + bias[j];
          if (l + 2 < dims.size()) v = v > 0.0f ? v : 0.0f;
          next.at(r, j) = v;
        }
      }
      cur = std::move(next);
    }
    inst.ref = std::move(cur);
    c.inst.push_back(std::move(inst));
  }
  c.out = ftm::HostMatrix(rows, dims.back());
  return c;
}

Chain make_conv(std::size_t in_ch, std::size_t hw, std::size_t out_ch,
                std::uint64_t seed) {
  Chain c;
  c.label = "conv";
  g::ConvParams p;
  p.in_ch = in_ch;
  p.height = p.width = hw;
  const g::TensorId img = c.graph.input("img", p.batch * in_ch * hw, hw);
  const g::TensorId filt = c.graph.input("filters", p.gemm_k(), out_ch);
  c.inputs = {img, filt};
  c.output = g::conv2d(c.graph, img, filt, p, "conv");
  c.graph.mark_output(c.output);
  add_gemm(c, p.gemm_m(), out_ch, p.gemm_k());
  for (int i = 0; i < kInstances; ++i) {
    ftm::Prng rng(seed + static_cast<std::uint64_t>(i));
    Chain::Instance inst;
    inst.in.emplace_back(p.batch * in_ch * hw, hw);
    inst.in.emplace_back(p.gemm_k(), out_ch);
    for (auto& m : inst.in) m.fill_random(rng);
    // Reference im2col: row = (oy, ox), col = (ch, ky, kx), zero padding.
    ftm::HostMatrix patches(p.gemm_m(), p.gemm_k());
    const ftm::HostMatrix& im = inst.in[0];
    for (std::size_t oy = 0; oy < p.out_h(); ++oy) {
      for (std::size_t ox = 0; ox < p.out_w(); ++ox) {
        std::size_t col = 0;
        for (std::size_t ch = 0; ch < in_ch; ++ch) {
          for (std::size_t ky = 0; ky < p.kh; ++ky) {
            for (std::size_t kx = 0; kx < p.kw; ++kx, ++col) {
              const long y = static_cast<long>(oy + ky) - static_cast<long>(p.pad);
              const long x = static_cast<long>(ox + kx) - static_cast<long>(p.pad);
              const bool in = y >= 0 && x >= 0 && y < static_cast<long>(hw) &&
                              x < static_cast<long>(hw);
              patches.at(oy * p.out_w() + ox, col) =
                  in ? im.at(ch * hw + static_cast<std::size_t>(y),
                             static_cast<std::size_t>(x))
                     : 0.0f;
            }
          }
        }
      }
    }
    inst.ref = ftm::HostMatrix(p.gemm_m(), out_ch);
    reference_gemm(patches.cview(), inst.in[1].cview(), inst.ref.view());
    c.inst.push_back(std::move(inst));
  }
  c.out = ftm::HostMatrix(p.gemm_m(), out_ch);
  return c;
}

class GraphChain final : public Workload {
 public:
  explicit GraphChain(const Config& cfg) : cfg_(cfg) {
    const std::size_t d = cfg.tiny ? 8 : 1;
    // The seed adds up to 63 rows to the MLP batch.
    ftm::Prng shape_rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 3);
    const std::size_t rows = 1847 / d + shape_rng.next_below(64);
    chains_.push_back(make_mlp(rows, {512, 256, 64, 10}, cfg.seed * 7919));
    chains_.push_back(make_conv(64, 48 / (cfg.tiny ? 4 : 1), 96, cfg.seed * 104729));
    // 3 MLP : 5 conv per epoch. An even split would put the latency median
    // on the boundary between the two chains' latency modes.
    epoch_ = shuffled_epoch({3, 5}, cfg.seed);
    ftm::Prng rng(cfg.seed ^ 0x6a09e667ULL);
    for (std::size_t i = 0; i < epoch_.size(); ++i) {
      instance_.push_back(static_cast<int>(rng.next_below(kInstances)));
    }
  }

  const char* name() const override { return "graph_chain"; }

  std::string kind_label(int kind) const override {
    return chains_[static_cast<std::size_t>(kind)].label;
  }

  void setup() override {
    ftm::runtime::RuntimeOptions ro;
    ro.split_wide = false;  // as bench_perf_gate: keeps cycles reproducible
    rt_ = std::make_unique<ftm::runtime::GemmRuntime>(ro);
    ex_ = std::make_unique<g::GraphExecutor>(*rt_);
    submitted_ = 0;
    for (std::size_t i = 0; i < chains_.size(); ++i) {
      Recorder warm;
      issue(static_cast<int>(i), 0, std::numeric_limits<std::size_t>::max(),
            warm);
      if (!warm.calls.back().ok) {
        throw std::runtime_error(std::string("warm-up output check failed: ") +
                                 chains_[i].label);
      }
    }
    warm_ids_ = submitted_;
    reset_aggregates();
  }

  void teardown() override {
    ex_.reset();
    rt_.reset();
  }

  void run(Clock::time_point until, std::size_t min_calls,
           Recorder& rec) override {
    const std::size_t start = rec.calls.size();
    while (Clock::now() < until || rec.calls.size() - start < min_calls) {
      const std::size_t seq = rec.next_seq++;
      const std::size_t pos = seq % epoch_.size();
      issue(epoch_[pos], instance_[pos], seq, rec);
    }
  }

  void layers(const Recorder& rec, const ftm::trace::CounterRegistry& tc,
              LayerTable& t, std::vector<Residual>& res) override {
    const auto log = rt_->request_log();
    std::map<std::uint64_t, const ftm::runtime::RequestStats*> by_id;
    for (const auto& r : log) by_id[r.id] = &r;
    std::vector<double> run_ms, self_us, engine_us;
    double worst = 0;
    for (const Run& r : traced_) {
      double inside_us = 0;
      for (std::uint64_t id = r.first_id; id < r.first_id + r.requests; ++id) {
        const auto it = by_id.find(id);
        if (it != by_id.end()) {
          inside_us += 1000.0 * (it->second->queue_wait_ms + it->second->exec_ms);
        }
      }
      run_ms.push_back(r.run_us / 1000.0);
      self_us.push_back(r.run_us - inside_us);
      worst = self_us.size() == 1 ? self_us.back() : std::min(worst, self_us.back());
    }
    double wall_us = 0;
    for (const auto& r : log) {
      if (r.id <= warm_ids_) continue;
      if (r.host_wall_us > 0) engine_us.push_back(r.host_wall_us);
      wall_us += r.host_wall_us;
    }
    const std::string none = "no traced graph run";
    set_or_missing(t, "graph.run_ms.p50", "ms", percentile(run_ms, 50),
                   "clock around GraphExecutor::run (n=" +
                       std::to_string(run_ms.size()) + ")",
                   none);
    set_or_missing(t, "graph.self_us.p50", "us", percentile(self_us, 50),
                   "run time - sum(queue wait + exec) of its requests", none);
    res.push_back({"graph.run >= sum of its requests", worst, 50, "us",
                   traced_.size()});
    t.set("graph.gemm_cycle_share", "ratio", gemm_cycles_ / graph_cycles_,
          "sum GEMM NodeStats::cycles / GraphResult::cycles");
    t.set("graph.ddr_saved_ratio", "ratio", ddr_saved_ / ddr_unplanned_,
          "ddr_bytes_saved / ddr_bytes_unplanned");
    set_or_missing(t, "core.engine_us.p50", "us", percentile(engine_us, 50),
                   "RequestStats::host_wall_us (n=" +
                       std::to_string(engine_us.size()) + ")",
                   "host_wall_us is 0 on every dispatch");
    t.set("core.engine_ns_per_flop", "ns/flop", 1000.0 * wall_us / gemm_flops_,
          "sum RequestStats::host_wall_us / sum GEMM flops");
    for (const auto& [group, eff] : eff_) {
      t.set("core.sim_eff." + group, "%", 100.0 * eff.first / eff.second,
            "NodeStats::cycles of GEMM nodes vs the cluster peak");
    }
    t.set("core.roofline_frac", "ratio", roof_sum_ / roof_n_,
          "simulated GFLOPS of GEMM nodes / FtimmEngine::roofline");
    t.set("core.ddr_bytes_per_flop", "B/flop", ddr_bytes_ / gemm_flops_,
          "GraphResult::ddr_bytes (planned, all nodes) / GEMM flops");
    const double traced_flops = traced_flops_;
    set_or_missing(t, "kernelgen.calls_per_mflop", "count/MFLOP",
                   tc.value("gemm.cycles") > 0
                       ? static_cast<double>(tc.value("kernel.calls")) /
                             (traced_flops / 1e6)
                       : std::nan(""),
                   "trace kernel.calls per traced MFLOP (GraphResult carries "
                   "no kernel_calls)",
                   "no traced FP32 engine call");
    runtime_layers(log, rt_->stats(), "graph executor's runtime", t);
    t.missing("runtime.submit_us.p50", "us",
              "GraphExecutor submits internally; the caller sees only run()");
    t.missing("runtime.delivery_us.p50", "us",
              "GraphExecutor waits on its futures internally");
    kernel_cache_layers({&rt_->engine(0).kernels()}, t);
    trace_layers(tc, traced_flops, t);
    std::vector<Shape> shapes;
    for (const Chain& c : chains_) {
      shapes.insert(shapes.end(), c.gemms.begin(), c.gemms.end());
    }
    plan_layers(shapes, t);
    std::printf("worst output error / tolerance: %.3g\n", worst_err_ratio_);
    (void)rec;
  }

 private:
  struct Run {
    std::uint64_t first_id;
    std::size_t requests;
    double run_us;
  };

  void reset_aggregates() {
    eff_.clear();
    traced_.clear();
    gemm_cycles_ = graph_cycles_ = ddr_saved_ = ddr_unplanned_ = 0;
    roof_sum_ = roof_n_ = ddr_bytes_ = gemm_flops_ = traced_flops_ = 0;
    worst_err_ratio_ = 0;
  }

  void issue(int kind, int inst, std::size_t seq, Recorder& rec) {
    Chain& c = chains_[static_cast<std::size_t>(kind)];
    const Chain::Instance& in = c.inst[static_cast<std::size_t>(inst)];
    g::Bindings bind;
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      bind.bind_input(c.inputs[i], in.in[i].cview());
    }
    bind.bind_output(c.output, c.out.view());
    SpanLog* sp = rec.spans;
    Call call;
    call.seq = seq;
    call.kind = kind;
    call.flops = c.flops;
    const std::uint64_t first_id = submitted_ + 1;
    const int s = sp ? sp->begin("graph.run", seq) : -1;
    const auto t0 = Clock::now();
    try {
      const g::GraphResult gr = ex_->run(c.graph, bind);
      call.latency_us = us_between(t0, Clock::now());
      if (sp) sp->end(s);
      submitted_ += gr.gemm_nodes;
      if (seq == cfg_.corrupt_seq) c.out.at(0, 0) += 1.0f;
      const double err = ftm::max_rel_diff(c.out.cview(), in.ref.cview());
      worst_err_ratio_ = std::max(worst_err_ratio_, err / c.tolerance);
      call.cycles = gr.cycles;
      call.ok = err <= c.tolerance && gr.cycles > 0;
      std::size_t gi = 0;
      const ftm::isa::MachineConfig& mc = rt_->machine();
      for (const g::NodeStats& ns : gr.node_stats) {
        if (ns.kind != g::OpKind::Gemm) continue;
        const Shape& sh = c.gemms[gi++];
        gemm_cycles_ += static_cast<double>(ns.cycles);
        const double f = 2.0 * sh.m * sh.n * sh.k;
        const double gflops = f / sim_seconds(ns.cycles) / 1e9;
        roof_sum_ += gflops / ftm::core::roofline_gflops(sh.m, sh.n, sh.k, 8, mc);
        roof_n_ += 1;
        auto& e = eff_[taxonomy_group(sh.m, sh.n, sh.k)];
        e.first += gflops / mc.cluster_peak_gflops();
        e.second += 1;
      }
      graph_cycles_ += static_cast<double>(gr.cycles);
      ddr_saved_ += static_cast<double>(gr.ddr_bytes_saved);
      ddr_unplanned_ += static_cast<double>(gr.ddr_bytes_unplanned);
      ddr_bytes_ += static_cast<double>(gr.ddr_bytes);
      gemm_flops_ += c.flops;
      if (sp) {
        traced_flops_ += c.flops;
        traced_.push_back({first_id, gr.gemm_nodes, call.latency_us});
      }
    } catch (const std::exception&) {
      call.latency_us = us_between(t0, Clock::now());
      if (sp) sp->end(s);
      call.ok = false;
      // The failed run's requests still took ids; resynchronise.
      submitted_ = rt_->stats().submitted;
    }
    rec.calls.push_back(call);
  }

  Config cfg_;
  std::vector<Chain> chains_;
  std::vector<int> instance_;
  std::unique_ptr<ftm::runtime::GemmRuntime> rt_;
  std::unique_ptr<g::GraphExecutor> ex_;
  std::uint64_t submitted_ = 0, warm_ids_ = 0;

  std::map<std::string, std::pair<double, double>> eff_;
  std::vector<Run> traced_;
  double gemm_cycles_ = 0, graph_cycles_ = 0, ddr_saved_ = 0,
         ddr_unplanned_ = 0;
  double roof_sum_ = 0, roof_n_ = 0, ddr_bytes_ = 0, gemm_flops_ = 0,
         traced_flops_ = 0, worst_err_ratio_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_graph_chain(const Config& cfg) {
  return std::make_unique<GraphChain>(cfg);
}

}  // namespace pb
