// model_sweep: the simulator as a research tool. Timing-only calls, one
// at a time, over the perf-gate taxonomy matrix (F32 Strategy::Auto), the
// half tier on the type-III shapes and the regular anchor, FP64 dgemm on
// the N = 32 type-I/II shapes, and the node tier at 2 and 4 nodes. No
// runtime queue and no host kernel math: the cost model and the node tier
// do all the work, so strategy/blocking/kernel-model changes move
// sim_gflops and cost-model host speed moves host_rps.
#include <cmath>
#include <map>
#include <string_view>

#include "common.hpp"
#include "ftm/core/dgemm.hpp"
#include "ftm/core/roofline.hpp"
#include "ftm/nodes/scaleout.hpp"
#include "ftm/workload/generators.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using ftm::core::FtimmOptions;
using ftm::core::GemmInput;
using ftm::core::GemmResult;
using ftm::kernelgen::DType;

enum class Path { F32, F16, F64, Node };

struct Kind {
  std::size_t m, n, k;
  Path path;
  int nodes = 0;
  double flops() const { return 2.0 * m * n * k; }
};

const char* path_name(Path p) {
  switch (p) {
    case Path::F32: return "f32";
    case Path::F16: return "f16";
    case Path::F64: return "f64";
    case Path::Node: return "nodes";
  }
  return "?";
}

class ModelSweep final : public Workload {
 public:
  explicit ModelSweep(const Config& cfg) : cfg_(cfg) {
    // The perf-gate matrix: two regular anchors, two shapes per irregular
    // type. The self-test shrinks every dimension 16x.
    const std::size_t d = cfg.tiny ? 16 : 1;
    std::vector<Shape> gate = {
        {2048 / d, 2048 / d, 2048 / d}, {4096 / d, 4096 / d, 4096 / d},
        {262144 / d, 32, 32},           {262144 / d, 64, 64},
        {32, 32, 262144 / d},           {64, 64, 262144 / d},
        {8192 / d, 96, 8192 / d},       {4096 / d, 64, 4096 / d}};
    // The seed jitters each shape's long dimension (K for type II).
    ftm::Prng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
    for (Shape& s : gate) {
      std::size_t& longest = s.m >= s.k ? s.m : s.k;
      longest = jitter(longest, rng);
    }
    for (const Shape& s : gate) kinds_.push_back({s.m, s.n, s.k, Path::F32});
    for (int i : {0, 6, 7}) {
      kinds_.push_back({gate[i].m, gate[i].n, gate[i].k, Path::F16});
    }
    for (int i : {2, 4}) {
      kinds_.push_back({gate[i].m, gate[i].n, gate[i].k, Path::F64});
    }
    for (int nodes : {2, 4}) {
      for (int i : {3, 6}) {
        kinds_.push_back({gate[i].m, gate[i].n, gate[i].k, Path::Node, nodes});
      }
    }
    epoch_ = shuffled_epoch(std::vector<int>(kinds_.size(), 1), cfg.seed);
  }

  const char* name() const override { return "model_sweep"; }

  std::string kind_label(int kind) const override {
    const Kind& k = kinds_[static_cast<std::size_t>(kind)];
    std::string s = std::string(path_name(k.path)) + ":" + std::to_string(k.m) +
                    "x" + std::to_string(k.n) + "x" + std::to_string(k.k);
    if (k.path == Path::Node) s += "@" + std::to_string(k.nodes);
    return s;
  }

  void setup() override {
    eng_ = std::make_unique<ftm::core::FtimmEngine>();
    for (int n : {2, 4}) {
      ftm::nodes::NodeOptions no;
      no.nodes = n;
      no.runtime.host_threads = 1;  // timing-only: no host math to spread
      (n == 2 ? nodes2_ : nodes4_) = std::make_unique<ftm::nodes::NodeCluster>(no);
    }
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      Recorder warm;
      issue(static_cast<int>(i), std::numeric_limits<std::size_t>::max(),
            warm);
    }
    reset_aggregates();
  }

  void teardown() override {
    nodes4_.reset();
    nodes2_.reset();
    eng_.reset();
  }

  void run(Clock::time_point until, std::size_t min_calls,
           Recorder& rec) override {
    const std::size_t start = rec.calls.size();
    while (Clock::now() < until || rec.calls.size() - start < min_calls) {
      const std::size_t seq = rec.next_seq++;
      issue(epoch_[seq % epoch_.size()], seq, rec);
    }
  }

  void layers(const Recorder& rec, const ftm::trace::CounterRegistry& tc,
              LayerTable& t, std::vector<Residual>& res) override {
    // Host clocks around each public call (traced blocks only).
    std::vector<double> engine_us, plan_us, node_ms;
    for (const Span& s : rec.spans ? rec.spans->spans() : std::vector<Span>{}) {
      const std::string_view n = s.name;
      if (n == "engine.sgemm" || n == "engine.dgemm") {
        engine_us.push_back(s.t1_us - s.t0_us);
      } else if (n == "engine.plan") {
        plan_us.push_back(s.t1_us - s.t0_us);
      } else if (n == "nodes.gemm") {
        node_ms.push_back((s.t1_us - s.t0_us) / 1000.0);
      }
    }
    const std::string none = "no traced call of this kind";
    set_or_missing(t, "core.engine_us.p50", "us", percentile(engine_us, 50),
                   "clock around sgemm_planned/sgemm/dgemm (n=" +
                       std::to_string(engine_us.size()) + ")",
                   none);
    set_or_missing(t, "core.plan_us.p50", "us", percentile(plan_us, 50),
                   "clock around FtimmEngine::plan (n=" +
                       std::to_string(plan_us.size()) + ")",
                   none);
    set_or_missing(t, "nodes.gemm_ms.p50", "ms", percentile(node_ms, 50),
                   "clock around NodeCluster::gemm (n=" +
                       std::to_string(node_ms.size()) + ")",
                   none);
    t.missing("core.engine_ns_per_flop", "ns/flop",
              "every model_sweep call is timing-only: no functional flops");

    // Simulated efficiency grouped by the paper's taxonomy and dtype.
    for (const auto& [group, eff] : eff_) {
      t.set("core.sim_eff." + group, "%", 100.0 * mean(eff),
            "GemmResult::efficiency, " + std::to_string(eff.size()) + " calls");
    }
    t.set("core.roofline_frac", "ratio", mean(roof_frac_),
          "simulated GFLOPS / FtimmEngine::roofline, FP32 calls");
    t.set("core.ddr_bytes_per_flop", "B/flop", ddr_bytes_ / engine_flops_,
          "GemmResult::ddr_bytes / flops, engine calls");
    t.set("kernelgen.calls_per_mflop", "count/MFLOP",
          kernel_calls_ / (engine_flops_ / 1e6),
          "GemmResult::kernel_calls per MFLOP, engine calls");

    // Node tier phases and links.
    t.set("nodes.input_share", "ratio", node_in_ / node_cycles_,
          "NodeResult::input_cycles / cycles");
    t.set("nodes.compute_share", "ratio", node_compute_ / node_cycles_,
          "NodeResult::compute_cycles / cycles");
    t.set("nodes.reduce_share", "ratio", node_reduce_ / node_cycles_,
          "NodeResult::reduce_cycles / cycles");
    t.set("nodes.link_bytes_per_flop", "B/flop", node_link_ / node_flops_,
          "NodeResult::link_bytes / flops");
    res.push_back({"NodeResult input + compute + reduce = cycles",
                   -static_cast<double>(node_phase_err_), 0, "cycles",
                   node_calls_});

    // The node tier's runtimes: the only GemmRuntime layer this workload
    // reaches (through run_all, never submit).
    std::vector<ftm::runtime::RequestStats> log;
    ftm::runtime::RuntimeStats st;
    std::vector<const ftm::kernelgen::KernelCache*> caches = {&eng_->kernels()};
    for (auto* nc : {nodes2_.get(), nodes4_.get()}) {
      for (int i = 0; i < nc->nodes(); ++i) {
        ftm::runtime::GemmRuntime& rt = nc->node(i);
        const auto l = rt.request_log();
        log.insert(log.end(), l.begin(), l.end());
        const auto s = rt.stats();
        st.plan_hits += s.plan_hits;
        st.plan_misses += s.plan_misses;
        st.steals += s.steals;
        st.executed += s.executed;
        caches.push_back(&rt.engine(0).kernels());
      }
    }
    runtime_layers(log, st, "node-tier runtimes via run_all", t);
    t.missing("runtime.submit_us.p50", "us",
              "model_sweep never calls GemmRuntime::submit");
    t.missing("runtime.delivery_us.p50", "us",
              "model_sweep never waits on a runtime future");
    kernel_cache_layers(caches, t);
    trace_layers(tc, traced_f32_flops_, t);
    t.missing("sim.dma_wait_share.f16_f64", "ratio",
              "dgemm and hgemm emit no trace spans or counters");
  }

 private:
  static double mean(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? std::nan("") : s / static_cast<double>(v.size());
  }

  void reset_aggregates() {
    eff_.clear();
    roof_frac_.clear();
    ddr_bytes_ = engine_flops_ = kernel_calls_ = 0;
    node_in_ = node_compute_ = node_reduce_ = node_cycles_ = 0;
    node_link_ = node_flops_ = traced_f32_flops_ = 0;
    node_phase_err_ = 0;
    node_calls_ = 0;
  }

  /// Issues one call of `kind`, checks it from outside, records it.
  void issue(int kind, std::size_t seq, Recorder& rec) {
    const Kind& k = kinds_[static_cast<std::size_t>(kind)];
    SpanLog* sp = rec.spans;
    const std::uint64_t req = seq;
    FtimmOptions opt;
    opt.functional = false;
    const GemmInput in = GemmInput::shape_only(k.m, k.n, k.k);
    Call c;
    c.seq = seq;
    c.kind = kind;
    c.flops = k.flops();
    const int root = sp ? sp->begin("call", req) : -1;
    const auto t0 = Clock::now();
    if (k.path == Path::Node) {
      ftm::nodes::NodeCluster& nc = k.nodes == 2 ? *nodes2_ : *nodes4_;
      const int s = sp ? sp->begin("nodes.gemm", req, root) : -1;
      ftm::nodes::NodeResult r = nc.gemm(in, opt);
      if (sp) sp->end(s);
      c.latency_us = us_between(t0, Clock::now());
      if (seq == cfg_.corrupt_seq) r.compute_cycles += 1;
      const std::uint64_t phases =
          r.input_cycles + r.compute_cycles + r.reduce_cycles;
      const std::uint64_t err =
          phases > r.cycles ? phases - r.cycles : r.cycles - phases;
      // Each cluster of each node is bounded by the whole shape's roofline.
      const double bound_cycles =
          k.flops() /
          (k.nodes * 4 * eng_->roofline(k.m, k.n, k.k, 8) * 1e9) * 1.8e9;
      c.cycles = r.cycles;
      c.ok = err == 0 && r.cycles > 0 &&
             static_cast<double>(r.cycles) + 1 >= bound_cycles;
      node_phase_err_ = std::max(node_phase_err_, err);
      node_in_ += static_cast<double>(r.input_cycles);
      node_compute_ += static_cast<double>(r.compute_cycles);
      node_reduce_ += static_cast<double>(r.reduce_cycles);
      node_cycles_ += static_cast<double>(r.cycles);
      node_link_ += static_cast<double>(r.link_bytes);
      node_flops_ += k.flops();
      ++node_calls_;
      if (sp) traced_f32_flops_ += k.flops();
    } else {
      GemmResult r;
      DType dt = DType::F32;
      if (k.path == Path::F32) {
        const int s = sp ? sp->begin("engine.plan", req, root) : -1;
        const ftm::core::GemmPlan plan = eng_->plan(k.m, k.n, k.k, opt);
        if (sp) sp->end(s);
        const int g = sp ? sp->begin("engine.sgemm", req, root) : -1;
        r = eng_->sgemm_planned(in, plan, opt);
        if (sp) sp->end(g);
        if (sp) traced_f32_flops_ += k.flops();
      } else if (k.path == Path::F16) {
        dt = DType::F16;
        opt.dtype = dt;
        const int g = sp ? sp->begin("engine.sgemm", req, root) : -1;
        r = eng_->sgemm(in, opt);
        if (sp) sp->end(g);
      } else {
        dt = DType::F64;
        const int g = sp ? sp->begin("engine.dgemm", req, root) : -1;
        r = ftm::core::dgemm(
            *eng_, ftm::core::DGemmInput::shape_only(k.m, k.n, k.k), opt);
        if (sp) sp->end(g);
      }
      c.latency_us = us_between(t0, Clock::now());
      if (seq == cfg_.corrupt_seq) r.ddr_bytes = 0;
      const double roof = ftm::core::roofline_gflops(k.m, k.n, k.k, opt.cores,
                                                     eng_->machine(), dt);
      const double bound_cycles = k.flops() / (roof * 1e9) * 1.8e9;
      c.cycles = r.cycles;
      c.ok = r.ddr_bytes > 0 && static_cast<double>(r.cycles) + 1 >= bound_cycles;
      std::string group = path_name(k.path);
      if (k.path == Path::F32) {
        group = taxonomy_group(k.m, k.n, k.k);
        roof_frac_.push_back(k.flops() / sim_seconds(r.cycles) / 1e9 /
                             eng_->roofline(k.m, k.n, k.k, opt.cores));
      }
      eff_[group].push_back(r.efficiency);
      ddr_bytes_ += static_cast<double>(r.ddr_bytes);
      kernel_calls_ += static_cast<double>(r.kernel_calls);
      engine_flops_ += k.flops();
    }
    if (sp) sp->end(root);
    rec.calls.push_back(c);
  }

  Config cfg_;
  std::vector<Kind> kinds_;
  std::unique_ptr<ftm::core::FtimmEngine> eng_;
  std::unique_ptr<ftm::nodes::NodeCluster> nodes2_, nodes4_;

  // Aggregates over the calls since setup() finished.
  std::map<std::string, std::vector<double>> eff_;
  std::vector<double> roof_frac_;
  double ddr_bytes_ = 0, engine_flops_ = 0, kernel_calls_ = 0;
  double node_in_ = 0, node_compute_ = 0, node_reduce_ = 0, node_cycles_ = 0;
  double node_link_ = 0, node_flops_ = 0, traced_f32_flops_ = 0;
  std::uint64_t node_phase_err_ = 0;
  std::size_t node_calls_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_model_sweep(const Config& cfg) {
  return std::make_unique<ModelSweep>(cfg);
}

}  // namespace pb
