// serve_mixed: concurrent functional serving through GemmRuntime::submit,
// the runtime's end-to-end path. A closed loop from one thread keeps nproc
// requests outstanding (runtime defaults except split_wide=false) over a
// seeded mix of the paper's application shapes: FEM-sized smalls, the
// K-means distance GEMM (type I), im2col conv layers, a type-II deep
// reduction and a type-III 1024x64x1024, one request in eight at F16.
// Request sizes span about three orders of magnitude of flops, so both
// per-request runtime overhead and host kernel math show. Every C is
// checked against a double-precision reference built before set-up.
#include <unistd.h>

#include <cmath>
#include <deque>
#include <future>
#include <map>

#include "common.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/workload/generators.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using ftm::core::FtimmOptions;
using ftm::core::GemmInput;
using ftm::core::GemmResult;

struct Kind {
  const char* label;
  std::size_t m, n, k;
  bool half;
  int quota;  ///< requests per 64-request epoch
  const ftm::workload::ConvLayer* conv = nullptr;
  double flops() const { return 2.0 * m * n * k; }
};

constexpr int kInstances = 2;  ///< seeded operand sets per kind

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Config& cfg) : cfg_(cfg) {
    const std::size_t d = cfg.tiny ? 8 : 1;
    conv1_.name = "conv_in3";
    conv1_.in_ch = 3;
    conv1_.height = conv1_.width = 112 / d;
    conv1_.out_ch = 64;
    conv2_.name = "conv_in96";
    conv2_.in_ch = 96;
    conv2_.height = conv2_.width = 14;
    conv2_.out_ch = 96;
    // The seed jitters the long dimension of the K-means, deep-reduction
    // and type-III shapes; FEM elements and conv layers are fixed sizes.
    ftm::Prng shape_rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 2);
    const std::size_t kmeans_m = jitter(32768 / d, shape_rng);
    const std::size_t deep_k = jitter(16384 / d, shape_rng);
    const std::size_t type3_m = jitter(1024 / d, shape_rng);
    kinds_ = {
        {"fem", 512 / d, 16, 32, false, 24},
        {"fem.f16", 512 / d, 16, 32, true, 4},
        {"kmeans", kmeans_m, 16, 32, false, 6},
        {"conv_in3", conv1_.gemm_m(), conv1_.gemm_n(), conv1_.gemm_k(), false,
         6, &conv1_},
        {"conv_in96", conv2_.gemm_m(), conv2_.gemm_n(), conv2_.gemm_k(), false,
         6, &conv2_},
        {"conv_in96.f16", conv2_.gemm_m(), conv2_.gemm_n(), conv2_.gemm_k(),
         true, 2, &conv2_},
        {"deep_k", 32, 32, deep_k, false, 7},
        {"type3", type3_m, 64, 1024, false, 7},
        {"type3.f16", type3_m, 64, 1024, true, 2},
    };
    std::vector<int> quota;
    for (const Kind& k : kinds_) quota.push_back(k.quota);
    epoch_ = shuffled_epoch(quota, cfg.seed);
    // Which operand set each epoch slot uses is seeded too.
    ftm::Prng rng(cfg.seed ^ 0x5e57e5ULL);
    for (std::size_t i = 0; i < epoch_.size(); ++i) {
      instance_.push_back(static_cast<int>(rng.next_below(kInstances)));
    }
    std::size_t max_c = 0;
    for (std::size_t ki = 0; ki < kinds_.size(); ++ki) {
      const Kind& k = kinds_[ki];
      max_c = std::max(max_c, k.m * k.n);
      for (int i = 0; i < kInstances; ++i) {
        const std::uint64_t s = cfg.seed * 1000003ULL + ki * 16 + i;
        if (k.conv) {
          auto p = ftm::workload::make_im2col_gemm(*k.conv, s);
          Operands o{std::move(p.a), std::move(p.b), ftm::HostMatrix(k.m, k.n)};
          reference_gemm(o.a.cview(), o.b.cview(), o.ref.view(), k.half);
          ops_[ki].push_back(std::move(o));
        } else {
          ops_[ki].push_back(make_operands(k.m, k.n, k.k, s, k.half));
        }
      }
    }
    window_ = static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    for (std::size_t i = 0; i < window_; ++i) slots_.emplace_back(max_c, 1);
  }

  const char* name() const override { return "serve_mixed"; }

  std::string kind_label(int kind) const override {
    const Kind& k = kinds_[static_cast<std::size_t>(kind)];
    return std::string(k.label) + ":" + std::to_string(k.m) + "x" +
           std::to_string(k.n) + "x" + std::to_string(k.k);
  }

  void setup() override {
    ftm::runtime::RuntimeOptions ro;
    ro.split_wide = false;  // the split decision reads wall-clock idle state
    rt_ = std::make_unique<ftm::runtime::GemmRuntime>(ro);
    submitted_ = 0;
    for (std::size_t ki = 0; ki < kinds_.size(); ++ki) {
      InFlight f = submit(static_cast<int>(ki), 0, 0,
                          std::numeric_limits<std::size_t>::max(), nullptr);
      Recorder warm;
      complete(f, warm);
      if (!warm.calls.back().ok) {
        throw std::runtime_error(std::string("warm-up output check failed: ") +
                                 kinds_[ki].label);
      }
    }
    reset_aggregates();
  }

  void teardown() override { rt_.reset(); }

  void run(Clock::time_point until, std::size_t min_calls,
           Recorder& rec) override {
    std::deque<InFlight> q;
    std::vector<bool> busy(window_, false);
    std::size_t issued = 0;
    const auto want_more = [&] {
      return Clock::now() < until || issued < min_calls;
    };
    while (true) {
      while (q.size() < window_ && want_more()) {
        std::size_t slot = 0;
        while (busy[slot]) ++slot;
        busy[slot] = true;
        const std::size_t seq = rec.next_seq++;
        const std::size_t pos = seq % epoch_.size();
        q.push_back(submit(epoch_[pos], instance_[pos], slot, seq, rec.spans));
        ++issued;
      }
      if (q.empty()) break;
      busy[q.front().slot] = false;
      complete(q.front(), rec);
      q.pop_front();
    }
  }

  void layers(const Recorder& rec, const ftm::trace::CounterRegistry& tc,
              LayerTable& t, std::vector<Residual>& res) override {
    const auto log = rt_->request_log();
    std::map<std::uint64_t, const ftm::runtime::RequestStats*> by_id;
    for (const auto& r : log) by_id[r.id] = &r;
    std::vector<double> submit_us, delivery_us, engine_us;
    double worst = 0;
    std::size_t n = 0, overlapped = 0;
    for (const Traced& tr : traced_) {
      submit_us.push_back(tr.submit_us);
      const auto it = by_id.find(tr.id);
      if (it == by_id.end()) continue;
      const auto& r = *it->second;
      // caller latency = submit + queue wait + exec + delivery, with
      // delivery the residual. The runtime's queue-wait clock starts inside
      // submit and a worker may finish the request before submit returns,
      // so submit can overlap the runtime's phases; what must hold is that
      // those phases fit inside the caller's window.
      const double phases = 1000.0 * (r.queue_wait_ms + r.exec_ms);
      const double d = tr.latency_us - tr.submit_us - phases;
      delivery_us.push_back(d);
      overlapped += d < 0 ? 1 : 0;
      const double fit = tr.latency_us - phases;
      worst = n++ ? std::min(worst, fit) : fit;
    }
    for (const auto& r : log) {
      if (r.host_wall_us > 0) engine_us.push_back(r.host_wall_us);
    }
    const std::string none = "no traced request";
    set_or_missing(t, "runtime.submit_us.p50", "us", percentile(submit_us, 50),
                   "clock around GemmRuntime::submit (n=" +
                       std::to_string(submit_us.size()) + ")",
                   none);
    set_or_missing(t, "runtime.delivery_us.p50", "us",
                   percentile(delivery_us, 50),
                   "caller latency - submit - queue wait - exec (n=" +
                       std::to_string(delivery_us.size()) + ", " +
                       std::to_string(overlapped) +
                       " negative where submit overlapped the runtime's "
                       "phases; includes waiting behind older futures, FIFO "
                       "get)",
                   none);
    res.push_back({"caller latency = submit + queue wait + exec + delivery "
                   "(checked: caller latency - queue wait - exec >= 0)",
                   worst, 50, "us", n});
    set_or_missing(t, "core.engine_us.p50", "us", percentile(engine_us, 50),
                   "RequestStats::host_wall_us (n=" +
                       std::to_string(engine_us.size()) + ")",
                   "host_wall_us is 0 on every dispatch");
    t.set("core.engine_ns_per_flop", "ns/flop",
          1000.0 * host_wall_us_ / functional_flops_,
          "sum GemmResult::host_wall_us / sum flops, functional requests");
    for (const auto& [group, eff] : eff_) {
      double s = 0;
      for (double e : eff) s += e;
      t.set("core.sim_eff." + group, "%", 100.0 * s / static_cast<double>(eff.size()),
            "GemmResult::efficiency, " + std::to_string(eff.size()) + " requests");
    }
    t.set("core.roofline_frac", "ratio", roof_sum_ / roof_n_,
          "simulated GFLOPS / FtimmEngine::roofline, FP32 requests");
    t.set("core.ddr_bytes_per_flop", "B/flop", ddr_bytes_ / functional_flops_,
          "GemmResult::ddr_bytes / flops");
    t.set("kernelgen.calls_per_mflop", "count/MFLOP",
          kernel_calls_ / (functional_flops_ / 1e6),
          "GemmResult::kernel_calls per MFLOP");
    runtime_layers(log, rt_->stats(), "serving runtime", t);
    kernel_cache_layers({&rt_->engine(0).kernels()}, t);
    trace_layers(tc, traced_f32_flops_, t);
    t.missing("sim.dma_wait_share.f16", "ratio",
              "hgemm emits no trace spans or counters");
    std::vector<Shape> shapes;
    for (const Kind& k : kinds_) {
      if (!k.half) shapes.push_back({k.m, k.n, k.k});
    }
    plan_layers(shapes, t);
    for (const auto& [dt, err] : worst_err_) {
      std::printf("worst output error %s: %.3g (tolerance %s)\n", dt.c_str(),
                  err, dt == "f16" ? "4 * gemm_tolerance(k), F16-rounded reference"
                                : "gemm_tolerance(k)");
    }
    (void)rec;
  }

 private:
  struct InFlight {
    std::size_t seq;
    int kind, inst;
    std::size_t slot;
    std::uint64_t id;
    Clock::time_point t0;
    double submit_us;
    std::future<GemmResult> fut;
    int root = -1;
  };
  struct Traced {
    std::uint64_t id;
    double latency_us, submit_us;
  };

  void reset_aggregates() {
    eff_.clear();
    worst_err_.clear();
    traced_.clear();
    roof_sum_ = roof_n_ = ddr_bytes_ = kernel_calls_ = 0;
    functional_flops_ = host_wall_us_ = traced_f32_flops_ = 0;
  }

  ftm::MatrixView c_view(std::size_t slot, const Kind& k) {
    return ftm::MatrixView(slots_[slot].data(), k.m, k.n);
  }

  InFlight submit(int kind, int inst, std::size_t slot, std::size_t seq,
                  SpanLog* sp) {
    const Kind& k = kinds_[static_cast<std::size_t>(kind)];
    const Operands& o = ops_[static_cast<std::size_t>(kind)][static_cast<std::size_t>(inst)];
    const ftm::MatrixView c = c_view(slot, k);
    c.fill(0.0f);
    FtimmOptions opt;
    if (k.half) opt.dtype = ftm::kernelgen::DType::F16;
    InFlight f{seq, kind, inst, slot, ++submitted_, {}, 0, {}, -1};
    f.root = sp ? sp->begin("request", seq) : -1;
    const int s = sp ? sp->begin("submit", seq, f.root) : -1;
    f.t0 = Clock::now();
    f.fut = rt_->submit(GemmInput::bound(o.a.cview(), o.b.cview(), c), opt);
    f.submit_us = us_between(f.t0, Clock::now());
    if (sp) sp->end(s);
    return f;
  }

  void complete(InFlight& f, Recorder& rec) {
    const Kind& k = kinds_[static_cast<std::size_t>(f.kind)];
    SpanLog* sp = rec.spans;
    Call c;
    c.seq = f.seq;
    c.kind = f.kind;
    c.flops = k.flops();
    const int g = sp && f.root >= 0 ? sp->begin("future.get", f.seq, f.root) : -1;
    try {
      const GemmResult r = f.fut.get();
      c.latency_us = us_between(f.t0, Clock::now());
      if (g >= 0) sp->end(g);
      c.cycles = r.cycles;
      const ftm::MatrixView cv = c_view(f.slot, k);
      if (f.seq == cfg_.corrupt_seq) cv(0, 0) += 1.0f;
      const double err = ftm::max_rel_diff(
          cv, ops_[static_cast<std::size_t>(f.kind)][static_cast<std::size_t>(f.inst)].ref.cview());
      const std::string dt = k.half ? "f16" : "f32";
      worst_err_[dt] = std::max(worst_err_[dt], err);
      c.ok = err <= output_tolerance(k.k, k.half) && !r.cpu_fallback &&
             r.cycles > 0;
      const std::string group = k.half ? "f16" : taxonomy_group(k.m, k.n, k.k);
      if (!k.half) {
        roof_sum_ += k.flops() / sim_seconds(r.cycles) / 1e9 /
                     ftm::core::roofline_gflops(k.m, k.n, k.k, r.cores,
                                                rt_->machine());
        roof_n_ += 1;
        if (f.root >= 0) traced_f32_flops_ += k.flops();
      }
      eff_[group].push_back(r.efficiency);
      ddr_bytes_ += static_cast<double>(r.ddr_bytes);
      kernel_calls_ += static_cast<double>(r.kernel_calls);
      functional_flops_ += k.flops();
      host_wall_us_ += r.host_wall_us;
    } catch (const std::exception&) {
      c.latency_us = us_between(f.t0, Clock::now());
      if (g >= 0) sp->end(g);
      c.ok = false;
    }
    if (f.root >= 0) {
      sp->end(f.root);
      traced_.push_back({f.id, c.latency_us, f.submit_us});
    }
    rec.calls.push_back(c);
  }

  Config cfg_;
  ftm::workload::ConvLayer conv1_, conv2_;
  std::vector<Kind> kinds_;
  std::vector<int> instance_;
  std::map<std::size_t, std::vector<Operands>> ops_;
  std::size_t window_ = 4;
  std::vector<std::vector<float>> slots_;
  std::unique_ptr<ftm::runtime::GemmRuntime> rt_;
  std::uint64_t submitted_ = 0;

  std::map<std::string, std::vector<double>> eff_;
  std::map<std::string, double> worst_err_;
  std::vector<Traced> traced_;
  double roof_sum_ = 0, roof_n_ = 0, ddr_bytes_ = 0, kernel_calls_ = 0;
  double functional_flops_ = 0, host_wall_us_ = 0, traced_f32_flops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const Config& cfg) {
  return std::make_unique<ServeMixed>(cfg);
}

}  // namespace pb
