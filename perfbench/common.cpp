#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "ftm/util/half.hpp"
#include "ftm/util/prng.hpp"
#include "ftm/workload/generators.hpp"

namespace pb {

namespace {
constexpr double kFreqHz = 1.8e9;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double sim_seconds(std::uint64_t cycles) {
  return static_cast<double>(cycles) / kFreqHz;
}

void reference_gemm(ftm::ConstMatrixView a, ftm::ConstMatrixView b,
                    ftm::MatrixView out) {
  std::vector<double> row(b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    std::fill(row.begin(), row.end(), 0.0);
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const double av = a(i, p);
      const float* br = b.row(p);
      for (std::size_t j = 0; j < b.cols(); ++j) row[j] += av * br[j];
    }
    for (std::size_t j = 0; j < b.cols(); ++j) {
      out(i, j) = static_cast<float>(row[j]);
    }
  }
}

void reference_gemm(ftm::ConstMatrixView a, ftm::ConstMatrixView b,
                    ftm::MatrixView out, bool half) {
  if (!half) return reference_gemm(a, b, out);
  const auto rounded = [](ftm::ConstMatrixView m) {
    ftm::HostMatrix r(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        r.at(i, j) = ftm::util::half_to_f32(ftm::util::f32_to_half(m(i, j), false),
                                            false);
      }
    }
    return r;
  };
  const ftm::HostMatrix ah = rounded(a), bh = rounded(b);
  reference_gemm(ah.cview(), bh.cview(), out);
}

Operands make_operands(std::size_t m, std::size_t n, std::size_t k,
                       std::uint64_t seed, bool half) {
  Operands o{ftm::HostMatrix(m, k), ftm::HostMatrix(k, n),
             ftm::HostMatrix(m, n)};
  ftm::Prng rng(seed);
  o.a.fill_random(rng);
  o.b.fill_random(rng);
  reference_gemm(o.a.cview(), o.b.cview(), o.ref.view(), half);
  return o;
}

double output_tolerance(std::size_t k, bool half) {
  return (half ? 4.0 : 1.0) * ftm::gemm_tolerance(k);
}

std::size_t jitter(std::size_t x, ftm::Prng& rng) {
  return x + 16 * rng.next_below(std::max<std::size_t>(1, x / 512));
}

std::string taxonomy_group(std::size_t m, std::size_t n, std::size_t k) {
  switch (ftm::workload::classify(m, n, k)) {
    case ftm::workload::IrregularType::TallTimesSmall: return "type1";
    case ftm::workload::IrregularType::SkinnyTallTimesTall: return "type2";
    case ftm::workload::IrregularType::RegularTimesSkinny: return "type3";
    case ftm::workload::IrregularType::Regular: break;
  }
  return "regular";
}

void set_or_missing(LayerTable& t, const std::string& name,
                    const std::string& unit, double v,
                    const std::string& source, const std::string& reason) {
  if (std::isnan(v)) {
    t.missing(name, unit, reason);
  } else {
    t.set(name, unit, v, source);
  }
}

void runtime_layers(const std::vector<ftm::runtime::RequestStats>& log,
                    const ftm::runtime::RuntimeStats& st,
                    const std::string& source, LayerTable& t) {
  std::vector<double> wait, dispatch, lane;
  std::map<int, double> cluster_exec;
  std::size_t no_wall = 0, fallback = 0;
  for (const auto& r : log) {
    wait.push_back(r.queue_wait_ms);
    cluster_exec[r.cluster] += r.exec_ms;
    if (r.cpu_fallback) {
      ++fallback;
      continue;
    }
    lane.push_back(sim_seconds(r.finish_cycle - r.arrival_cycle) * 1e6);
    if (r.host_wall_us > 0) {
      dispatch.push_back(r.exec_ms * 1000.0 - r.host_wall_us);
    } else {
      ++no_wall;
    }
  }
  const std::string n = " (n=" + std::to_string(log.size()) + ", " + source + ")";
  t.set("runtime.queue_wait_ms.p50", "ms", percentile(wait, 50),
        "RequestStats::queue_wait_ms" + n);
  t.set("runtime.queue_wait_ms.p99", "ms", percentile(wait, 99),
        "RequestStats::queue_wait_ms" + n);
  set_or_missing(
      t, "runtime.dispatch_us.p50", "us", percentile(dispatch, 50),
      "exec_ms*1000 - host_wall_us" + n +
          (no_wall ? ", " + std::to_string(no_wall) +
                         " dispatches without host_wall_us excluded"
                   : ""),
      "host_wall_us is 0 on every dispatch (Strassen path or CPU fallback "
      "leave it unset)");
  const double lookups = static_cast<double>(st.plan_hits + st.plan_misses);
  set_or_missing(t, "runtime.plan_hit_ratio", "ratio",
                 lookups > 0 ? static_cast<double>(st.plan_hits) / lookups
                             : kNaN,
                 "RuntimeStats plan_hits/(hits+misses), base: " +
                     std::to_string(st.plan_hits + st.plan_misses) +
                     " dispatches",
                 "no plan lookups");
  set_or_missing(t, "runtime.steals_per_req", "ratio",
                 st.executed ? static_cast<double>(st.steals) /
                                   static_cast<double>(st.executed)
                             : kNaN,
                 "RuntimeStats steals/executed", "nothing executed");
  double mx = 0, sum = 0;
  for (const auto& [c, ms] : cluster_exec) {
    mx = std::max(mx, ms);
    sum += ms;
  }
  set_or_missing(t, "runtime.cluster_imbalance", "ratio",
                 sum > 0 ? mx / (sum / static_cast<double>(cluster_exec.size()))
                         : kNaN,
                 "max/mean of per-cluster sum(exec_ms) over " +
                     std::to_string(cluster_exec.size()) + " clusters",
                 "no dispatches");
  const std::string lane_src =
      "finish_cycle - arrival_cycle, simulated; informational" +
      (fallback ? ", " + std::to_string(fallback) +
                      " CPU-fallback dispatches (zero cycles) excluded"
                : std::string());
  set_or_missing(t, "runtime.lane_latency_us.p50", "us_sim",
                 percentile(lane, 50), lane_src,
                 "every dispatch fell back to the CPU (zero cycles)");
  set_or_missing(t, "runtime.lane_latency_us.p99", "us_sim",
                 percentile(lane, 99), lane_src,
                 "every dispatch fell back to the CPU (zero cycles)");
}

void kernel_cache_layers(
    const std::vector<const ftm::kernelgen::KernelCache*>& caches,
    LayerTable& t) {
  double gen = 0, hits = 0;
  for (const auto* c : caches) {
    gen += static_cast<double>(c->generated());
    hits += static_cast<double>(c->hits());
  }
  const std::string src =
      "KernelCache, " + std::to_string(caches.size()) + " cache(s)";
  t.set("kernelgen.kernels_generated", "count", gen, src);
  set_or_missing(t, "kernelgen.cache_hit_ratio", "ratio",
                 hits + gen > 0 ? hits / (hits + gen) : kNaN,
                 src + ", hits/(hits+generated)", "no kernel lookups");
}

void trace_layers(const ftm::trace::CounterRegistry& tc,
                  double traced_f32_flops, LayerTable& t) {
  const auto v = [&](const char* n) {
    return static_cast<double>(tc.value(n));
  };
  const double gemm = v("gemm.cycles"), kern = v("kernel.cycles");
  const std::string why =
      "no traced FP32 engine call (trace compiled out, or only dgemm/hgemm "
      "ran: they emit no trace events)";
  const auto ratio = [&](double a, double b) { return b > 0 ? a / b : kNaN; };
  // kernel.cycles and stall.dma_wait_cycles are summed over every core of
  // a GEMM, gemm.cycles once per GEMM, so these two read as the mean number
  // of cores in a kernel (waiting on DMA) per simulated GEMM cycle.
  set_or_missing(t, "kernelgen.kernel_cycle_share", "cores",
                 ratio(kern, gemm), "trace kernel.cycles/gemm.cycles", why);
  set_or_missing(t, "kernelgen.stall_share", "ratio",
                 ratio(v("kernel.stall_cycles"), kern),
                 "trace kernel.stall_cycles/kernel.cycles", why);
  set_or_missing(t, "sim.dma_wait_share", "cores",
                 ratio(v("stall.dma_wait_cycles"), gemm),
                 "trace stall.dma_wait_cycles/gemm.cycles", why);
  const double f = gemm > 0 ? traced_f32_flops : 0;
  set_or_missing(t, "sim.dma_transfers_per_mflop", "count/MFLOP",
                 ratio(v("dma.transfers"), f / 1e6),
                 "trace dma.transfers per traced FP32 MFLOP", why);
  set_or_missing(t, "sim.gsm_reduce_bytes_per_flop", "B/flop",
                 ratio(v("reduce.gsm_bytes"), f),
                 "trace reduce.gsm_bytes per traced FP32 flop", why);
}

void plan_layers(const std::vector<Shape>& shapes, LayerTable& t) {
  ftm::core::FtimmEngine eng;
  ftm::core::FtimmOptions opt;
  std::vector<double> us;
  for (const Shape& s : shapes) {
    for (int i = 0; i < 25; ++i) {
      const auto t0 = Clock::now();
      eng.plan(s.m, s.n, s.k, opt);
      us.push_back(us_between(t0, Clock::now()));
    }
  }
  set_or_missing(t, "core.plan_us.p50", "us", percentile(us, 50),
                 "clock around FtimmEngine::plan, " +
                     std::to_string(shapes.size()) + " FP32 shapes x 25",
                 "no FP32 shapes");
}

}  // namespace pb
