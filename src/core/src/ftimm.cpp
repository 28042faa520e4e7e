#include "ftm/core/ftimm.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "ftm/abft/abft.hpp"
#include "ftm/core/hgemm.hpp"
#include "ftm/trace/trace.hpp"

namespace ftm::core {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::Auto: return "auto";
    case Strategy::TGemm: return "tgemm";
    case Strategy::ParallelM: return "ftimm-M";
    case Strategy::ParallelK: return "ftimm-K";
  }
  return "?";
}

const char* to_string(IntegrityMode m) {
  switch (m) {
    case IntegrityMode::Off: return "off";
    case IntegrityMode::Verify: return "verify";
    case IntegrityMode::VerifyCorrect: return "verify+correct";
  }
  return "?";
}

namespace {

void merge(GemmResult& into, const GemmResult& o, bool parallel) {
  into.cycles =
      parallel ? std::max(into.cycles, o.cycles) : into.cycles + o.cycles;
  into.checksum_cycles =
      parallel ? std::max(into.checksum_cycles, o.checksum_cycles)
               : into.checksum_cycles + o.checksum_cycles;
  into.ddr_bytes += o.ddr_bytes;
  into.kernel_calls += o.kernel_calls;
  into.host_wall_us += o.host_wall_us;
  into.checksum_checks += o.checksum_checks;
  into.sdc_detected += o.sdc_detected;
  into.sdc_corrected += o.sdc_corrected;
  if (!o.cpu_fallback) {
    into.strategy = o.strategy;
    into.cores = o.cores;
    into.dtype = o.dtype;
  }
  into.cpu_fallback = into.cpu_fallback || o.cpu_fallback;
}

}  // namespace

void GemmResult::add(const GemmResult& o) { merge(*this, o, false); }

void GemmResult::add_parallel(const GemmResult& o) { merge(*this, o, true); }

void derive_rates(GemmResult& r, double flops, int cores,
                  const isa::MachineConfig& mc) {
  r.seconds = static_cast<double>(r.cycles) / (mc.freq_ghz * 1e9);
  r.gflops = r.seconds > 0 ? flops / r.seconds / 1e9 : 0.0;
  const double peak = mc.core_peak_gflops() * peak_scale(r.dtype) *
                      static_cast<double>(cores);
  r.efficiency = peak > 0 ? r.gflops / peak : 0.0;
}

FtimmEngine::FtimmEngine(const isa::MachineConfig& mc)
    : FtimmEngine(mc, std::make_shared<kernelgen::KernelCache>(mc)) {}

FtimmEngine::FtimmEngine(const isa::MachineConfig& mc,
                         std::shared_ptr<kernelgen::KernelCache> kernels)
    : mc_(mc),
      cluster_(mc),
      cache_(std::move(kernels)),
      mblocks0_(initial_m_blocks(mc)),
      kblocks0_(initial_k_blocks(mc)) {
  FTM_EXPECTS(cache_ != nullptr);
}

Strategy FtimmEngine::choose_strategy(std::size_t m, std::size_t n,
                                      std::size_t k) const {
  // §IV-C: with N <= n_a and M sufficiently large, parallelize over M
  // (covers the tall-x-small and regular-x-tall-skinny cases). With small
  // M but large K, parallelize over K with the GSM reduction. Shapes with
  // wide N stay on the traditional path, which parallelizes over N.
  if (n > 96) return Strategy::TGemm;
  const std::size_t cores = static_cast<std::size_t>(mc_.cores_per_cluster);
  const std::size_t m_needed = cores * 6;  // at least one m_s>=6 slice/core
  if (m >= m_needed && m >= k / 8) return Strategy::ParallelM;
  if (k > m && k >= cores * 32) return Strategy::ParallelK;
  return Strategy::ParallelM;
}

MBlocks FtimmEngine::m_blocks_for(std::size_t m, std::size_t n,
                                  std::size_t k, bool dynamic,
                                  int cores) const {
  return dynamic ? adjust_m_blocks(mblocks0_, m, n, k, mc_, cores)
                 : mblocks0_;
}

KBlocks FtimmEngine::k_blocks_for(std::size_t m, std::size_t n,
                                  std::size_t k, bool dynamic,
                                  int cores) const {
  return dynamic ? adjust_k_blocks(kblocks0_, m, n, k, mc_, cores)
                 : kblocks0_;
}

GemmPlan FtimmEngine::plan(std::size_t m, std::size_t n, std::size_t k,
                           const FtimmOptions& opt) const {
  FTM_EXPECTS(m >= 1 && n >= 1 && k >= 1);
  FTM_EXPECTS(opt.cores >= 1 && opt.cores <= mc_.cores_per_cluster);
  GemmPlan p;
  p.strategy = opt.force;
  if (p.strategy == Strategy::Auto) p.strategy = choose_strategy(m, n, k);
  p.cores = opt.cores;
  switch (p.strategy) {
    case Strategy::ParallelM:
      p.mblocks = m_blocks_for(m, n, k, opt.dynamic_blocks, opt.cores);
      break;
    case Strategy::ParallelK:
      p.kblocks = k_blocks_for(m, n, k, opt.dynamic_blocks, opt.cores);
      break;
    case Strategy::TGemm:
      p.tblocks = tblocks_;
      break;
    case Strategy::Auto:
      FTM_ASSERT(false);
  }
  FTM_TRACE_COUNTER("plan.built", 1);
  return p;
}

namespace {

/// Simulated cycles of `flops` extra FLOPs charged at per-core peak
/// across `cores`, plus one DMA-cost charge for `bytes` from DDR. A pure
/// cycle-model addend — no data moves here.
std::uint64_t abft_cost_cycles(const isa::MachineConfig& mc,
                               std::uint64_t flops, std::uint64_t bytes,
                               int cores) {
  const double flops_per_cycle =
      static_cast<double>(mc.peak_flops_per_cycle()) *
      static_cast<double>(cores);
  const auto flop_cycles = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(flops) / flops_per_cycle));
  sim::DmaRequest req;
  req.route = sim::DmaRoute::DdrToSpm;
  req.rows = 1;
  req.row_bytes = static_cast<std::size_t>(bytes);
  return flop_cycles + sim::dma_cost_cycles(mc, req, cores);
}

}  // namespace

GemmResult FtimmEngine::sgemm_planned(const GemmInput& in,
                                      const GemmPlan& plan,
                                      const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  FTM_EXPECTS(opt.cores >= 1 && opt.cores <= mc_.cores_per_cluster);
  // Mixed precision (docs/precision.md): F16/BF16 requests run the
  // dedicated half engine, which derives its own capacity blocks (2-byte
  // operands change every footprint) — the FP32 plan does not apply.
  if (kernelgen::is_half(opt.dtype)) {
    GemmResult hr = hgemm_f32(*this, in, opt);
    FTM_TRACE_COUNTER("kernel.dtype", static_cast<std::uint64_t>(opt.dtype));
    return hr;
  }

  // ABFT (ISSUE 8, docs/robustness.md): capture the checksum expectations
  // before the strategy mutates C. Timing-only runs have no data to
  // protect but still pay the modeled checksum cycles, so the overhead is
  // visible in cycle sweeps. The Off path must not touch the abft layer
  // at all — it stays byte- and cycle-identical to a pre-ABFT build.
  const bool protect = opt.integrity != IntegrityMode::Off;
  std::optional<abft::Checker> checker;
  if (protect && opt.functional && in.c.data() != nullptr) {
    checker.emplace(in.a, in.b, in.c);
  }

  GemmResult r;
  switch (plan.strategy) {
    case Strategy::ParallelM:
      r = run_strategy_m(cluster_, *cache_, in, plan.mblocks, opt);
      break;
    case Strategy::ParallelK:
      r = run_strategy_k(cluster_, *cache_, in, plan.kblocks, opt);
      break;
    case Strategy::TGemm:
      r = run_tgemm(cluster_, *cache_, in, plan.tblocks, opt);
      break;
    case Strategy::Auto:
      FTM_ASSERT(false);
      return {};
  }
  if (!protect) return r;

  // The checksum scheme across the run's cores, plus one core's repair
  // (its dot product and A row/B column DMA) per corrected element.
  r.checksum_cycles = abft_cost_cycles(
      mc_, abft::checksum_flops(in.m, in.n, in.k),
      abft::checksum_bytes(in.m, in.n, in.k), r.cores);
  if (checker) {
    // Throws IntegrityError when the damage exceeds in-place repair; the
    // runtime's resilience path recomputes (C is unspecified until then).
    const abft::VerifyStats vs = checker->verify(
        in.c, opt.integrity == IntegrityMode::VerifyCorrect, cluster_.id());
    r.checksum_checks = static_cast<std::uint64_t>(vs.checks);
    r.sdc_detected = static_cast<std::uint64_t>(vs.detected);
    r.sdc_corrected = static_cast<std::uint64_t>(vs.corrected);
    FTM_TRACE_COUNTER("integrity.checks", r.checksum_checks);
    if (r.sdc_detected > 0) {
      FTM_TRACE_COUNTER("integrity.detected", r.sdc_detected);
    }
    if (r.sdc_corrected > 0) {
      FTM_TRACE_COUNTER("integrity.corrected", r.sdc_corrected);
      r.checksum_cycles +=
          r.sdc_corrected * abft_cost_cycles(mc_, abft::repair_flops(in.k),
                                             abft::repair_bytes(in.k), 1);
    }
  }
  r.cycles += r.checksum_cycles;
  derive_rates(r, in.flops(), r.cores, mc_);
  FTM_TRACE_COUNTER("integrity.cycles", r.checksum_cycles);
  return r;
}

GemmResult FtimmEngine::sgemm(const GemmInput& in, const FtimmOptions& opt) {
  return sgemm_planned(in, plan(in.m, in.n, in.k, opt), opt);
}

GemmResult FtimmEngine::tgemm(const GemmInput& in, const FtimmOptions& opt) {
  FTM_EXPECTS(in.m >= 1 && in.n >= 1 && in.k >= 1);
  return run_tgemm(cluster_, *cache_, in, tblocks_, opt);
}

}  // namespace ftm::core
