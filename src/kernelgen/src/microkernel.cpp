#include "ftm/kernelgen/microkernel.hpp"

#include "ftm/kernelgen/hostsimd.hpp"
#include "tile.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace ftm::kernelgen {

#if defined(__aarch64__)
namespace {

// The NEON tier of tile.hpp (baseline on AArch64, no dispatch needed).
template <class T>
struct NeonVec;

template <>
struct NeonVec<float> {
  using reg = float32x4_t;
  static constexpr int lanes = 4;
  static reg zero() { return vdupq_n_f32(0.0f); }
  static reg bcast(float x) { return vdupq_n_f32(x); }
  static reg load(const float* p) { return vld1q_f32(p); }
  static void store(float* p, reg r) { vst1q_f32(p, r); }
  static reg fma(reg a, reg b, reg acc) { return vfmaq_f32(acc, a, b); }
  static reg add(reg x, reg y) { return vaddq_f32(x, y); }
  static float widen_f16(std::uint16_t h) { return util::f16_to_f32(h); }
  static void load_f16x2(const std::uint32_t* p, reg& lo, reg& hi) {
    const uint32x4_t v = vld1q_u32(p);
    lo = vcvt_f32_f16(vreinterpret_f16_u16(vmovn_u32(v)));
    hi = vcvt_f32_f16(vreinterpret_f16_u16(vshrn_n_u32(v, 16)));
  }
  static void load_bf16x2(const std::uint32_t* p, reg& lo, reg& hi) {
    const uint32x4_t v = vld1q_u32(p);
    lo = vreinterpretq_f32_u32(vshlq_n_u32(v, 16));
    hi = vreinterpretq_f32_u32(vandq_u32(v, vdupq_n_u32(0xFFFF0000u)));
  }
};

template <>
struct NeonVec<double> {
  using reg = float64x2_t;
  static constexpr int lanes = 2;
  static reg zero() { return vdupq_n_f64(0.0); }
  static reg bcast(double x) { return vdupq_n_f64(x); }
  static reg load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, reg r) { vst1q_f64(p, r); }
  static reg fma(reg a, reg b, reg acc) { return vfmaq_f64(acc, a, b); }
  static reg add(reg x, reg y) { return vaddq_f64(x, y); }
};

}  // namespace
#endif

MicroKernel::MicroKernel(const KernelSpec& spec, const isa::MachineConfig& mc)
    : spec_(spec),
      mc_(mc),
      tiling_(choose_tiling(spec, mc)),
      prog_(generate_microkernel(spec, tiling_, mc)) {
  // One-time calibration on a scratch core. Cycle count is shape-dependent
  // only, so dummy (zero) operand data is sufficient.
  sim::DspCore core(mc);
  const sim::Region a = core.sm().alloc(spec.a_bytes());
  const sim::Region b = core.am().alloc(spec.b_bytes());
  const sim::Region c = core.am().alloc(spec.c_bytes());
  calib_ = run_detailed(core, a.offset, b.offset, c.offset);
}

double MicroKernel::efficiency() const {
  if (calib_.cycles == 0) return 0.0;
  const double useful = spec_.flops();
  // FP64 halves the per-FMAC flop count (16 lanes instead of 32); the half
  // formats double it (VFMULAH32 is a 2-way dot product per lane).
  double peak_per_cycle = static_cast<double>(mc_.peak_flops_per_cycle());
  if (spec_.dtype == DType::F64) peak_per_cycle /= 2.0;
  if (is_half(spec_.dtype)) peak_per_cycle *= 2.0;
  return useful / (static_cast<double>(calib_.cycles) * peak_per_cycle);
}

sim::ExecResult MicroKernel::run_detailed(sim::DspCore& core,
                                          std::size_t a_off,
                                          std::size_t b_off,
                                          std::size_t c_off) const {
  core.sregs().v[kRegABase] = a_off;
  core.sregs().v[kRegBBase] = b_off;
  core.sregs().v[kRegCBase] = c_off;
  return core.run(prog_);
}

std::uint64_t MicroKernel::run_fast(const void* a, const void* b,
                                    void* c) const {
  FTM_EXPECTS(a != nullptr && b != nullptr && c != nullptr);
  const TileArgs g{a, b, c, spec_, tiling_.ku};
  switch (hostsimd::active_tier()) {
#if defined(__x86_64__)
    case hostsimd::Tier::Avx2:
      run_tiles_avx2(g);
      break;
#elif defined(__aarch64__)
    case hostsimd::Tier::Neon:
      run_tiles<NeonVec>(g);
      break;
#endif
    default:
      run_tiles<ScalarVec>(g);
      break;
  }
  return calib_.cycles;
}

int MicroKernel::host_tile_rows() const { return tile_rows(tiling_.ku); }

KernelCache::KernelCache(const isa::MachineConfig& mc) : mc_(mc) {}

const MicroKernel& KernelCache::get(const KernelSpec& spec) {
  const Key key{spec.ms, spec.ka, spec.na, spec.load_c,
                static_cast<int>(spec.dtype)};
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return *it->second;
  }
  ++generated_;
  auto kernel = std::make_unique<MicroKernel>(spec, mc_);
  const MicroKernel& ref = *kernel;
  cache_.emplace(key, std::move(kernel));
  return ref;
}

std::size_t KernelCache::generated() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return generated_;
}

std::size_t KernelCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

}  // namespace ftm::kernelgen
