#include "ftm/kernelgen/hostsimd.hpp"

#include <atomic>

#include "ftm/util/assert.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define FTM_HOSTSIMD_X86 1
#define FTM_AVX2_FN __attribute__((target("avx2,fma")))
#elif defined(__aarch64__)
#include <arm_neon.h>
#define FTM_HOSTSIMD_NEON 1
#endif

namespace ftm::kernelgen::hostsimd {

namespace {

// ---- Scalar reference bodies (the only tier every host has) -------------

void add_f32_scalar(float* acc, const float* x_, std::size_t n) {
  for (std::size_t x = 0; x < n; ++x) acc[x] += x_[x];
}

void relu_f32_scalar(float* x_, std::size_t n) {
  for (std::size_t x = 0; x < n; ++x) x_[x] = x_[x] > 0.0f ? x_[x] : 0.0f;
}

#if defined(FTM_HOSTSIMD_X86)

// ---- AVX2 + FMA3 bodies (per-function target attributes) ----------------
// The callers feed rows padded to vn*32 floats, so n is a multiple of the
// vector width on the hot path; the scalar tails below only fire for odd
// n from the generic entry points.

FTM_AVX2_FN void add_f32_avx2(float* acc, const float* x_, std::size_t n) {
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    _mm256_storeu_ps(acc + x, _mm256_add_ps(_mm256_loadu_ps(acc + x),
                                            _mm256_loadu_ps(x_ + x)));
  }
  for (; x < n; ++x) acc[x] += x_[x];
}

FTM_AVX2_FN void relu_f32_avx2(float* x_, std::size_t n) {
  // Compare-and-mask (not max): x > 0 keeps x, everything else — negatives,
  // -0.0, NaN — becomes +0.0, matching the scalar body bit-for-bit.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t x = 0;
  for (; x + 8 <= n; x += 8) {
    const __m256 vx = _mm256_loadu_ps(x_ + x);
    _mm256_storeu_ps(
        x_ + x, _mm256_and_ps(vx, _mm256_cmp_ps(vx, zero, _CMP_GT_OQ)));
  }
  for (; x < n; ++x) x_[x] = x_[x] > 0.0f ? x_[x] : 0.0f;
}

#elif defined(FTM_HOSTSIMD_NEON)

// ---- NEON bodies (baseline ISA on AArch64, no dispatch needed) ----------

void add_f32_neon(float* acc, const float* x_, std::size_t n) {
  std::size_t x = 0;
  for (; x + 4 <= n; x += 4) {
    vst1q_f32(acc + x, vaddq_f32(vld1q_f32(acc + x), vld1q_f32(x_ + x)));
  }
  for (; x < n; ++x) acc[x] += x_[x];
}

void relu_f32_neon(float* x_, std::size_t n) {
  // Compare-and-mask, same semantics as the scalar/AVX2 bodies.
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t x = 0;
  for (; x + 4 <= n; x += 4) {
    const float32x4_t vx = vld1q_f32(x_ + x);
    vst1q_f32(x_ + x,
              vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(vx),
                                              vcgtq_f32(vx, zero))));
  }
  for (; x < n; ++x) x_[x] = x_[x] > 0.0f ? x_[x] : 0.0f;
}

#endif

bool supported(Tier t) {
  switch (t) {
    case Tier::Scalar:
      return true;
    case Tier::Avx2:
#if defined(FTM_HOSTSIMD_X86)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
             __builtin_cpu_supports("f16c");
#else
      return false;
#endif
    case Tier::Neon:
#if defined(FTM_HOSTSIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::atomic<Tier>& active_slot() {
  static std::atomic<Tier> tier{best_tier()};
  return tier;
}

}  // namespace

const char* to_string(Tier t) {
  switch (t) {
    case Tier::Scalar: return "scalar";
    case Tier::Avx2: return "avx2";
    case Tier::Neon: return "neon";
  }
  return "?";
}

Tier best_tier() {
  static const Tier best = [] {
    if (supported(Tier::Avx2)) return Tier::Avx2;
    if (supported(Tier::Neon)) return Tier::Neon;
    return Tier::Scalar;
  }();
  return best;
}

Tier active_tier() { return active_slot().load(std::memory_order_relaxed); }

Tier set_active_tier(Tier t) {
  if (!supported(t)) t = Tier::Scalar;
  active_slot().store(t, std::memory_order_relaxed);
  return t;
}

void add_f32(float* acc, const float* x_, std::size_t n) {
  FTM_EXPECTS(n == 0 || (acc != nullptr && x_ != nullptr));
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2: add_f32_avx2(acc, x_, n); return;
#elif defined(FTM_HOSTSIMD_NEON)
    case Tier::Neon: add_f32_neon(acc, x_, n); return;
#endif
    default: add_f32_scalar(acc, x_, n); return;
  }
}

void relu_f32(float* x_, std::size_t n) {
  FTM_EXPECTS(n == 0 || x_ != nullptr);
  switch (active_tier()) {
#if defined(FTM_HOSTSIMD_X86)
    case Tier::Avx2: relu_f32_avx2(x_, n); return;
#elif defined(FTM_HOSTSIMD_NEON)
    case Tier::Neon: relu_f32_neon(x_, n); return;
#endif
    default: relu_f32_scalar(x_, n); return;
  }
}

}  // namespace ftm::kernelgen::hostsimd
