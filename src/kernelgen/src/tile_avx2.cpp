// The AVX2 + FMA3 + F16C tier of the register-tiled fast path (tile.hpp).
//
// This file compiles tile.hpp's template under a target pragma, so only
// the tile code is built for AVX2 and the rest of the binary stays
// portable; run_fast calls in here only when hostsimd selected the AVX2
// tier at runtime. Every header tile.hpp uses is included before the
// pragma, so no inline function shared with other translation units is
// compiled for AVX2.
#if defined(__x86_64__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "ftm/kernelgen/spec.hpp"
#include "ftm/util/assert.hpp"
#include "ftm/util/half.hpp"

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2,fma,f16c"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2,fma,f16c")
#endif

#include "tile.hpp"

namespace ftm::kernelgen {
namespace {

template <class T>
struct Avx2Vec;

template <>
struct Avx2Vec<float> {
  using reg = __m256;
  static constexpr int lanes = 8;
  static reg zero() { return _mm256_setzero_ps(); }
  static reg bcast(float x) { return _mm256_set1_ps(x); }
  static reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, reg r) { _mm256_storeu_ps(p, r); }
  static reg fma(reg a, reg b, reg acc) { return _mm256_fmadd_ps(a, b, acc); }
  static reg add(reg x, reg y) { return _mm256_add_ps(x, y); }

  // VCVTPH2PS widens exactly, like util::f16_to_f32.
  static float widen_f16(std::uint16_t h) { return _cvtsh_ss(h); }
  static void load_f16x2(const std::uint32_t* p, reg& lo, reg& hi) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m128i w0 = _mm256_castsi256_si128(v);
    const __m128i w1 = _mm256_extracti128_si256(v, 1);
    const __m128i mask = _mm_set1_epi32(0xFFFF);
    lo = _mm256_cvtph_ps(_mm_packus_epi32(_mm_and_si128(w0, mask),
                                          _mm_and_si128(w1, mask)));
    hi = _mm256_cvtph_ps(
        _mm_packus_epi32(_mm_srli_epi32(w0, 16), _mm_srli_epi32(w1, 16)));
  }
  // bf16 widens by a 16-bit shift into the top of a binary32 — exact.
  static void load_bf16x2(const std::uint32_t* p, reg& lo, reg& hi) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    lo = _mm256_castsi256_ps(_mm256_slli_epi32(v, 16));
    hi = _mm256_castsi256_ps(_mm256_and_si256(
        v, _mm256_set1_epi32(static_cast<std::int32_t>(0xFFFF0000u))));
  }
};

template <>
struct Avx2Vec<double> {
  using reg = __m256d;
  static constexpr int lanes = 4;
  static reg zero() { return _mm256_setzero_pd(); }
  static reg bcast(double x) { return _mm256_set1_pd(x); }
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg r) { _mm256_storeu_pd(p, r); }
  static reg fma(reg a, reg b, reg acc) { return _mm256_fmadd_pd(a, b, acc); }
  static reg add(reg x, reg y) { return _mm256_add_pd(x, y); }
};

}  // namespace

void run_tiles_avx2(const TileArgs& g) { run_tiles<Avx2Vec>(g); }

}  // namespace ftm::kernelgen

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

#endif  // __x86_64__
