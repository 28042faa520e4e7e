// Register-tiled host replay of a generated micro-kernel: the math behind
// MicroKernel::run_fast for every dtype and tier. tile<Layout, Vec, KU, R,
// V> keeps an R-row x V-vector block of C in registers per accumulator
// bank and streams B through it (the §IV-A m_u x k_u block). C stays
// bit-identical to the detailed core because tiles split C's elements but
// never one element's k chain: bank k % KU takes its steps in ascending
// order from C (load_c) or +0, banks reduce into bank 0 in ascending
// order, and a half step is fma(a1, b1, fma(a0, b0, acc)), low pair first
// (docs/performance.md).
//
// A Vec is one tier at one accumulator type T: reg, lanes, zero(),
// bcast(x), load(p), store(p, r), fma(a, b, acc) = acc + a*b with one
// rounding, add(x, y); for T = float also the exact half widenings
// widen_f16(h), load_f16x2(p, lo, hi) and load_bf16x2(p, lo, hi), which
// split `lanes` pair words into their low (even k) and high (odd k) halves.
//
// Everything after TileArgs sits in an unnamed namespace on purpose: each
// tier's translation unit (microkernel.cpp for scalar and NEON,
// tile_avx2.cpp for AVX2) compiles its own copy for its own instruction
// set, so no instantiation is shared between tiers.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "ftm/kernelgen/spec.hpp"
#include "ftm/util/assert.hpp"
#include "ftm/util/half.hpp"

namespace ftm::kernelgen {

/// One run_fast call: the operands and the kernel they belong to.
struct TileArgs {
  const void* a;
  const void* b;
  void* c;
  const KernelSpec& spec;
  int ku;  ///< accumulator banks (Tiling::ku)
};

#if defined(__x86_64__)
/// The AVX2+FMA+F16C tier (tile_avx2.cpp).
void run_tiles_avx2(const TileArgs& g);
#endif

namespace {

/// Rows of C per register tile at `ku` banks: R x V x KU accumulators
/// plus the V B vectors fit 16 AVX2 registers.
constexpr int tile_rows(int ku) { return ku == 1 ? 6 : (ku <= 3 ? 2 : 1); }

/// Vectors of C per tile row.
constexpr int kTileVecs = 2;

/// F32 and F64: one step is one A element against one B row.
template <class T>
struct PlainLayout {
  using A = T;
  using B = T;
  using C = T;
  static constexpr int kSub = 1;

  template <class Vec>
  static void load_a(const A* row, int s, typename Vec::reg* a) {
    a[0] = Vec::bcast(row[s]);
  }
  template <class Vec>
  static void load_b(const B* p, typename Vec::reg* b) {
    b[0] = Vec::load(p);
  }
};

/// F16 and BF16: one step is a k pair. A holds the pair as two adjacent
/// halves; a B word packs the even-k half low and the odd-k half high.
template <bool kBf16>
struct HalfLayout {
  using A = std::uint16_t;
  using B = std::uint32_t;
  using C = float;
  static constexpr int kSub = 2;

  template <class Vec>
  static float widen(std::uint16_t h) {
    if constexpr (kBf16) {
      return util::bf16_to_f32(h);
    } else {
      return Vec::widen_f16(h);
    }
  }
  template <class Vec>
  static void load_a(const A* row, int s, typename Vec::reg* a) {
    a[0] = Vec::bcast(widen<Vec>(row[2 * s]));
    a[1] = Vec::bcast(widen<Vec>(row[2 * s + 1]));
  }
  template <class Vec>
  static void load_b(const B* p, typename Vec::reg* b) {
    if constexpr (kBf16) {
      Vec::load_bf16x2(p, b[0], b[1]);
    } else {
      Vec::load_f16x2(p, b[0], b[1]);
    }
  }
};

/// One step `s` into one bank: acc[r][v] (+)= a[r][s] * b[s][v].
template <class L, class Vec, int R, int V>
inline void tile_step(typename Vec::reg (&acc)[R][V],
                      const typename L::A* a, int lda,
                      const typename L::B* b, int ld, int s) {
  using reg = typename Vec::reg;
  const typename L::B* brow = b + static_cast<std::ptrdiff_t>(s) * ld;
  reg bv[V][L::kSub];
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) {
    L::template load_b<Vec>(brow + v * Vec::lanes, bv[v]);
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    reg av[L::kSub];
    L::template load_a<Vec>(a + static_cast<std::ptrdiff_t>(r) * lda, s, av);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
#pragma GCC unroll 2
      for (int u = 0; u < L::kSub; ++u) {
        acc[r][v] = Vec::fma(av[u], bv[v][u], acc[r][v]);
      }
    }
  }
}

/// Rows [row0, row0 + R) of one column strip of C, all steps.
template <class L, template <class> class VecT, int KU, int R, int V>
void tile(const TileArgs& g, int row0) {
  using Vec = VecT<typename L::C>;
  using reg = typename Vec::reg;
  // A's row pitch is ka elements; B's and C's is am_row_elems(); a half
  // step is a k pair.
  const int lda = g.spec.ka;
  const int ld = g.spec.am_row_elems();
  const int steps = L::kSub == 1 ? g.spec.ka : g.spec.kpairs();
  const auto* a = static_cast<const typename L::A*>(g.a) +
                  static_cast<std::ptrdiff_t>(row0) * lda;
  const auto* b = static_cast<const typename L::B*>(g.b);
  auto* c = static_cast<typename L::C*>(g.c) +
            static_cast<std::ptrdiff_t>(row0) * ld;
  const auto c_at = [c, ld](int r, int v) {
    return c + static_cast<std::ptrdiff_t>(r) * ld + v * Vec::lanes;
  };

  reg acc[KU][R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      acc[0][r][v] = g.spec.load_c ? Vec::load(c_at(r, v)) : Vec::zero();
#pragma GCC unroll 4
      for (int k = 1; k < KU; ++k) acc[k][r][v] = Vec::zero();
    }
  }
  int s = 0;
  for (; s + KU <= steps; s += KU) {
#pragma GCC unroll 4
    for (int k = 0; k < KU; ++k) {
      tile_step<L, Vec, R, V>(acc[k], a, lda, b, ld, s + k);
    }
  }
  // The last steps % KU steps land in banks 0, 1, ... in order.
#pragma GCC unroll 4
  for (int k = 0; k + 1 < KU; ++k) {
    if (s + k < steps) tile_step<L, Vec, R, V>(acc[k], a, lda, b, ld, s + k);
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
#pragma GCC unroll 4
      for (int k = 1; k < KU; ++k) {
        acc[0][r][v] = Vec::add(acc[0][r][v], acc[k][r][v]);
      }
      Vec::store(c_at(r, v), acc[0][r][v]);
    }
  }
}

/// The last `rows` (< R) rows of a column strip, as one exact-height tile.
template <class L, template <class> class VecT, int KU, int R, int V>
void tile_tail(const TileArgs& g, int row0, int rows) {
  if (rows == R) {
    tile<L, VecT, KU, R, V>(g, row0);
  } else if constexpr (R > 1) {
    tile_tail<L, VecT, KU, R - 1, V>(g, row0, rows);
  }
}

/// Every tile of one call: column strips of V vectors, each walked down
/// by R-row tiles, so a strip of B stays in L1 across its row tiles.
template <class L, template <class> class VecT, int KU>
void run_banks(const TileArgs& g) {
  constexpr int R = tile_rows(KU);
  constexpr int V = kTileVecs;
  constexpr int W = V * VecT<typename L::C>::lanes;
  const int ms = g.spec.ms;
  const int ld = g.spec.am_row_elems();
  // Row pitches are whole 128-byte DSP vectors, so W always divides them.
  FTM_ASSERT(ld % W == 0);
  for (int col = 0; col < ld; col += W) {
    TileArgs strip = g;
    strip.b = static_cast<const typename L::B*>(g.b) + col;
    strip.c = static_cast<typename L::C*>(g.c) + col;
    int row = 0;
    for (; row + R <= ms; row += R) tile<L, VecT, KU, R, V>(strip, row);
    if constexpr (R > 1) {
      if (row < ms) tile_tail<L, VecT, KU, R - 1, V>(strip, row, ms - row);
    }
  }
}

template <class L, template <class> class VecT>
void run_layout(const TileArgs& g) {
  switch (g.ku) {
    case 1: return run_banks<L, VecT, 1>(g);
    case 2: return run_banks<L, VecT, 2>(g);
    case 3: return run_banks<L, VecT, 3>(g);
    case 4: return run_banks<L, VecT, 4>(g);
  }
  FTM_ASSERT(g.ku >= 1 && g.ku <= 4);
}

/// One tier's entry: dispatches on dtype once per call.
template <template <class> class VecT>
void run_tiles(const TileArgs& g) {
  switch (g.spec.dtype) {
    case DType::F32: return run_layout<PlainLayout<float>, VecT>(g);
    case DType::F64: return run_layout<PlainLayout<double>, VecT>(g);
    case DType::F16: return run_layout<HalfLayout<false>, VecT>(g);
    case DType::BF16: return run_layout<HalfLayout<true>, VecT>(g);
  }
  FTM_EXPECTS(!"run_fast: unknown dtype");
}

/// The portable tier: one lane, std::fma (the reference every other tier
/// must match bit for bit).
template <class T>
struct ScalarVec {
  using reg = T;
  static constexpr int lanes = 1;
  static reg zero() { return T(0); }
  static reg bcast(T x) { return x; }
  static reg load(const T* p) { return *p; }
  static void store(T* p, reg r) { *p = r; }
  static reg fma(reg a, reg b, reg acc) { return std::fma(a, b, acc); }
  static reg add(reg x, reg y) { return x + y; }
  static float widen_f16(std::uint16_t h) { return util::f16_to_f32(h); }
  static void load_f16x2(const std::uint32_t* p, reg& lo, reg& hi) {
    lo = util::f16_to_f32(static_cast<std::uint16_t>(*p));
    hi = util::f16_to_f32(static_cast<std::uint16_t>(*p >> 16));
  }
  static void load_bf16x2(const std::uint32_t* p, reg& lo, reg& hi) {
    lo = util::bf16_to_f32(static_cast<std::uint16_t>(*p));
    hi = util::bf16_to_f32(static_cast<std::uint16_t>(*p >> 16));
  }
};

}  // namespace
}  // namespace ftm::kernelgen
