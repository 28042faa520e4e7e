// Micro-kernel specification and the tiling rules of paper §IV-A.
//
// A micro-kernel computes C_a[ms][na] += A_s[ms][ka] * B_a[ka][na] with
// A_s in Scalar Memory and B_a/C_a in Array Memory. The generator picks the
// unroll factors (m_u, k_u) exactly the way the paper describes:
//   - 64 < na <= 96 : k_u = 1, m_u as large as registers allow (Table I),
//   - na <= 64      : k_u > 1 to refill the FMAC pipelines, m_u maximal
//                     (Tables II and III),
// always subject to the initiation-interval constraint II >= t_fma that
// hides the FMAC latency through accumulator rotation.
#pragma once

#include <cstddef>

#include "ftm/isa/machine.hpp"

namespace ftm::kernelgen {

/// Element type of a kernel. The paper evaluates FP32; FP64, FP16 and
/// BF16 are this reproduction's extensions. FP64 exercises the generator
/// with halved SIMD width (16 lanes) and halved broadcast bandwidth. The
/// half formats keep 32 FP32 *accumulator* lanes but pack two k-adjacent
/// operands per lane word (VFMULAH32 2-way dot product), doubling the
/// multiply throughput under the same load/broadcast ceilings.
enum class DType { F32, F64, F16, BF16 };

const char* to_string(DType t);

/// True for the packed 16-bit input formats (FP32 accumulation).
constexpr bool is_half(DType t) {
  return t == DType::F16 || t == DType::BF16;
}

/// Shape of one micro-kernel instance. `load_c` selects whether the kernel
/// pre-loads C_a into the accumulators (accumulating kernel, the default
/// used by every GEMM strategy) or zero-initialises them.
struct KernelSpec {
  int ms = 6;    ///< Rows of A/C handled per call (1..16 practical).
  int ka = 512;  ///< Depth (columns of A_s / rows of B_a).
  int na = 96;   ///< Columns of B/C; <= 96 (F32) or <= 48 (F64).
  bool load_c = true;
  DType dtype = DType::F32;

  bool operator==(const KernelSpec&) const = default;

  /// Output (accumulator) lanes per vector register: 32 FP32 lanes for
  /// F32 and the half formats, 16 FP64 lanes for F64.
  int lanes() const { return dtype == DType::F64 ? 16 : 32; }
  /// Bytes per *input* element (A/B). C is FP32 for the half formats.
  std::size_t elem_bytes() const {
    if (dtype == DType::F64) return 8;
    return is_half(dtype) ? 2 : 4;
  }
  /// Half kernels consume k two at a time; ka is padded to even upstream.
  int kpairs() const { return (ka + 1) / 2; }
  /// Number of vector registers covering na.
  int vn() const { return (na + lanes() - 1) / lanes(); }
  /// AM row pitch in bytes for B_a/C_a: na padded to whole 128-byte
  /// vectors, which is ftIMM's improvement over TGEMM's fixed pad to 96.
  int am_row_bytes() const { return vn() * 128; }
  /// AM row pitch in elements.
  int am_row_elems() const { return vn() * lanes(); }

  std::size_t a_bytes() const {
    const std::size_t kd = is_half(dtype) ? 2u * kpairs() : ka;
    return static_cast<std::size_t>(ms) * kd * elem_bytes();
  }
  /// B panel footprint in AM. Half formats store k-pair-interleaved rows:
  /// one 128-byte row covers *two* k steps (64 packed halves), halving
  /// the panel height.
  std::size_t b_bytes() const {
    const std::size_t rows = is_half(dtype) ? kpairs() : ka;
    return rows * am_row_bytes();
  }
  std::size_t c_bytes() const {
    return static_cast<std::size_t>(ms) * am_row_bytes();
  }
  /// Useful flops (2*ms*ka*na).
  double flops() const { return 2.0 * ms * ka * na; }
};

/// Scheduling regime, keyed off na exactly as in §IV-A2.
enum class Regime {
  Wide,    ///< 64 < na <= 96 (Table I)
  Medium,  ///< 32 < na <= 64 (Table II)
  Narrow,  ///< 0 < na <= 32 (Table III)
};

Regime regime_for(int na);
const char* to_string(Regime r);

/// Chosen unroll factors for the steady-state loop.
struct Tiling {
  int mu = 6;  ///< Rows unrolled per inner block.
  int ku = 1;  ///< k-steps unrolled per inner block. For the half
               ///< formats this counts *k-pairs* (one VFMULAH32 each),
               ///< and is always even so SLDDW/SVBCASTH move two pairs.
  /// Resource-constrained initiation interval (cycles per inner block):
  /// max of the FMAC, broadcast, and vector-load bounds and t_fma.
  int ii = 6;
};

/// Picks (m_u, k_u) for a spec following §IV-A2, subject to the 64-vector-
/// register budget (accumulators + double-buffered A broadcasts and B
/// vectors). Throws if the spec is infeasible (never for ms<=16, na<=96).
Tiling choose_tiling(const KernelSpec& spec, const isa::MachineConfig& mc);

/// Vector registers consumed by a tiling (accumulators + double buffers).
int vector_regs_needed(const Tiling& t, int vn);

/// The paper's analytic upper bound on FMAC utilisation (§IV-A3):
/// ~100% for 32 < na <= 96, 66.7% for na <= 32 (broadcast-bound).
double upper_bound_utilization(int na, const isa::MachineConfig& mc);

/// dtype-aware upper bound: FP64 broadcasts one scalar per cycle, so the
/// bound becomes min(1, vn/3) with 16-wide vectors.
double upper_bound_utilization(const KernelSpec& spec,
                               const isa::MachineConfig& mc);

/// Analytic utilisation prediction for a *specific* tiling: useful / issued
/// FMAC slots per II. Fig. 3's saw-tooth (M mod 3 != 0 penalty for medium
/// na) emerges from the ceiling in the FMAC bound.
double predicted_utilization(const KernelSpec& spec, const Tiling& t,
                             const isa::MachineConfig& mc);

}  // namespace ftm::kernelgen
