// Block-size selection (paper §IV-C): the computation-to-memory-ratio
// (CMR) equations (1)-(4), capacity-constrained initial block sizes for
// both parallelization strategies and for TGEMM, and the dynamic adjuster
// that shrinks/grows blocks to fit the actual matrix shape.
#pragma once

#include <cstddef>

#include "ftm/isa/machine.hpp"
#include "ftm/kernelgen/spec.hpp"

namespace ftm::core {

/// Element widths of one Algorithm 4 run (run_strategy_m). A plain
/// runtime value rather than a template parameter, so the loop nest is
/// compiled once for every precision. B rows and C rows share one AM
/// pitch: in every layout a B row holds c_bytes per column.
struct ElemLayout {
  std::size_t a_bytes = 4;    ///< bytes per A element
  std::size_t b_bytes = 4;    ///< B bytes per k step per column
  std::size_t c_bytes = 4;    ///< bytes per C (accumulator) element
  std::size_t k_per_row = 1;  ///< k steps per B row (2 = k-pair interleaved)
  kernelgen::DType dtype = kernelgen::DType::F32;  ///< micro-kernel dtype

  /// Bytes per column of one (possibly k-pair interleaved) B row.
  std::size_t b_row_bytes() const { return b_bytes * k_per_row; }
  /// AM row pitch of an na-wide tile: na padded to whole 128-byte vectors.
  std::size_t pitch_bytes(std::size_t na) const {
    return (na * c_bytes + 127) / 128 * 128;
  }
  /// Widest N tile: three vectors (96 FP32 columns, 48 FP64).
  std::size_t na_max() const { return 3 * 128 / c_bytes; }
};

/// F32 (the paper's), F64, and F16/BF16: 2-byte A, k-pair interleaved B
/// rows of 32-bit words, FP32 C (docs/precision.md).
ElemLayout elem_layout(kernelgen::DType dtype);

/// Block sizes of the M-dimension strategy (Algorithm 4).
struct MBlocks {
  std::size_t kg = 5888;  ///< K extent of the GSM-cached B panel.
  std::size_t ng = 96;    ///< N extent of the GSM-cached B panel.
  std::size_t ma = 320;   ///< M rows processed per core per block.
  std::size_t na = 96;    ///< N extent of AM tiles.
  std::size_t ka = 864;   ///< K extent of AM tiles.
  std::size_t ms = 8;     ///< Micro-kernel rows.
};

/// Block sizes of the K-dimension strategy (Algorithm 5).
struct KBlocks {
  std::size_t mg = 1024;  ///< M extent of the GSM-cached C panel.
  std::size_t ng = 512;   ///< N extent of the GSM-cached C panel.
  std::size_t ma = 1024;  ///< M extent of AM C tiles.
  std::size_t na = 96;
  std::size_t ka = 512;   ///< K block each core processes per step.
  std::size_t ms = 14;
  std::size_t reduce_rows = 64;  ///< Row chunk for the GSM-based reduction.
};

/// Block sizes of the TGEMM baseline (Algorithm 1; fixed in [23], [24]).
struct TBlocks {
  std::size_t mg = 512;
  std::size_t kg = 512;
  std::size_t na = 96;  ///< TGEMM always pads B/C tiles to 96 columns.
  std::size_t ms = 6;
};

// --- CMR equations (paper Eq. 1-4) -----------------------------------------
double cmr_m_outer(std::size_t ma, std::size_t kg, std::size_t ng, int cores);
double cmr_m_inner(std::size_t ma, std::size_t ka, std::size_t na, int cores);
double cmr_k_outer(std::size_t mg, std::size_t ka, std::size_t ng, int cores);
double cmr_k_inner(std::size_t ma, std::size_t ka, std::size_t na, int cores);

/// Initial block sizes from hardware capacities alone (shape-agnostic),
/// maximizing CMR as in §IV-C. With the published FT-m7032 capacities these
/// land on (or tie with) the paper's constants.
MBlocks initial_m_blocks(const isa::MachineConfig& mc);
KBlocks initial_k_blocks(const isa::MachineConfig& mc);

/// Dynamic adjustment to an actual (M, N, K) shape: clamps to the matrix,
/// re-grows the freed capacity along the parallelized dimension, balances
/// the parallel block count across `cores`, keeps k_g as large as possible
/// (C_a reuse), and enforces ms >= 6 when M allows (small-ms kernels
/// underperform, §IV-C).
MBlocks adjust_m_blocks(MBlocks b, std::size_t m, std::size_t n,
                        std::size_t k, const isa::MachineConfig& mc,
                        int cores = 8);
KBlocks adjust_k_blocks(KBlocks b, std::size_t m, std::size_t n,
                        std::size_t k, const isa::MachineConfig& mc,
                        int cores = 8);

/// Algorithm 4 blocks of the fixed-width engines (dgemm, hgemm): one N
/// panel of na = min(na_max, n) columns, k_a <= 512 (a multiple of two k
/// pairs for interleaved B), and the same m_a balancing and GSM-filling
/// k_g as adjust_m_blocks at the layout's element sizes.
MBlocks fixed_m_blocks(std::size_t m, std::size_t n, std::size_t k,
                       int cores, const isa::MachineConfig& mc,
                       const ElemLayout& layout);

/// Capacity audits: throw ContractViolation when a configuration cannot
/// fit SM/AM/GSM with double buffering as used by the algorithms.
void check_m_blocks(const MBlocks& b, const isa::MachineConfig& mc,
                    const ElemLayout& layout = {});
void check_k_blocks(const KBlocks& b, const isa::MachineConfig& mc);
void check_t_blocks(const TBlocks& b, const isa::MachineConfig& mc);

/// AM row pitch in floats for an na-wide tile (na padded to vectors).
std::size_t am_pitch_floats(std::size_t na);

}  // namespace ftm::core
