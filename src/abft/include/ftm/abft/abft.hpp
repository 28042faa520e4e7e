// Huang–Abraham algorithm-based fault tolerance for GEMM (ISSUE 8,
// docs/robustness.md).
//
// For C += A·B the row sums of the result are fully determined by the
// inputs: r[i] = rowsum(C_old)[i] + A[i,:]·(B·e), and likewise the column
// sums c[j] = colsum(C_old)[j] + (eᵀ·A)·B[:,j]. A Checker captures both
// expectations in double precision *before* the GEMM runs, then verifies
// the produced C against them. One damaged element perturbs exactly one
// row sum and one column sum by the same delta, so a single error is
// located at the (row, col) intersection and repaired in place by
// recomputing that element: its pre-GEMM value plus one k-length dot
// product, in double. The checksums only locate the error; deriving the
// value from them would carry two row sums' rounding onto one element.
// Anything that doesn't fit that pattern — two or more damaged elements,
// or a repair that fails re-verification — is escalated as
// ftm::IntegrityError so the runtime's resilience path (retry on another
// cluster, CPU fallback) recomputes the block.
//
// Tolerance: the device accumulates C in FP32 while the checker's
// expectations are (near-)exact doubles, so the comparison must absorb
// FP32 rounding. Each check scales with the magnitude sum along its line
// (|C_old| plus |A|·|B| products — computed alongside the expectations),
// a sqrt-law accumulation factor, and FP32 epsilon:
//
//   tol_row[i] ~ 24 · eps32 · sqrt(k+n) · abs_row[i]
//
// The injector's bit-flips (fault::FaultInjector::on_store) always
// damage the exponent MSB, producing deltas >= ~2.0 — orders of
// magnitude above these tolerances on every functional test shape —
// which is what turns "ABFT catches most errors" into the chaos
// harness's provable "zero silent escapes".
//
// This library is pure host-side checksum math: it depends only on
// ftm_util (matrix views) and ftm_fault (IntegrityError). The engine
// (src/core/ftimm.cpp) owns policy — when to verify, what to charge in
// simulated cycles — via FtimmOptions::integrity.
#pragma once

#include <cstdint>
#include <vector>

#include "ftm/util/matrix.hpp"

namespace ftm::abft {

/// Outcome of one verification pass over a produced C block.
struct VerifyStats {
  int checks = 0;     ///< row + column checksum comparisons performed
  int detected = 0;   ///< checksum lines that mismatched
  int corrected = 0;  ///< elements repaired in place (0 or 1)
};

/// Extra FLOPs the checksum scheme costs on-device: computing the A
/// column-sum row (mk) and B row-sum column (kn), the extra C checksum
/// row (2kn) and column (2mk), and the store-phase comparisons with
/// their magnitude sums (4mn).
std::uint64_t checksum_flops(std::size_t m, std::size_t n, std::size_t k);

/// Extra bytes the checksum rows/columns add to the panel DMA traffic:
/// one FP32 row of k (A panels), one column of k (B panels), and the C
/// checksum row + column (n + m).
std::uint64_t checksum_bytes(std::size_t m, std::size_t n, std::size_t k);

/// Extra FLOPs one in-place repair costs: the k-length dot product that
/// recomputes the located element.
std::uint64_t repair_flops(std::size_t k);

/// Extra bytes one in-place repair moves: the element's A row and B
/// column (k values each) and its pre-GEMM C value.
std::uint64_t repair_bytes(std::size_t k);

/// One GEMM call's checksum state: construct *before* the GEMM mutates C,
/// verify after it completes. A and B must stay alive and unchanged until
/// verify() returns; the repair reads them.
class Checker {
 public:
  /// Captures expected post-GEMM row/column checksums of C += A·B (double
  /// precision), the magnitude sums the tolerances scale with (calibrated
  /// for uniform [-1, 1) data across the test shapes) and the pre-GEMM C
  /// the repair starts from.
  Checker(ConstMatrixView a, ConstMatrixView b, ConstMatrixView c);

  /// Verifies the produced C. With `correct` false, any mismatch throws
  /// IntegrityError. With `correct` true, a consistent single-element
  /// mismatch (exactly one row and one column flagged, agreeing deltas)
  /// is recomputed in place and re-verified; everything else throws
  /// IntegrityError carrying the mismatch count. `cluster` only labels
  /// the error.
  VerifyStats verify(MatrixView c, bool correct, int cluster = -1) const;

  std::size_t m() const { return m_; }
  std::size_t n() const { return n_; }
  std::size_t k() const { return k_; }

 private:
  std::size_t m_ = 0, n_ = 0, k_ = 0;
  ConstMatrixView a_, b_;
  std::vector<float> c_old_;               ///< pre-GEMM C, row-major m x n
  std::vector<double> row_sum_, col_sum_;  ///< expected checksums
  std::vector<double> row_tol_, col_tol_;  ///< absolute tolerances
};

}  // namespace ftm::abft
