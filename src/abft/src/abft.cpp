#include "ftm/abft/abft.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "ftm/fault/fault.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::abft {

namespace {

// Multiplies the sqrt-law rounding estimate into a safe band: well above
// the FP32 accumulation noise of every strategy's summation order, well
// below the >= 2.0 deltas the injector's exponent-MSB flips produce.
constexpr double kTolBase = 24.0;

// Absolute floor so all-zero lines (zero inputs) still verify cleanly.
constexpr double kTolFloor = 1e-6;

}  // namespace

std::uint64_t checksum_flops(std::size_t m, std::size_t n, std::size_t k) {
  const auto mm = static_cast<std::uint64_t>(m);
  const auto nn = static_cast<std::uint64_t>(n);
  const auto kk = static_cast<std::uint64_t>(k);
  return 3 * mm * kk + 3 * kk * nn + 4 * mm * nn;
}

std::uint64_t checksum_bytes(std::size_t m, std::size_t n, std::size_t k) {
  return 4 * static_cast<std::uint64_t>(m + n + 2 * k);
}

std::uint64_t repair_flops(std::size_t k) {
  return 2 * static_cast<std::uint64_t>(k);
}

std::uint64_t repair_bytes(std::size_t k) {
  return 4 * (2 * static_cast<std::uint64_t>(k) + 1);
}

Checker::Checker(ConstMatrixView a, ConstMatrixView b, ConstMatrixView c)
    : m_(a.rows()), n_(b.cols()), k_(a.cols()), a_(a), b_(b) {
  FTM_EXPECTS(b.rows() == k_ && c.rows() == m_ && c.cols() == n_);

  // B row sums (B·e) and magnitude sums, one pass.
  std::vector<double> bs(k_, 0.0), babs(k_, 0.0);
  for (std::size_t l = 0; l < k_; ++l) {
    double s = 0, sa = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = b.at(l, j);
      s += v;
      sa += std::abs(v);
    }
    bs[l] = s;
    babs[l] = sa;
  }

  // Row expectations r[i] = A[i,:]·bs, and A column sums (eᵀ·A) for the
  // column expectations, in the same pass over A.
  row_sum_.assign(m_, 0.0);
  row_tol_.assign(m_, 0.0);
  std::vector<double> as(k_, 0.0), aabs(k_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    double rs = 0, ra = 0;
    for (std::size_t l = 0; l < k_; ++l) {
      const double v = a.at(i, l);
      rs += v * bs[l];
      ra += std::abs(v) * babs[l];
      as[l] += v;
      aabs[l] += std::abs(v);
    }
    row_sum_[i] = rs;
    row_tol_[i] = ra;
  }

  // Column expectations c[j] = as·B[:,j].
  col_sum_.assign(n_, 0.0);
  col_tol_.assign(n_, 0.0);
  for (std::size_t l = 0; l < k_; ++l) {
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = b.at(l, j);
      col_sum_[j] += as[l] * v;
      col_tol_[j] += aabs[l] * std::abs(v);
    }
  }

  // C_old rides along both expectations (the GEMM accumulates into it),
  // and a repair starts from it.
  c_old_.resize(m_ * n_);
  for (std::size_t i = 0; i < m_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = c_old_[i * n_ + j] = c.at(i, j);
      row_sum_[i] += v;
      col_sum_[j] += v;
      row_tol_[i] += std::abs(v);
      col_tol_[j] += std::abs(v);
    }
  }

  const double eps = std::numeric_limits<float>::epsilon();
  const double row_fac =
      kTolBase * eps * std::sqrt(static_cast<double>(k_ + n_ + 1));
  const double col_fac =
      kTolBase * eps * std::sqrt(static_cast<double>(k_ + m_ + 1));
  for (double& t : row_tol_) t = row_fac * t + kTolFloor;
  for (double& t : col_tol_) t = col_fac * t + kTolFloor;
}

VerifyStats Checker::verify(MatrixView c, bool correct, int cluster) const {
  FTM_EXPECTS(c.rows() == m_ && c.cols() == n_);
  VerifyStats stats;
  stats.checks = static_cast<int>(m_ + n_);

  std::vector<double> col_act(n_, 0.0);
  // Flagged lines and their deltas; only the first of each is needed for
  // repair, the counts decide escalation.
  std::size_t bad_rows = 0, bad_cols = 0;
  std::size_t bad_i = 0, bad_j = 0;
  double delta_row = 0, delta_col = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    double rs = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      const double v = c.at(i, j);
      rs += v;
      col_act[j] += v;
    }
    const double d = rs - row_sum_[i];
    if (std::abs(d) > row_tol_[i]) {
      if (bad_rows++ == 0) {
        bad_i = i;
        delta_row = d;
      }
    }
  }
  for (std::size_t j = 0; j < n_; ++j) {
    const double d = col_act[j] - col_sum_[j];
    if (std::abs(d) > col_tol_[j]) {
      if (bad_cols++ == 0) {
        bad_j = j;
        delta_col = d;
      }
    }
  }
  if (bad_rows == 0 && bad_cols == 0) return stats;
  stats.detected = static_cast<int>(bad_rows + bad_cols);

  if (correct && bad_rows == 1 && bad_cols == 1 &&
      std::abs(delta_row - delta_col) <=
          row_tol_[bad_i] + col_tol_[bad_j]) {
    // Consistent single-element damage at (bad_i, bad_j): recompute the
    // element and re-verify both lines to guard against a miscorrection
    // (e.g. two errors in one row whose column deltas happened to merge).
    double v = c_old_[bad_i * n_ + bad_j];
    for (std::size_t l = 0; l < k_; ++l) {
      v += static_cast<double>(a_.at(bad_i, l)) * b_.at(l, bad_j);
    }
    c.at(bad_i, bad_j) = static_cast<float>(v);
    double rs = 0, cs = 0;
    for (std::size_t j = 0; j < n_; ++j) rs += c.at(bad_i, j);
    for (std::size_t i = 0; i < m_; ++i) cs += c.at(i, bad_j);
    if (std::abs(rs - row_sum_[bad_i]) <= row_tol_[bad_i] &&
        std::abs(cs - col_sum_[bad_j]) <= col_tol_[bad_j]) {
      stats.corrected = 1;
      return stats;
    }
  }
  throw IntegrityError(
      cluster, stats.detected,
      "checksum verification failed: " + std::to_string(bad_rows) +
          " row / " + std::to_string(bad_cols) +
          " column mismatches in a " + std::to_string(m_) + "x" +
          std::to_string(n_) + " C block (k=" + std::to_string(k_) +
          "); recompute required");
}

}  // namespace ftm::abft
