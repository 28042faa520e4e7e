#include "ftm/util/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <new>

namespace ftm {

HostMatrix::HostMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  if (rows * cols > 0) {
    data_.reset(new (std::align_val_t{64}) float[rows * cols]());
  }
}

HostMatrix HostMatrix::uninitialized(std::size_t rows, std::size_t cols) {
  HostMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  if (rows * cols > 0) {
    m.data_.reset(new (std::align_val_t{64}) float[rows * cols]);
  }
  return m;
}

void HostMatrix::fill(float v) {
  std::fill_n(data_.get(), rows_ * cols_, v);
}

void HostMatrix::fill_random(Prng& rng, float lo, float hi) {
  for (std::size_t i = 0; i < rows_ * cols_; ++i)
    data_[i] = rng.next_float(lo, hi);
}

void HostMatrix::fill_indexed() {
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) {
      // Small, exactly-representable values so FP32 sums stay exact in tests
      // with modest K.
      data_[r * cols_ + c] =
          static_cast<float>((r * 31 + c * 7) % 64) * 0.0625f - 2.0f;
    }
}

double max_rel_diff(ConstMatrixView a, ConstMatrixView b) {
  FTM_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const double x = a(r, c);
      const double y = b(r, c);
      const double denom = std::max({std::abs(x), std::abs(y), 1.0});
      worst = std::max(worst, std::abs(x - y) / denom);
    }
  }
  return worst;
}

double gemm_tolerance(std::size_t k) {
  // Accumulation-order error between a serial reference and a blocked
  // implementation grows roughly with sqrt(K); bits^2 upper-bounds that
  // comfortably while staying tight for small K.
  const double bits = std::max(1.0, std::log2(static_cast<double>(k) + 1.0));
  return 2e-6 * bits * bits;
}

}  // namespace ftm
