// Row-major FP32 matrix types: a lightweight non-owning view (MatrixView /
// ConstMatrixView) with an explicit leading dimension, and an owning
// 64-byte-aligned HostMatrix. These are the currency of the whole library:
// the public GEMM APIs take views so callers can pass sub-matrices without
// copies.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "ftm/util/assert.hpp"
#include "ftm/util/prng.hpp"

namespace ftm {

/// Non-owning mutable view of a row-major FP32 matrix with leading
/// dimension `ld` (elements between consecutive rows).
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(float* data, std::size_t rows, std::size_t cols, std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    FTM_EXPECTS(ld >= cols);
    FTM_EXPECTS(data != nullptr || rows * cols == 0);
  }
  MatrixView(float* data, std::size_t rows, std::size_t cols)
      : MatrixView(data, rows, cols, cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  float* data() const { return data_; }

  float& at(std::size_t r, std::size_t c) const {
    FTM_EXPECTS(r < rows_ && c < cols_);
    return data_[r * ld_ + c];
  }
  float& operator()(std::size_t r, std::size_t c) const {
    return data_[r * ld_ + c];
  }
  float* row(std::size_t r) const {
    FTM_EXPECTS(r < rows_);
    return data_ + r * ld_;
  }

  /// Sub-view of `r x c` elements starting at (r0, c0); clamped to bounds
  /// must be done by the caller — out-of-range is a contract violation.
  MatrixView block(std::size_t r0, std::size_t c0, std::size_t r,
                   std::size_t c) const {
    FTM_EXPECTS(r0 + r <= rows_ && c0 + c <= cols_);
    return MatrixView(data_ + r0 * ld_ + c0, r, c, ld_);
  }

  void fill(float v) const {
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) data_[r * ld_ + c] = v;
  }

 private:
  float* data_ = nullptr;
  std::size_t rows_ = 0, cols_ = 0, ld_ = 0;
};

/// Non-owning read-only view; implicitly constructible from MatrixView.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const float* data, std::size_t rows, std::size_t cols,
                  std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    FTM_EXPECTS(ld >= cols);
    FTM_EXPECTS(data != nullptr || rows * cols == 0);
  }
  ConstMatrixView(const float* data, std::size_t rows, std::size_t cols)
      : ConstMatrixView(data, rows, cols, cols) {}
  ConstMatrixView(const MatrixView& mv)  // NOLINT: implicit by design
      : data_(mv.data()), rows_(mv.rows()), cols_(mv.cols()), ld_(mv.ld()) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t ld() const { return ld_; }
  const float* data() const { return data_; }

  const float& at(std::size_t r, std::size_t c) const {
    FTM_EXPECTS(r < rows_ && c < cols_);
    return data_[r * ld_ + c];
  }
  const float& operator()(std::size_t r, std::size_t c) const {
    return data_[r * ld_ + c];
  }
  const float* row(std::size_t r) const {
    FTM_EXPECTS(r < rows_);
    return data_ + r * ld_;
  }

  ConstMatrixView block(std::size_t r0, std::size_t c0, std::size_t r,
                        std::size_t c) const {
    FTM_EXPECTS(r0 + r <= rows_ && c0 + c <= cols_);
    return ConstMatrixView(data_ + r0 * ld_ + c0, r, c, ld_);
  }

 private:
  const float* data_ = nullptr;
  std::size_t rows_ = 0, cols_ = 0, ld_ = 0;
};

/// Owning row-major FP32 matrix, 64-byte aligned for host SIMD.
class HostMatrix {
 public:
  HostMatrix() = default;
  /// Zero-filled.
  HostMatrix(std::size_t rows, std::size_t cols);
  /// Left uninitialised, for a buffer the caller writes in full before
  /// reading it (it skips the zero-fill pass).
  static HostMatrix uninitialized(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  float& at(std::size_t r, std::size_t c) {
    FTM_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const float& at(std::size_t r, std::size_t c) const {
    FTM_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  MatrixView view() { return MatrixView(data_.get(), rows_, cols_, cols_); }
  ConstMatrixView view() const {
    return ConstMatrixView(data_.get(), rows_, cols_, cols_);
  }
  ConstMatrixView cview() const { return view(); }

  void fill(float v);
  /// Fill with deterministic uniform values in [lo, hi).
  void fill_random(Prng& rng, float lo = -1.0f, float hi = 1.0f);
  /// Fill element (r,c) with a cheap index hash — handy for addressing tests
  /// because any misplaced element is detectable.
  void fill_indexed();

 private:
  struct AlignedDeleter {
    void operator()(float* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  std::unique_ptr<float[], AlignedDeleter> data_;
  std::size_t rows_ = 0, cols_ = 0;
};

/// Max relative element difference between two equally-sized views,
/// with denominators clamped to 1 so zeros compare absolutely.
double max_rel_diff(ConstMatrixView a, ConstMatrixView b);

/// Tolerance appropriate for comparing two FP32 GEMM results whose
/// accumulation order differs: scales with log2(K).
double gemm_tolerance(std::size_t k);

}  // namespace ftm
