// Shape-class bucketing of the serving layer (docs/serving.md): the key
// the Batcher coalesces under and the admission controller's per-class
// latency EWMA is kept by. A class is the floor-log2 bucket of each
// dimension plus the active core count and the compute dtype. Shapes in
// one class differ by < 2x per dimension, so they share the same M/N/K
// ratio regime (the paper's type I/II/III taxonomy falls out of the
// bucket differences) and cost about the same.
#pragma once

#include <compare>
#include <cstddef>

#include "ftm/kernelgen/spec.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::runtime {

/// Floor of log2(v); shape_bucket(1) == 0. Dimensions in [2^b, 2^(b+1))
/// share a bucket.
inline int shape_bucket(std::size_t v) {
  FTM_EXPECTS(v >= 1);
  int b = 0;
  while (v >>= 1) ++b;
  return b;
}

struct ShapeClass {
  int mb = 0;  ///< bucket of M
  int nb = 0;  ///< bucket of N
  int kb = 0;  ///< bucket of K
  int cores = 8;
  /// Compute dtype (static_cast of kernelgen::DType; 0 = F32). Mixed
  /// precision changes every capacity/bandwidth trade-off, so F16/BF16
  /// shapes fall into their own classes.
  int dtype = 0;

  static ShapeClass of(std::size_t m, std::size_t n, std::size_t k,
                       int cores,
                       kernelgen::DType dtype = kernelgen::DType::F32) {
    FTM_EXPECTS(m >= 1 && n >= 1 && k >= 1 && cores >= 1);
    return ShapeClass{shape_bucket(m), shape_bucket(n), shape_bucket(k),
                      cores, static_cast<int>(dtype)};
  }

  friend auto operator<=>(const ShapeClass&, const ShapeClass&) = default;
};

}  // namespace ftm::runtime
