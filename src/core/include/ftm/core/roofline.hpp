// Roofline model used in Fig. 5: the attainable performance of a GEMM on
// one GPDSP cluster given its compulsory DDR traffic and the published
// 42.6 GB/s bandwidth.
#pragma once

#include <cstddef>

#include "ftm/isa/machine.hpp"
#include "ftm/kernelgen/spec.hpp"

namespace ftm::core {

/// Compulsory DDR traffic of C += A*B in bytes (read A, B, C; write C).
double min_ddr_bytes(std::size_t m, std::size_t n, std::size_t k);

/// Arithmetic intensity (flops per DDR byte).
double arithmetic_intensity(std::size_t m, std::size_t n, std::size_t k);

/// min(compute peak of `cores`, AI * DDR bandwidth), in GFlops.
double roofline_gflops(std::size_t m, std::size_t n, std::size_t k,
                       int cores, const isa::MachineConfig& mc);

/// dtype-aware variants: the half formats move 2-byte A/B operands (C
/// stays FP32) and double the compute ceiling (VFMULAH32 is a 2-way dot
/// product); FP64 doubles operand bytes and halves the ceiling.
/// peak_scale is that ceiling relative to FP32 (0.5, 1 or 2).
double peak_scale(kernelgen::DType dtype);
double min_ddr_bytes(std::size_t m, std::size_t n, std::size_t k,
                     kernelgen::DType dtype);
double arithmetic_intensity(std::size_t m, std::size_t n, std::size_t k,
                            kernelgen::DType dtype);
double roofline_gflops(std::size_t m, std::size_t n, std::size_t k,
                       int cores, const isa::MachineConfig& mc,
                       kernelgen::DType dtype);

}  // namespace ftm::core
