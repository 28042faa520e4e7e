#include "ftm/core/roofline.hpp"

#include <algorithm>

namespace ftm::core {

double min_ddr_bytes(std::size_t m, std::size_t n, std::size_t k) {
  const double dm = static_cast<double>(m);
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  return 4.0 * (dm * dk + dk * dn + 2.0 * dm * dn);
}

double arithmetic_intensity(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / min_ddr_bytes(m, n, k);
}

double roofline_gflops(std::size_t m, std::size_t n, std::size_t k,
                       int cores, const isa::MachineConfig& mc) {
  const double peak = mc.core_peak_gflops() * cores;
  const double bw_bound =
      arithmetic_intensity(m, n, k) * mc.ddr_bytes_per_sec / 1e9;
  return std::min(peak, bw_bound);
}

namespace {
double operand_bytes(kernelgen::DType dtype) {
  if (dtype == kernelgen::DType::F64) return 8.0;
  return kernelgen::is_half(dtype) ? 2.0 : 4.0;
}
}  // namespace

double peak_scale(kernelgen::DType dtype) {
  if (dtype == kernelgen::DType::F64) return 0.5;
  return kernelgen::is_half(dtype) ? 2.0 : 1.0;
}

double min_ddr_bytes(std::size_t m, std::size_t n, std::size_t k,
                     kernelgen::DType dtype) {
  const double dm = static_cast<double>(m);
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const double ab = operand_bytes(dtype);
  // C reads+writes at accumulator width: FP32 for everything but F64.
  const double cb = dtype == kernelgen::DType::F64 ? 8.0 : 4.0;
  return ab * (dm * dk + dk * dn) + cb * 2.0 * dm * dn;
}

double arithmetic_intensity(std::size_t m, std::size_t n, std::size_t k,
                            kernelgen::DType dtype) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) / min_ddr_bytes(m, n, k, dtype);
}

double roofline_gflops(std::size_t m, std::size_t n, std::size_t k,
                       int cores, const isa::MachineConfig& mc,
                       kernelgen::DType dtype) {
  const double peak = mc.core_peak_gflops() * cores * peak_scale(dtype);
  const double bw_bound =
      arithmetic_intensity(m, n, k, dtype) * mc.ddr_bytes_per_sec / 1e9;
  return std::min(peak, bw_bound);
}

}  // namespace ftm::core
