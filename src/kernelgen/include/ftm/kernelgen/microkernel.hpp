// MicroKernel: a generated program plus its measured cost, and the kernel
// cache that memoizes generation per shape (ftIMM generates kernels on
// demand for whatever block sizes the dynamic adjuster picks).
//
// Each kernel is calibrated once by running the generated VLIW code on the
// detailed core model (register scoreboard, stalls, branch delay slots).
// Because a kernel's cycle count is independent of its operand values and
// its shape is baked into the program, that single measurement is exact for
// every subsequent call — so GEMM strategies use `run_fast`, which performs
// numerically identical host math (same fma order, same accumulator banks,
// kept in host registers by one tile template for every dtype) and charges
// the calibrated cycles. Tests assert detailed and fast paths agree
// bit-for-bit on every host SIMD tier.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "ftm/isa/machine.hpp"
#include "ftm/kernelgen/generator.hpp"
#include "ftm/kernelgen/spec.hpp"
#include "ftm/sim/core.hpp"

namespace ftm::kernelgen {

class MicroKernel {
 public:
  MicroKernel(const KernelSpec& spec, const isa::MachineConfig& mc);

  const KernelSpec& spec() const { return spec_; }
  const Tiling& tiling() const { return tiling_; }
  const isa::Program& program() const { return prog_; }

  /// Calibrated per-call cost (detailed simulation).
  std::uint64_t cycles() const { return calib_.cycles; }
  const sim::ExecResult& calibration() const { return calib_; }

  /// Useful-flops efficiency against the core's peak: the Fig. 3 metric.
  double efficiency() const;

  /// Executes the generated program on `core`'s detailed model. Operands
  /// must already sit at the given byte offsets (A in SM, B/C in AM, with
  /// B/C rows padded to vn*32 floats).
  sim::ExecResult run_detailed(sim::DspCore& core, std::size_t a_off,
                               std::size_t b_off, std::size_t c_off) const;

  /// Fast path: the same math on raw host pointers, laid out as in AM/SM
  /// (A row pitch ka elements; B and C row pitch am_row_elems()), in the
  /// kernel's own dtype. F32/F64: A, B and C hold that type. F16/BF16: A
  /// holds halves (ka even-padded), B holds kpairs() rows of pair words
  /// (low half = even k, high half = odd k), C is FP32. Runs register
  /// tiles that keep each C element's accumulation order (bank k % ku,
  /// then an ascending bank reduce), so C is bit-identical to
  /// run_detailed on every hostsimd tier. Returns the calibrated cycles.
  /// Throws ContractViolation on a null operand.
  std::uint64_t run_fast(const void* a, const void* b, void* c) const;

  /// Rows of C one host register tile of run_fast holds: a fixed
  /// constant per (dtype, ku), reported so tests can assert coverage and
  /// benchmarks can name the tile they timed.
  int host_tile_rows() const;

  /// Timing-only: the calibrated cycles without touching data.
  std::uint64_t cost_only() const { return calib_.cycles; }

 private:
  KernelSpec spec_;
  isa::MachineConfig mc_;
  Tiling tiling_;
  isa::Program prog_;
  sim::ExecResult calib_;
};

/// Memoizes MicroKernel instances per (ms, ka, na, load_c, dtype).
/// Thread-safe: one cache may be shared by engines driving different
/// clusters from different threads (kernels are immutable once built, so
/// only the map itself needs the lock; a kernel's first generation+
/// calibration happens under it, exactly once per shape process-wide).
class KernelCache {
 public:
  explicit KernelCache(const isa::MachineConfig& mc = isa::default_machine());

  const MicroKernel& get(const KernelSpec& spec);

  std::size_t generated() const;
  std::size_t hits() const;

 private:
  using Key = std::tuple<int, int, int, bool, int>;
  isa::MachineConfig mc_;
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<MicroKernel>> cache_;
  std::size_t generated_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace ftm::kernelgen
