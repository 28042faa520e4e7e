// DMA engine model. Each DSP core owns one DMA engine that processes 2D
// strided transfers serially, concurrently with compute — which is exactly
// what the paper's ping-pong (double-buffering) scheme exploits. Transfer
// cost is startup latency + bytes at the route's bandwidth; DDR bandwidth
// is shared among the cores concurrently running (the 42.6 GB/s cluster
// figure), which is the mechanism behind the paper's sub-linear scaling
// (Fig. 6).
//
// Functionally a transfer is a real strided copy, so blocking/addressing
// bugs corrupt results and are caught by the numerical tests. A timing-only
// mode (CoreTimeline::set_functional(false) at a higher level) skips the
// copy for huge sweep benchmarks where only cycle counts matter.
#pragma once

#include <cstdint>
#include <vector>

#include "ftm/isa/machine.hpp"
#include "ftm/sim/scratchpad.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::sim {

/// Which memories a transfer moves between; determines bandwidth.
enum class DmaRoute {
  DdrToSpm,   ///< main memory -> SM/AM/GSM
  SpmToDdr,   ///< SM/AM/GSM -> main memory
  GsmToSpm,   ///< GSM -> SM/AM (on-chip crossbar)
  SpmToGsm,   ///< SM/AM -> GSM
};

/// A 2D strided transfer: `rows` rows of `row_bytes`, with byte strides
/// between consecutive rows on each side.
struct DmaRequest {
  DmaRoute route = DmaRoute::DdrToSpm;
  std::size_t rows = 0;
  std::size_t row_bytes = 0;
  std::size_t src_stride = 0;
  std::size_t dst_stride = 0;
  std::size_t total_bytes() const { return rows * row_bytes; }
};

/// Cycle cost of one transfer. `ddr_share` is the number of cores assumed
/// to be concurrently hitting DDR (>= 1); on-chip routes use the GSM
/// crossbar figures with the aggregate cap applied as a sharing factor.
std::uint64_t dma_cost_cycles(const isa::MachineConfig& mc,
                              const DmaRequest& req, int ddr_share);

/// Handle identifying an issued transfer on a core's timeline.
using DmaHandle = std::uint64_t;

/// Per-core clock that tracks compute/DMA overlap. The DMA engine runs
/// concurrently with compute but serializes its own queue; `dma_wait`
/// advances the core clock to the transfer's completion (this is the
/// synchronization point of the ping-pong scheme).
class CoreTimeline {
 public:
  std::uint64_t now() const { return now_; }
  void advance_to(std::uint64_t t) {
    if (t > now_) now_ = t;
  }

  /// Stall-injection hook: every subsequent compute/DMA cycle charge is
  /// multiplied by `s` (>= 1). Cluster::reset() syncs this from the fault
  /// injector's per-cluster stall multiplier; 1.0 (the default) keeps the
  /// arithmetic byte-identical to an uninjected build.
  void set_time_scale(double s) {
    FTM_EXPECTS(s >= 1.0);
    scale_ = s;
  }
  double time_scale() const { return scale_; }

  /// Queue a transfer costing `cost` cycles; returns its handle.
  DmaHandle dma_start(std::uint64_t cost);
  /// Block the core until transfer `h` has completed.
  void dma_wait(DmaHandle h);
  /// True if the transfer already finished by the core's current clock.
  bool dma_done(DmaHandle h) const;
  /// Absolute completion time of transfer `h` — used when *another* core
  /// must wait for a shared (e.g. GSM) transfer issued on this engine.
  std::uint64_t done_time(DmaHandle h) const;
  /// Consume `cycles` of core compute time.
  void compute(std::uint64_t cycles);

  /// Totals for reporting.
  std::uint64_t total_dma_cycles() const { return dma_total_; }
  std::uint64_t total_compute_cycles() const { return compute_total_; }
  std::uint64_t total_dma_bytes() const { return dma_bytes_; }
  void add_dma_bytes(std::uint64_t b) { dma_bytes_ += b; }

  void reset();

 private:
  std::uint64_t scaled(std::uint64_t cycles) const {
    return scale_ == 1.0 ? cycles
                         : static_cast<std::uint64_t>(
                               static_cast<double>(cycles) * scale_);
  }

  std::uint64_t now_ = 0;
  double scale_ = 1.0;           ///< stall slowdown; 1.0 = healthy
  std::uint64_t dma_free_ = 0;   ///< DMA engine busy-until.
  std::vector<std::uint64_t> dma_done_at_;
  std::uint64_t dma_total_ = 0;
  std::uint64_t compute_total_ = 0;
  std::uint64_t dma_bytes_ = 0;
};

/// Executes the functional (data-moving) part of a DMA between raw byte
/// regions. Lengths/strides must be consistent with the request.
void dma_copy(const DmaRequest& req, const std::uint8_t* src,
              std::uint8_t* dst);

/// Applies one silent bit-flip to the *destination* side of an already
/// performed transfer: XORs `xor_mask` into the FP32 word at logical
/// payload index `word` (row-major within the transfer, strides applied).
/// Models an ECC escape on the store path — see fault::FaultInjector::
/// on_store. `word` must index inside the payload; rows must be FP32
/// aligned.
void dma_corrupt(const DmaRequest& req, std::uint8_t* dst,
                 std::uint64_t word, std::uint32_t xor_mask);

}  // namespace ftm::sim
