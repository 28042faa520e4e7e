#include "ftm/sim/dma.hpp"

#include <cmath>
#include <cstring>

namespace ftm::sim {

std::uint64_t dma_cost_cycles(const isa::MachineConfig& mc,
                              const DmaRequest& req, int ddr_share) {
  FTM_EXPECTS(ddr_share >= 1);
  const double bytes = static_cast<double>(req.total_bytes());
  double per_cycle = 0;
  switch (req.route) {
    case DmaRoute::DdrToSpm:
    case DmaRoute::SpmToDdr:
      per_cycle = mc.ddr_bytes_per_cycle() / ddr_share;
      break;
    case DmaRoute::GsmToSpm:
    case DmaRoute::SpmToGsm: {
      // Per-core crossbar port, throttled when the aggregate cap would be
      // exceeded by `ddr_share` concurrent users.
      double per_core = static_cast<double>(mc.gsm_bytes_per_cycle_per_core);
      const double aggregate =
          static_cast<double>(mc.gsm_bytes_per_cycle_total) / ddr_share;
      per_cycle = per_core < aggregate ? per_core : aggregate;
      break;
    }
  }
  FTM_ASSERT(per_cycle > 0);
  return mc.dma_startup_cycles +
         static_cast<std::uint64_t>(std::ceil(bytes / per_cycle));
}

DmaHandle CoreTimeline::dma_start(std::uint64_t cost) {
  cost = scaled(cost);
  // The engine starts this transfer when it is free, independent of the
  // core clock (descriptors are assumed pre-queued by the ping-pong code).
  const std::uint64_t start = dma_free_ > now_ ? dma_free_ : now_;
  const std::uint64_t done = start + cost;
  dma_free_ = done;
  dma_total_ += cost;
  dma_done_at_.push_back(done);
  return dma_done_at_.size() - 1;
}

void CoreTimeline::dma_wait(DmaHandle h) {
  FTM_EXPECTS(h < dma_done_at_.size());
  advance_to(dma_done_at_[h]);
}

bool CoreTimeline::dma_done(DmaHandle h) const {
  FTM_EXPECTS(h < dma_done_at_.size());
  return dma_done_at_[h] <= now_;
}

std::uint64_t CoreTimeline::done_time(DmaHandle h) const {
  FTM_EXPECTS(h < dma_done_at_.size());
  return dma_done_at_[h];
}

void CoreTimeline::compute(std::uint64_t cycles) {
  cycles = scaled(cycles);
  now_ += cycles;
  compute_total_ += cycles;
}

void CoreTimeline::reset() {
  now_ = 0;
  dma_free_ = 0;
  dma_done_at_.clear();
  dma_total_ = 0;
  compute_total_ = 0;
  dma_bytes_ = 0;
}

void dma_copy(const DmaRequest& req, const std::uint8_t* src,
              std::uint8_t* dst) {
  for (std::size_t r = 0; r < req.rows; ++r) {
    std::memcpy(dst + r * req.dst_stride, src + r * req.src_stride,
                req.row_bytes);
  }
}

void dma_corrupt(const DmaRequest& req, std::uint8_t* dst,
                 std::uint64_t word, std::uint32_t xor_mask) {
  FTM_EXPECTS(req.row_bytes % 4 == 0);
  const std::size_t off = static_cast<std::size_t>(word) * 4;
  FTM_EXPECTS(off < req.total_bytes());
  const std::size_t row = off / req.row_bytes;
  const std::size_t col = off % req.row_bytes;
  std::uint8_t* p = dst + row * req.dst_stride + col;
  std::uint32_t bits;
  std::memcpy(&bits, p, 4);
  bits ^= xor_mask;
  std::memcpy(p, &bits, 4);
}

}  // namespace ftm::sim
