// One check for every producer of a core::GemmResult: the rates derive
// from the cycles as core::derive_rates documents, the dtype is the one
// requested, and the host time is measured unless the result is a CPU
// fallback (which carries no cycles, rates or host time at all).
#pragma once

#include <gtest/gtest.h>

#include "ftm/core/roofline.hpp"
#include "ftm/core/types.hpp"
#include "ftm/runtime/stats.hpp"

namespace ftm::test {

/// `cores` is every core the efficiency is measured against: the run's
/// cores, times the shards of a split or the clusters of a node grid.
inline void expect_record(
    const core::GemmResult& r, double flops, int cores,
    kernelgen::DType dtype,
    const isa::MachineConfig& mc = isa::default_machine()) {
  if (r.cpu_fallback) {
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.seconds, 0.0);
    EXPECT_EQ(r.gflops, 0.0);
    EXPECT_EQ(r.efficiency, 0.0);
    EXPECT_EQ(r.host_wall_us, 0.0);
    return;
  }
  ASSERT_GT(r.cycles, 0u);
  const double seconds = static_cast<double>(r.cycles) / (mc.freq_ghz * 1e9);
  EXPECT_DOUBLE_EQ(r.seconds, seconds);
  EXPECT_DOUBLE_EQ(r.gflops, flops / seconds / 1e9);
  const double peak = mc.core_peak_gflops() * core::peak_scale(dtype) *
                      static_cast<double>(cores);
  EXPECT_DOUBLE_EQ(r.efficiency, r.gflops / peak);
  EXPECT_LT(r.efficiency, 1.0);
  EXPECT_EQ(r.dtype, dtype);
  EXPECT_GT(r.host_wall_us, 0.0);
}

/// A request_log() row carries the result its dispatch delivered as is.
inline void expect_logged(const runtime::RequestStats& row,
                          const core::GemmResult& r) {
  EXPECT_TRUE(static_cast<const core::GemmResult&>(row) == r)
      << "row cycles " << row.cycles << " vs " << r.cycles << ", host_us "
      << row.host_wall_us << " vs " << r.host_wall_us;
}

}  // namespace ftm::test
