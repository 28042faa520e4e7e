// The empirical block tuner: the perf gate's oracle (docs/tuning.md).
//
// For one shape the tuner races every strategy, each refined by
// deterministic coordinate-descent over its blocking axes (m_s, k_a, n_g,
// m_g/k_g, reduce_rows, DMA buffer depth), with the simulator's
// lane-clock makespan (timing-only sgemm_planned) as the objective.
// Candidates are pruned before they ever reach the simulator: the dynamic
// adjuster + check_*_blocks capacity audits reject seeds that cannot fit
// SM/AM/GSM, and the CMR equations (paper Eq. 1-4) reject seeds whose
// computation-to-memory ratio falls below half the analytic seed's. The
// very first candidate evaluated is the paper default (dispatcher
// strategy + adjusted initial blocks), so the tuned plan can never be
// slower than the default on its shape.
//
// Everything is deterministic: fixed candidate grids, stable iteration
// order, a fixed budget, strict-improvement acceptance. Two runs return
// the same plan and cycles. The tuner sits beside the product path: the
// engine and the runtime always plan analytically, and only the perf
// gate and the tests replay a TuneReport's plan.
#pragma once

#include <cstdint>

#include "ftm/core/ftimm.hpp"

namespace ftm::tune {

/// The winner of one tune() call and what the search spent on it.
struct TuneReport {
  /// Winning strategy and blocks, already bound to the tuned shape:
  /// sgemm_planned(shape, plan, opt with pingpong) replays tuned_cycles.
  core::GemmPlan plan;
  bool pingpong = true;              ///< DMA buffering of the winner
  std::uint64_t tuned_cycles = 0;    ///< objective at the winner
  std::uint64_t default_cycles = 0;  ///< objective of the paper plan
  int evaluated = 0;                 ///< simulator runs spent
  int pruned = 0;                    ///< candidates rejected unsimulated
};

class Tuner {
 public:
  explicit Tuner(const isa::MachineConfig& mc = isa::default_machine());

  /// Tunes one FP32 shape on all 8 cores and returns the winner.
  TuneReport tune(std::size_t m, std::size_t n, std::size_t k);

 private:
  std::uint64_t evaluate(const core::GemmPlan& plan, bool pingpong,
                         std::size_t m, std::size_t n, std::size_t k);

  isa::MachineConfig mc_;
  core::FtimmEngine engine_;
};

}  // namespace ftm::tune
