// The empirical shape-class auto-tuner (ISSUE 4 tentpole; docs/tuning.md).
//
// For one representative shape the tuner races every strategy, each
// refined by deterministic coordinate-descent over its blocking axes
// (m_s, k_a, n_g, m_g/k_g, reduce_rows, DMA buffer depth), with the
// simulator's lane-clock makespan (timing-only sgemm_planned) as the
// objective. Candidates are pruned before they ever reach the simulator:
// the dynamic adjuster + check_*_blocks capacity audits reject seeds that
// cannot fit SM/AM/GSM, and the CMR equations (paper Eq. 1-4) reject
// seeds whose computation-to-memory ratio falls below a fraction of the
// analytic optimum. The very first candidate evaluated is the paper
// default (dispatcher strategy + adjusted initial blocks), so a tuned
// entry can never be slower than the default on its tuned shape.
//
// Everything is deterministic: fixed candidate grids, stable iteration
// order, strict-improvement acceptance. Two runs with the same
// TunerOptions produce identical TunedEntry values and therefore (via
// TuningCache::serialize) byte-identical cache files.
#pragma once

#include <cstdint>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/tune/tuning_cache.hpp"

namespace ftm::tune {

struct TunerOptions {
  int cores = 8;
  /// Compute dtype the tuned entries are keyed under. F16/BF16 shapes run
  /// the dedicated half engine (which derives its own capacity blocks),
  /// so the half search space is the engine default plus the DMA depth —
  /// the blocked-strategy axes only apply at F32.
  kernelgen::DType dtype = kernelgen::DType::F32;
  /// Max simulator evaluations per shape (pruned candidates are free).
  int budget = 96;
  /// Coordinate-descent sweeps over the axis list per strategy.
  int rounds = 2;
  /// Prune candidates whose min-CMR is below this fraction of the
  /// analytic seed's; 0 disables CMR pruning.
  double cmr_prune = 0.5;
  /// Deterministic tuner seed. The search itself is grid-based; the seed
  /// is recorded in every entry so cache provenance is auditable.
  std::uint64_t seed = 1;
};

/// What one tune() call did, for reports and the search-step counters.
struct TuneReport {
  TunedEntry entry;
  int evaluated = 0;  ///< simulator runs spent
  int pruned = 0;     ///< candidates rejected before simulation
};

class Tuner {
 public:
  explicit Tuner(const isa::MachineConfig& mc = isa::default_machine(),
                 const TunerOptions& opt = {});

  /// Tunes one representative shape and returns the winning entry.
  TuneReport tune(std::size_t m, std::size_t n, std::size_t k);

  /// Tunes every shape and stores the results (one entry per class; a
  /// later shape of an already-tuned class overwrites it).
  struct Shape {
    std::size_t m = 0, n = 0, k = 0;
  };
  std::vector<TuneReport> tune_into(TuningCache& cache,
                                    const std::vector<Shape>& shapes);

  const isa::MachineConfig& machine() const { return mc_; }

 private:
  std::uint64_t evaluate(const core::GemmPlan& plan, std::size_t m,
                         std::size_t n, std::size_t k);

  isa::MachineConfig mc_;
  TunerOptions opt_;
  core::FtimmEngine engine_;
};

}  // namespace ftm::tune
