// Shape-keyed cache of GEMM execution plans (strategy + dynamically
// adjusted blocks), extracted from the per-call dispatch FtimmEngine used
// to run on every sgemm(): a repeated shape skips choose_strategy and the
// block adjuster entirely and goes straight to sgemm_planned(). The
// micro-kernels a plan needs are memoized in the engines' shared
// KernelCache, so a plan hit also means no kernel generation.
//
// Thread-safe: readers take a shared lock. Two threads missing the same
// key concurrently both compute the (deterministic, identical) plan and
// the second insert is a no-op. Hits and misses are counted once, in
// RuntimeStats::plan_hits/plan_misses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>

#include "ftm/core/ftimm.hpp"

namespace ftm::runtime {

/// Everything plan selection depends on. bandwidth_share, pingpong,
/// dtype and functional mode affect execution only, never the chosen
/// plan, so they are deliberately not part of the key.
struct PlanKey {
  std::size_t m = 0, n = 0, k = 0;
  int cores = 8;
  bool dynamic_blocks = true;
  core::Strategy force = core::Strategy::Auto;

  static PlanKey of(std::size_t m, std::size_t n, std::size_t k,
                    const core::FtimmOptions& opt) {
    return PlanKey{m, n, k, opt.cores, opt.dynamic_blocks, opt.force};
  }

  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    return std::tie(a.m, a.n, a.k, a.cores, a.dynamic_blocks, a.force) <
           std::tie(b.m, b.n, b.k, b.cores, b.dynamic_blocks, b.force);
  }
};

class PlanCache {
 public:
  /// Returns the cached plan, or nullopt on a miss.
  std::optional<core::GemmPlan> find(const PlanKey& key) const;

  /// Inserts (first writer wins; duplicates are ignored).
  void insert(const PlanKey& key, const core::GemmPlan& plan);

  std::size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<PlanKey, core::GemmPlan> plans_;
};

}  // namespace ftm::runtime
