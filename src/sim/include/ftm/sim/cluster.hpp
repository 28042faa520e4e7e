// One GPDSP cluster: 8 DSP cores (each with private SM/AM and a DMA
// engine/timeline), the 6 MB GSM they share, and the DDR bandwidth-sharing
// model. Cores are simulated deterministically; cluster execution time is
// the max over per-core timelines plus any serial phases (e.g. the
// K-strategy reduction), which the GEMM algorithms account for explicitly.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "ftm/fault/fault.hpp"
#include "ftm/isa/machine.hpp"
#include "ftm/sim/core.hpp"
#include "ftm/sim/dma.hpp"
#include "ftm/sim/scratchpad.hpp"
#include "ftm/trace/trace.hpp"

namespace ftm::sim {

// Thread ownership: a Cluster has no internal locking. Each instance must
// be driven by one thread at a time (the multi-cluster runtime gives every
// worker thread its own Cluster via its own FtimmEngine); reset() restores
// a cluster to its post-construction state independently of any other.
class Cluster {
 public:
  explicit Cluster(const isa::MachineConfig& mc = isa::default_machine(),
                   int id = 0);

  const isa::MachineConfig& machine() const { return mc_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }

  /// Identifies this cluster in multi-cluster runtime stats/reports.
  int id() const { return id_; }
  void set_id(int id) { id_ = id; }

  DspCore& core(int i);
  CoreTimeline& timeline(int i);
  Scratchpad& gsm() { return gsm_; }

  /// Number of cores participating in the current GEMM; used as the DDR
  /// (and GSM aggregate) bandwidth sharing factor.
  void set_active_cores(int n);

  /// When false, callers skip the actual byte copies and kernels may skip
  /// math: timing-only mode for huge parameter sweeps. Defaults true.
  void set_functional(bool f) { functional_ = f; }
  bool functional() const { return functional_; }

  /// Attach a fault injector (non-owning; nullptr detaches). With one
  /// attached, dma_issue() consults it on every transfer (injected errors
  /// throw ftm::FaultError before any bytes move), reset() refuses to start a
  /// GEMM on a dead cluster, and the injector's per-cluster stall
  /// multiplier is synced onto every core timeline at reset().
  void set_fault_injector(fault::FaultInjector* fi) { fault_ = fi; }
  fault::FaultInjector* fault_injector() const { return fault_; }

  /// Issue a DMA on core `c`'s engine: charges the transfer on its
  /// timeline (and traces it) without moving any bytes. The host
  /// execution engine thereby decouples the (eager, deterministic) timing
  /// simulation from the (deferrable) functional copy; callers in
  /// functional mode perform dma_copy(req, src, dst) themselves. Fault
  /// injection throws here, i.e. before any bytes would move.
  DmaHandle dma_issue(int c, const DmaRequest& req);

  /// Silent-data-corruption hook for a C-store transfer: with a fault
  /// injector attached, in functional mode, and only for SpmToDdr routes,
  /// rolls the injector's silent_corruption_rate and returns the bit-flip
  /// to apply to the transfer's destination (nullopt otherwise). Callers
  /// must apply the returned flip *after* their copy lands — the corruption
  /// models an ECC escape on the store path, so it damages what DDR ends
  /// up holding, not the SPM source.
  std::optional<fault::FaultInjector::Corruption> store_corruption(
      int c, const DmaRequest& req);

  /// Synchronize all active cores' clocks to the latest one (barrier).
  void barrier();

  /// Latest clock across active cores.
  std::uint64_t max_time() const;

  /// Clears scratchpads, registers, and timelines for a fresh GEMM call.
  /// The finished run's makespan is folded into the trace epoch first, so
  /// traced spans of successive GEMMs lay out sequentially.
  void reset();

  /// Monotonic trace-clock base: cumulative cycles of all *previous* runs
  /// on this cluster. Traced spans report `trace_epoch() + timeline time`
  /// so a session spanning many GEMM calls stays monotonic per cluster.
  std::uint64_t trace_epoch() const { return trace_epoch_; }

 private:
  isa::MachineConfig mc_;
  int id_ = 0;
  std::vector<std::unique_ptr<DspCore>> cores_;
  std::vector<CoreTimeline> timelines_;
  Scratchpad gsm_;
  int active_cores_ = 1;
  bool functional_ = true;
  fault::FaultInjector* fault_ = nullptr;
  std::uint64_t trace_epoch_ = 0;
};

}  // namespace ftm::sim
