// Deterministic fault injection for the simulated FT-m7032 (ISSUE 3).
//
// The hardware modeled by src/sim/ has independent failure domains: each
// DSP core's DMA engine, each scratchpad, and each GPDSP cluster as a
// whole. A FaultPlan declares which of those domains misbehave and how
// often; a FaultInjector executes the plan at the hook points the
// simulator exposes (Cluster::dma / Cluster::reset). Loud faults
// surface as a typed ftm::FaultError — never as a
// ContractViolation (which the runtime treats as a deterministic caller
// bug, not a transient hardware fault). One fault kind is deliberately
// *not* loud: SilentCorruption flips bits in a stored C panel without
// raising anything, modeling the ECC escapes that only the ABFT
// checksum layer (src/abft/, docs/robustness.md) can catch; when that
// layer detects damage it cannot repair, it escalates as
// FaultError(IntegrityError).
//
// Determinism: each cluster draws from its own seeded xoshiro stream, and
// a cluster is only ever driven by one thread at a time (see
// sim::Cluster's threading contract), so for a fixed request->cluster
// assignment the injected fault sequence is bit-reproducible. Across
// work-stealing schedules the *sites* may move, but the per-transfer
// rates and the dead/stalled cluster sets are fixed by the plan, which is
// what the chaos harness's invariants are written against.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ftm/util/prng.hpp"

namespace ftm {

/// What kind of failure a FaultError reports. The first five are injected
/// by the simulator (SilentCorruption is counted, never thrown — it
/// damages data instead); the next three are raised by the runtime itself
/// (deadline enforcement, shutdown, and admission control);
/// IntegrityError is raised by the ABFT checksum layer when a corrupted
/// C block cannot be repaired in place and must be recomputed.
enum class FaultKind {
  DmaError,          ///< a DMA transfer failed outright
  DmaTimeout,        ///< a DMA transfer stalled (charged a latency penalty)
  SpmEcc,            ///< uncorrectable ECC-style scratchpad corruption
  ClusterStall,      ///< cluster running at a slowdown multiplier
  ClusterDead,       ///< whole-cluster hard failure
  SilentCorruption,  ///< sim: bit-flip in a stored C panel (never thrown)
  DeadlineExceeded,  ///< runtime: request blew its deadline
  Cancelled,         ///< runtime: shut down before the request could finish
  Rejected,          ///< runtime: admission control refused the submission
  IntegrityError,    ///< abft: checksum mismatch beyond in-place repair
  kCount,            ///< sentinel: number of kinds, not a kind itself
};

const char* to_string(FaultKind k);

/// Typed failure of a simulated hardware component (or of the runtime's
/// own deadline/shutdown handling). Distinct from ContractViolation: a
/// FaultError is transient/environmental and safe to retry elsewhere; a
/// ContractViolation is a deterministic bug in the caller's input.
class FaultError : public std::runtime_error {
 public:
  FaultError(FaultKind kind, int cluster, int core, const std::string& what)
      : std::runtime_error(what), kind_(kind), cluster_(cluster),
        core_(core) {}

  FaultKind kind() const { return kind_; }
  /// Failing cluster id, or -1 when no cluster is implicated.
  int cluster() const { return cluster_; }
  /// Failing core/DMA-engine id within the cluster, or -1.
  int core() const { return core_; }

 private:
  FaultKind kind_;
  int cluster_;
  int core_;
};

/// FaultError specialization raised by the ABFT layer (src/abft/) when a
/// C block fails checksum verification beyond in-place repair: more than
/// one damaged element, or a correction that did not re-verify. Carries
/// the number of checksum mismatches so the runtime can account the
/// recompute. Flows through the exact same retry/re-bind/CPU-fallback
/// path as any other transient FaultError.
class IntegrityError : public FaultError {
 public:
  IntegrityError(int cluster, int detected, const std::string& what)
      : FaultError(FaultKind::IntegrityError, cluster, -1, what),
        detected_(detected) {}

  /// Number of row/column checksum mismatches observed in the block.
  int detected() const { return detected_; }

 private:
  int detected_;
};

namespace fault {

/// Failure behavior of one cluster. Rates are per DMA transfer in [0, 1].
struct ClusterFaults {
  double dma_error_rate = 0;    ///< transfer fails with FaultKind::DmaError
  double dma_timeout_rate = 0;  ///< transfer completes but charges a penalty
  double spm_ecc_rate = 0;      ///< transfer aborts with FaultKind::SpmEcc
  double stall_multiplier = 1;  ///< > 1 scales all compute/DMA cycles
  bool dead = false;            ///< every operation fails (ClusterDead)
  /// Per-C-store-transfer probability that one FP32 word of the stored
  /// panel is silently bit-flipped (an ECC escape). Nothing is thrown;
  /// only the ABFT checksum layer can observe it. Functional mode only —
  /// timing-only runs carry no data to corrupt.
  double silent_corruption_rate = 0;
};

/// A declarative, seeded description of which failure domains misbehave.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Cycles charged on top of a transfer that hits a DmaTimeout (large
  /// enough to be visible against a GEMM's normal DMA cost).
  std::uint64_t dma_timeout_penalty_cycles = 4'000'000;
  /// Indexed by cluster id; clusters beyond the vector are fault-free.
  std::vector<ClusterFaults> clusters;

  /// Grows the vector as needed and returns cluster `c`'s entry.
  ClusterFaults& cluster(int c);

  /// Randomized mixed plan for the chaos harness: every cluster gets
  /// small DMA error/timeout/ECC and silent-corruption rates, and (when
  /// clusters > 1) exactly one cluster is dead and one other is stalled
  /// 2-8x. Deterministic in `seed`.
  static FaultPlan chaos(std::uint64_t seed, int clusters);
};

/// Executes a FaultPlan at the simulator's hook points. Thread contract:
/// on_dma()/check_alive() for cluster c are called only from the thread
/// currently driving cluster c (each cluster has its own PRNG stream);
/// set_dead() and the counters are atomic and may be used from any thread
/// (the runtime's health prober and tests use them). Stall multipliers are
/// fixed by the plan (ClusterFaults::stall_multiplier) at construction.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// One silent bit-flip to apply to a stored panel: XOR `xor_mask` into
  /// FP32 word `word` of the transfer. The mask always sets the exponent
  /// MSB (bit 30) plus one high mantissa bit, so the damage is orders of
  /// magnitude above any checksum rounding noise — an injected flip is
  /// detectable by construction, which is what lets the chaos harness
  /// assert *zero* silent escapes rather than "most".
  struct Corruption {
    std::uint64_t word = 0;       ///< FP32 word index within the transfer
    std::uint32_t xor_mask = 0;   ///< bits to flip in that word
  };

  /// DMA-issue hook. Returns extra cycles to charge on the transfer
  /// (non-zero for an injected timeout); throws FaultError for an
  /// injected DmaError/SpmEcc, or ClusterDead when the cluster is dead.
  std::uint64_t on_dma(int cluster, int core, std::uint64_t bytes);

  /// C-store hook (SPM -> DDR, functional mode only): rolls the cluster's
  /// silent_corruption_rate and, on a hit, returns the bit-flip to apply
  /// to the outgoing panel. Never throws; counted as SilentCorruption.
  /// Consumes PRNG state only when the cluster's rate is non-zero, so
  /// plans without SDC keep bit-identical fault sequences.
  std::optional<Corruption> on_store(int cluster, int core,
                                     std::uint64_t bytes);

  /// GEMM-start hook (Cluster::reset): throws ClusterDead when dead.
  void check_alive(int cluster);

  /// Current slowdown of `cluster` (1.0 = healthy); the simulator applies
  /// it to every compute/DMA cycle charge. Counted as an injected
  /// ClusterStall once per GEMM that runs slowed.
  double stall_multiplier(int cluster) const;
  void note_stalled_run(int cluster);

  bool dead(int cluster) const;
  /// Kill or revive a cluster at runtime (chaos recovery scenarios).
  void set_dead(int cluster, bool dead);

  /// Total injections of `k` so far (atomic snapshot).
  std::uint64_t injected(FaultKind k) const;
  std::uint64_t injected_total() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct ClusterState {
    Prng prng;
    std::atomic<bool> dead{false};
    double stall = 1.0;  ///< fixed by the plan at construction
    ClusterFaults rates;  ///< static per-transfer rates from the plan
  };

  ClusterState& state(int cluster);
  const ClusterState& state(int cluster) const;
  void count(FaultKind k);

  FaultPlan plan_;
  std::vector<std::unique_ptr<ClusterState>> clusters_;
  /// Derived from the enum's sentinel so a new FaultKind can never
  /// silently truncate the counter array again.
  static constexpr int kKinds = static_cast<int>(FaultKind::kCount);
  static_assert(kKinds == 10,
                "FaultKind changed: update to_string(), the fault-model "
                "table in docs/robustness.md, and this assert");
  std::atomic<std::uint64_t> counts_[kKinds] = {};
};

}  // namespace fault
}  // namespace ftm
