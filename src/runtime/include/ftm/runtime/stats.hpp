// Observability types of the multi-cluster runtime: one lifecycle record
// per request plus aggregate counters. Snapshots are plain values so
// callers can diff them across phases without holding runtime locks.
#pragma once

#include <cstdint>
#include <vector>

#include "ftm/core/types.hpp"
#include "ftm/runtime/qos.hpp"

namespace ftm::runtime {

/// Lifecycle of one dispatch (a request, one shard of a split request, or
/// one retry of either — each dispatch appends its own record). The base
/// is the GemmResult the dispatch delivered, so a delivered record has
/// host_wall_us > 0 unless it is a CPU fallback. A dispatch that delivered
/// nothing keeps a default base apart from the IntegrityError detections
/// (sdc_detected) and the cpu_fallback flag.
struct RequestStats : core::GemmResult {
  std::uint64_t id = 0;          ///< submission order, 1-based
  int cluster = -1;              ///< cluster that executed it
  bool plan_cache_hit = false;   ///< strategy/block selection skipped
  bool stolen = false;           ///< executed by a cluster it was not bound to
  int shards = 0;                ///< > 0 when this request was split
  int attempt = 0;               ///< 0 = first dispatch, n = nth retry
  bool fault = false;            ///< dispatch ended in a FaultError
  bool deadline_missed = false;  ///< simulated-cycle deadline blown
  bool failed = false;           ///< resolved its future with an exception
  double queue_wait_ms = 0;      ///< host wall-clock submit -> dispatch
  /// Host wall-clock dispatch -> done; minus host_wall_us (the engine
  /// call) it is the plan lookup and dispatch overhead.
  double exec_ms = 0;
  // QoS / coalescing (ISSUE 7). finish_cycle - arrival_cycle is the
  // request's simulated latency; the replay benchmark computes goodput
  // from it against the deadline the caller assigned.
  Priority priority = Priority::Normal;
  std::uint64_t arrival_cycle = 0;  ///< virtual arrival (QosOptions)
  std::uint64_t finish_cycle = 0;   ///< lane clock when the dispatch ended
  bool batched = false;             ///< dispatched as a batch member
  std::uint64_t batch_id = 0;       ///< flush order, 1-based; 0 = none
  int batch_size = 0;               ///< members in its batch at flush
};

/// Aggregate counters; a consistent snapshot taken under the stats lock.
/// With a trace session active, every counter below moves together with a
/// trace counter of the same value (docs/tracing.md).
struct RuntimeStats {
  std::uint64_t submitted = 0;   ///< requests accepted (shards not counted)
  std::uint64_t completed = 0;   ///< requests whose future got a value
  std::uint64_t failed = 0;      ///< requests whose future got an exception
  std::uint64_t executed = 0;    ///< dispatches, including shards/retries
  // One plan hit or miss per cluster dispatch: a plan-cache hit or a batch
  // member's shared pre-plan is a hit, anything planned afresh a miss.
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t steals = 0;      ///< requests executed off their bound cluster
  std::uint64_t splits = 0;      ///< wide requests sharded across clusters
  // Resilience counters. `faults` counts every dispatch that ended in a
  // FaultError (non-zero with an injector even when resilience is off);
  // the rest are zero unless ResilienceOptions::enabled.
  std::uint64_t faults = 0;           ///< dispatches that hit a FaultError
  std::uint64_t retries = 0;          ///< re-dispatches after a fault
  std::uint64_t fallbacks = 0;        ///< requests resolved on the host CPU
  std::uint64_t deadline_misses = 0;  ///< simulated-cycle deadline blown
  std::uint64_t rerouted = 0;         ///< drained off a quarantined cluster
  // Coalescing + admission counters (ISSUE 7). `rejected` submissions are
  // not counted in `submitted`: they never entered the queue.
  std::uint64_t batches = 0;    ///< batch flushes dispatched (any size)
  std::uint64_t coalesced = 0;  ///< requests dispatched in a batch of >= 2
  std::uint64_t rejected = 0;   ///< submissions refused by admission control
  std::uint64_t batch_ddr_saved_bytes = 0;  ///< shared-operand DMA reuse
  // ABFT integrity counters (ISSUE 8). `sdc_detected` counts checksum
  // mismatches across all dispatches (corrected or not);
  // `recomputed_shards` counts dispatches re-executed because an
  // IntegrityError escalated through the resilience path.
  std::uint64_t checksum_checks = 0;
  std::uint64_t sdc_detected = 0;
  std::uint64_t sdc_corrected = 0;
  std::uint64_t recomputed_shards = 0;
  std::vector<std::uint64_t> cluster_requests;     ///< dispatches per cluster
  /// Max lane clock per cluster.
  std::vector<std::uint64_t> cluster_busy_cycles;
  // Per-cluster health (circuit breaker) state.
  std::vector<std::uint64_t> cluster_failures;     ///< faults charged to it
  std::vector<std::uint64_t> cluster_quarantines;  ///< times quarantined
  std::vector<std::uint64_t> cluster_probes;       ///< recovery probes run
  std::vector<bool> cluster_quarantined;           ///< currently quarantined
};

}  // namespace ftm::runtime
