// GemmRuntime — the multi-cluster async GEMM runtime.
//
// Models a full FT-m7032: four GPDSP clusters (default) fed from a host
// that submits irregular GEMMs concurrently. Each cluster is one
// FtimmEngine (own simulated Cluster, shared thread-safe KernelCache)
// driven by one std::thread. Four layers ride on top of the single-call
// engine API:
//
//  * an async request queue: submit() returns a std::future<GemmResult>,
//    requests bind to the least-loaded cluster and idle workers steal;
//  * a shape-keyed plan cache: repeated shapes skip choose_strategy and
//    block adjustment (plan_cache.hpp);
//  * wide-problem splitting: a submission above
//    RuntimeOptions::wide_problem_flops is sharded row-wise across
//    currently idle clusters and its future resolves with the merged
//    result;
//  * shape-class coalescing + admission control (ISSUE 7, docs/serving.md):
//    with BatchOptions::enabled, Normal/Bulk sub-wide requests are held
//    briefly in a Batcher keyed by ShapeClass and flushed (on
//    size/age/pressure) as one batched dispatch — one plan lookup per
//    distinct shape, shared-operand DMA panel reuse, members packed one
//    core each across W lanes of one cluster (the run_all model).
//    QosOptions adds priority classes and per-request cycle deadlines
//    that feed admission control; with BatchOptions::max_queue bounded,
//    submit() resolves over-bound submissions with a typed
//    FaultError(FaultKind::Rejected) instead of queuing without limit
//    (try_submit() reports the RejectReason without the exception).
//
// Resilience (ISSUE 3, docs/robustness.md): with ResilienceOptions
// enabled, a dispatch that ends in an ftm::FaultError is retried with
// exponential backoff on a *different* cluster (shards of a split request
// re-dispatch individually instead of poisoning the merged promise), a
// per-dispatch deadline bounds simulated-cycle latency, a per-cluster
// circuit breaker quarantines clusters after consecutive faults (draining
// their queues to healthy clusters and probing for recovery), and when
// every DSP path is exhausted the request executes on the host CPU
// (src/cpu/cpu_gemm) so its future still resolves with a correct C.
// Every future resolves: with a value, or with a typed FaultError —
// never a hang and never silent corruption.
//
// Simulated time: every cluster keeps cores_per_cluster lane clocks. A
// request occupies its opt.cores least-loaded lanes (within lane_limit)
// starting at their max — so a full-cluster GEMM is a barriered serial
// phase and single-core requests pack like the batched scheduler's
// per-core queues. makespan_cycles() is the max lane over all clusters;
// run_all() resets the clocks and reports the batch makespan. On one
// cluster that is the batched scheduler of the paper's FEM motivation
// (§I): wide problems serially on every core, small ones one core each.
//
// Every routing decision (split, batch, direct; wide or small in run_all)
// is made here. The engine below only executes a strategy on one cluster.
#pragma once

#include <condition_variable>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "ftm/core/ftimm.hpp"
#include "ftm/fault/fault.hpp"
#include "ftm/runtime/batcher.hpp"
#include "ftm/runtime/plan_cache.hpp"
#include "ftm/runtime/request.hpp"
#include "ftm/runtime/stats.hpp"
#include "ftm/util/reporter.hpp"
#include "ftm/util/task_pool.hpp"

namespace ftm::runtime {

/// Self-healing knobs (all inert unless `enabled`). See
/// docs/robustness.md for the retry/quarantine state machine and the
/// deadline semantics.
struct ResilienceOptions {
  bool enabled = false;      ///< master switch; off = fail-fast (PR-1)
  /// Re-dispatches allowed per request (or per shard) after a FaultError;
  /// each retry binds to a different cluster and restores C first.
  int max_retries = 2;
  /// First retry delay (host wall-clock); each further retry doubles it.
  double backoff_ms = 0.05;
  /// Simulated-cycle budget per dispatch; 0 = none. A dispatch whose
  /// simulated cost exceeds it counts as a fault (retryable: sim cycles
  /// are not wall time, and a healthy cluster may meet the budget).
  std::uint64_t deadline_cycles = 0;
  /// Consecutive faults that quarantine a cluster; 0 = never quarantine.
  int quarantine_after = 3;
  /// How often a quarantined cluster's worker probes for recovery (the
  /// circuit breaker's half-open trial).
  double probe_interval_ms = 2;
  /// Last resort: execute on the host CPU (cpu::cpu_gemm) when retries
  /// are exhausted or no healthy cluster remains.
  bool cpu_fallback = true;
};

struct RuntimeOptions {
  int clusters = 4;          ///< FT-m7032 has four GPDSP clusters
  core::FtimmOptions gemm;   ///< defaults for submit(in) / run_all
  bool work_stealing = true;
  bool split_wide = true;          ///< shard huge submissions (async path)
  /// Flops at or above which one problem is wide: it occupies a whole
  /// cluster (and may be split across clusters) instead of coalescing or
  /// sharing a cluster with the rest of a run_all batch. Must be > 0.
  double wide_problem_flops = 256.0 * 1024 * 1024;
  bool keep_request_log = true;    ///< record per-request RequestStats
  ResilienceOptions resilience;    ///< self-healing layer (ISSUE 3)
  BatchOptions batching;           ///< coalescing + admission (ISSUE 7)
  /// ABFT floor for every dispatch (docs/robustness.md §ABFT). A request
  /// runs at the stronger of this and its own FtimmOptions::integrity: it
  /// may demand more protection, never less.
  core::IntegrityMode integrity = core::IntegrityMode::Off;
  /// Optional fault injector, installed into every cluster's simulator
  /// (non-owning; must outlive the runtime). nullptr = no injection.
  fault::FaultInjector* fault_injector = nullptr;
  /// Host execution engine (docs/performance.md): threads of the shared
  /// TaskPool that runs deferred functional work for all clusters. 0 =
  /// auto (min(hardware_concurrency, 8)), 1 = inline serial execution (no
  /// pool, the pre-engine behavior). Never affects simulated cycles. A
  /// request whose FtimmOptions already carry a host_pool keeps it.
  int host_threads = 0;
};

/// Outcome of try_submit(): the future (engaged iff accepted) or the
/// typed reason admission control refused the request. Rejected
/// submissions never execute, never touch C, and are counted in
/// RuntimeStats::rejected rather than submitted.
struct SubmitResult {
  std::optional<std::future<core::GemmResult>> future;
  RejectReason reject = RejectReason::None;
  bool accepted() const { return reject == RejectReason::None; }
};

class GemmRuntime {
 public:
  /// Owns `ro.clusters` engines (plus worker threads) on `mc` machines.
  /// Invalid options (clusters < 1, wide_problem_flops not > 0, ...)
  /// throw ContractViolation.
  explicit GemmRuntime(const RuntimeOptions& ro = {},
                       const isa::MachineConfig& mc = isa::default_machine());

  /// Drains all pending requests, then joins the workers.
  ~GemmRuntime();

  GemmRuntime(const GemmRuntime&) = delete;
  GemmRuntime& operator=(const GemmRuntime&) = delete;

  /// Async submission; the future resolves (or rethrows) on completion.
  /// In functional mode the GemmInput's C view is written by a worker
  /// thread, so it must stay valid and un-aliased until then. Invalid
  /// inputs/options throw ContractViolation here, at submit time; errors
  /// discovered during execution surface through the future. With
  /// resilience enabled, a future that resolves exceptionally leaves C
  /// restored to its pre-submit contents.
  std::future<core::GemmResult> submit(const core::GemmInput& in);
  std::future<core::GemmResult> submit(const core::GemmInput& in,
                                       const core::FtimmOptions& opt);

  /// submit() with a QoS contract (priority class, virtual arrival, cycle
  /// deadline — see qos.hpp). A submission refused by admission control
  /// resolves its future with FaultError(FaultKind::Rejected).
  std::future<core::GemmResult> submit(const core::GemmInput& in,
                                       const core::FtimmOptions& opt,
                                       const QosOptions& qos);

  /// Non-throwing admission path: returns the future, or the typed
  /// RejectReason with no future and no side effects on C. Input-shape
  /// violations still throw ContractViolation (caller bugs, not load).
  SubmitResult try_submit(const core::GemmInput& in);
  SubmitResult try_submit(const core::GemmInput& in,
                          const core::FtimmOptions& opt,
                          const QosOptions& qos = {});

  /// Dispatches every batch the Batcher is still holding, regardless of
  /// triggers. wait_idle() and the destructor call this; tests and
  /// replay drivers use it to end a virtual-time epoch deterministically.
  void flush_batches();

  /// Blocking batch mode: schedules every problem (wide ones occupy whole
  /// clusters, small ones pack one core each across W lanes with DDR
  /// bandwidth shared W ways), waits, and returns the batch
  /// makespan. Resets the simulated clocks first; do not interleave with
  /// async submissions. If any problem fails, the first failure is
  /// rethrown — after every future has resolved, so no work is left in
  /// flight.
  core::BatchResult run_all(std::span<const core::GemmInput> problems);
  core::BatchResult run_all(std::span<const core::GemmInput> problems,
                            const core::FtimmOptions& opt);

  /// Blocks until every submitted request has completed.
  void wait_idle();

  int clusters() const { return static_cast<int>(clusters_.size()); }
  const isa::MachineConfig& machine() const { return mc_; }
  const PlanCache& plans() const { return plans_; }
  /// The shared host TaskPool (see RuntimeOptions::host_threads); nullptr
  /// when host_threads == 1.
  TaskPool* host_pool() const { return host_pool_.get(); }
  core::FtimmEngine& engine(int cluster);

  /// Circuit-breaker state of one cluster (true = quarantined).
  bool quarantined(int cluster) const;

  RuntimeStats stats() const;
  std::vector<RequestStats> request_log() const;
  std::uint64_t makespan_cycles() const;
  void reset_clocks();

  /// Per-cluster utilization/caching/health summary as a reporter table
  /// (print with .print(title) or persist with .write_csv(path)).
  Table report() const;

 private:
  /// Per-cluster circuit breaker (guarded by stats_mu_).
  struct Health {
    int consecutive = 0;     ///< faults since the last success
    bool quarantined = false;
    std::uint64_t failures = 0;     ///< total faults charged to the cluster
    std::uint64_t quarantines = 0;  ///< times the breaker tripped
    std::uint64_t probes = 0;       ///< half-open recovery probes run
    std::chrono::steady_clock::time_point since{};  ///< quarantine start
  };

  struct ClusterState {
    std::unique_ptr<core::FtimmEngine> engine;
    std::vector<std::uint64_t> lanes;  ///< simulated per-core clocks
    std::uint64_t requests = 0;        ///< dispatches (incl. shards/steals)
    Health health;
  };

  /// Where try_submit() sends an admitted request. Wide ones split across
  /// idle clusters; sub-wide Normal/Bulk ones coalesce when batching is
  /// on; the rest bind directly to the least-loaded cluster.
  struct Route {
    enum Kind { Split, Batch, Direct } kind = Direct;
    std::vector<int> targets;  ///< Split: one shard per listed cluster
  };

  /// A RuntimeStats counter field (see count()).
  using Counter = std::uint64_t RuntimeStats::*;

  void flusher_loop();
  /// The batched dispatch: assigns one target cluster, computes the
  /// packing width W, pre-plans once per distinct shape, accounts shared
  /// A/B panels, and enqueues every member.
  void dispatch_batch(Batcher::Flush flush);
  /// Admission control: RejectReason::None, or why this submission must
  /// be refused under the current queue depth / predicted latency.
  RejectReason admit(const core::GemmInput& in,
                     const core::FtimmOptions& opt, const QosOptions& qos);
  /// Predicted simulated latency for admission: lane-frontier backlog
  /// beyond the arrival plus the shape class's EWMA execution cycles.
  std::uint64_t predict_latency_cycles(const QosOptions& qos,
                                       const ShapeClass& cls) const;
  Route route(const core::GemmInput& in, const QosOptions& qos) const;
  void worker_loop(int cluster);
  /// One dispatch: executes, then delivers / retries / falls back / fails.
  void process(int cluster, std::unique_ptr<Request> req, bool stolen);
  core::GemmResult run_on_cluster(int cluster, Request& req,
                                  RequestStats& rs);
  void handle_fault(int cluster, std::unique_ptr<Request> req,
                    std::exception_ptr err, RequestStats& rs);
  /// A request-log row index meaning "append a new row".
  static constexpr std::size_t kNewRow = ~std::size_t{0};
  /// The terminal paths log `rs`, overwriting `row` when the attempt
  /// already has one (a retry push that lost the race with shutdown).
  void run_cpu_fallback(std::unique_ptr<Request> req, RequestStats& rs,
                        std::size_t row = kNewRow);
  void fail(std::unique_ptr<Request> req, std::exception_ptr err,
            RequestStats& rs, std::size_t row = kNewRow);
  void deliver(Request& req, const core::GemmResult& r);
  /// Re-routes a request popped by a quarantined cluster's worker.
  void divert(int cluster, std::unique_ptr<Request> req);
  void probe(int cluster);
  void record_failure(int cluster);
  int pick_retry_target(const Request& req) const;
  void snapshot_c(Request& req) const;
  void restore_c(Request& req) const;
  /// Appends `rs` to the request log, or overwrites row `row` unless it
  /// is kNewRow. Returns the row's index (kNewRow when the log is off).
  std::size_t log_request(const RequestStats& rs, std::size_t row = kNewRow);
  /// Adds `delta` to one counter of counters_ and, unless `traced` is
  /// false, to its trace twin; returns the new value. The only way a
  /// RuntimeStats counter moves, so a field and its trace counter cannot
  /// drift apart. `traced = false` is for values the engine traced itself.
  std::uint64_t count(Counter field, std::uint64_t delta = 1,
                      bool traced = true);
  /// Charges the makespan onto the cluster's lane clocks, starting no
  /// earlier than the request's virtual arrival; returns the finish cycle.
  std::uint64_t charge_lanes(ClusterState& cs, const Request& req,
                             std::uint64_t cycles);
  std::future<core::GemmResult> submit_split(const core::GemmInput& in,
                                             const core::FtimmOptions& opt,
                                             const QosOptions& qos,
                                             const std::vector<int>& targets);
  /// The one request factory: id, host pool, QoS fields, the effective
  /// ABFT integrity (see RuntimeOptions::integrity), shape class and
  /// submit time.
  std::unique_ptr<Request> make_request(const core::GemmInput& in,
                                        const core::FtimmOptions& opt,
                                        const QosOptions& qos);
  void validate(const core::FtimmOptions& opt) const;

  RuntimeOptions ro_;
  isa::MachineConfig mc_;
  /// Shared by all cluster workers' host execution engines and the CPU
  /// fallback; nullptr when host_threads == 1. Declared before workers_
  /// so it outlives them.
  std::unique_ptr<TaskPool> host_pool_;
  std::vector<ClusterState> clusters_;
  RequestQueue queue_;
  PlanCache plans_;
  std::vector<std::thread> workers_;

  /// Coalescing layer (only constructed when ro_.batching.enabled); the
  /// flusher thread fires the age trigger every ~max_delay_ms / 2.
  std::unique_ptr<Batcher> batcher_;
  std::thread flusher_;
  mutable std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  bool flusher_stop_ = false;

  mutable std::mutex stats_mu_;  ///< guards lanes, counters, health, log
  std::uint64_t next_id_ = 0;    ///< last request id handed out
  /// Every scalar RuntimeStats counter; moved only through count(). The
  /// per-cluster vectors stay empty here and are filled by stats().
  RuntimeStats counters_;
  /// EWMA of successful execution cycles per shape class — the execution
  /// estimate of deadline admission (predict_latency_cycles).
  std::map<ShapeClass, double> class_cycles_;
  std::vector<RequestStats> log_;
};

}  // namespace ftm::runtime
