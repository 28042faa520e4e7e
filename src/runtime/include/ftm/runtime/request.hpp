// The runtime's unit of work and the thread-safe queue that moves it.
//
// RequestQueue keeps one FIFO deque per cluster under a single lock (a
// request costs milliseconds of simulation, so queue contention is
// irrelevant) and implements work stealing in pop(): a worker whose own
// deque is empty takes the *newest* request of the most-loaded other
// cluster — newest because older entries are about to be reached by their
// own worker anyway. Batch members are never stolen: a flushed batch's
// cycle model (lane packing, shared-operand reuse) assumes co-location on
// one cluster, so a victim whose newest entry is a batch member is
// skipped. Load is tracked in flops and includes the request a
// worker is currently executing, so submit-side binding and idle-cluster
// detection see in-flight work, not just queued work.
//
// Quarantine support (ISSUE 3): a cluster can be disabled, which removes
// it from least_loaded()/idle_clusters() binding decisions and makes it
// invisible to work stealing. Its own worker can still pop its deque —
// that is how a quarantined cluster drains already-queued work (the
// runtime re-routes each drained request to a healthy cluster).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "ftm/core/types.hpp"
#include "ftm/runtime/qos.hpp"

namespace ftm::core {
struct GemmPlan;
}

namespace ftm::runtime {

/// Shared completion state of a wide request split across clusters: the
/// last shard to finish resolves the parent promise with the merged
/// result (makespan = max shard cycles, traffic/kernel counts summed).
/// With retries enabled, a faulted shard is re-dispatched to another
/// cluster instead of failing the group; `failed` is only set once a
/// shard exhausts its retries, and late sibling shards then account/exit
/// without touching the already-resolved promise.
struct SplitGroup {
  std::mutex mu;
  std::promise<core::GemmResult> promise;
  int remaining = 0;       ///< shards still running
  int shards = 0;
  double flops = 0;        ///< of the parent problem
  core::GemmResult merged;
  bool failed = false;     ///< a shard already delivered an exception
};

struct Request {
  std::uint64_t id = 0;
  core::GemmInput in;
  core::FtimmOptions opt;
  /// Lanes of the executing cluster this request may occupy: it takes the
  /// opt.cores least-loaded of lanes [0, lane_limit). run_all() sets
  /// lane_limit to the small-phase width W so single-core requests stack
  /// on W lanes exactly like the batched scheduling model.
  int lane_limit = 0;  ///< 0 = opt.cores
  int bound_cluster = -1;
  std::promise<core::GemmResult> promise;     ///< unused when group is set
  std::shared_ptr<SplitGroup> group;          ///< non-null for shards
  std::chrono::steady_clock::time_point submit_time;
  // QoS / coalescing (ISSUE 7, docs/serving.md). A request is a split
  // shard (group) or a batch member (batch) or neither, never both: only
  // sub-wide problems coalesce and only wide ones split.
  Priority priority = Priority::Normal;
  /// Virtual arrival on the lane clocks; execution starts no earlier.
  std::uint64_t arrival_cycle = 0;
  /// Shape class stamped at submit time (from the *caller's* opt.cores,
  /// before any batch repacking) — the coalescing and EWMA key.
  ShapeClass cls;
  /// Non-null for members of a flushed batch. Purely shared bookkeeping:
  /// each member still resolves its own promise and retries alone.
  std::shared_ptr<BatchGroup> batch;
  /// Plan computed once at batch-flush time and shared by every same-shape
  /// member ("one plan lookup"); run_on_cluster uses it and skips the
  /// per-dispatch cache probe.
  std::shared_ptr<const core::GemmPlan> preplanned;
  /// DDR bytes this member's dispatch saves because an earlier batch-mate
  /// already staged the same A/B panel on the target cluster. Cleared on
  /// retry (a re-dispatch lands on a different cluster).
  std::uint64_t reuse_panel_bytes = 0;
  // Resilience bookkeeping (ISSUE 3).
  /// The pending re-dispatch re-executes a block ABFT found damaged.
  bool recompute = false;
  int attempts = 0;          ///< dispatches so far (1 = first execution)
  std::vector<int> tried;    ///< clusters that faulted on this request
  /// Pre-submit contents of the C view (row-major), captured when
  /// resilience is on and the request is functional: C += A*B is not
  /// idempotent, so a retry/fallback must restore C before re-running,
  /// and a failed request must leave C untouched.
  std::vector<float> c_snapshot;
};

class RequestQueue {
 public:
  /// Outcome of a timed pop. Shutdown is only returned once the queue is
  /// stopped *and* the popping cluster's own deque has drained.
  enum class PopResult { Item, Timeout, Shutdown };

  explicit RequestQueue(int clusters);

  /// Enqueues onto `cluster`'s deque and wakes one worker. `front` jumps
  /// the FIFO (Priority::Latency submissions).
  void push(int cluster, std::unique_ptr<Request> r, bool front = false);

  /// Like push, but returns false (leaving `r` untouched) when the queue
  /// has been shut down — used by the retry path, which races shutdown.
  bool try_push(int cluster, std::unique_ptr<Request>& r, bool front = false);

  /// Blocks until work is available for `cluster` (own deque first, then —
  /// when allow_steal — the newest request of the most-loaded enabled
  /// victim) or the queue is shut down *and* fully drained; returns
  /// nullptr only then. The popped request counts toward `cluster`'s
  /// executing load until finished() is called. *stolen reports a
  /// cross-cluster pop.
  std::unique_ptr<Request> pop(int cluster, bool allow_steal, bool* stolen);

  /// pop() with a timeout: quarantined workers use this to alternate
  /// between draining their deque and running recovery probes.
  PopResult pop_wait(int cluster, bool allow_steal,
                     std::chrono::milliseconds timeout,
                     std::unique_ptr<Request>* out, bool* stolen);

  /// Marks a popped request done, releasing its load accounting.
  void finished(int cluster, double flops);

  /// Enabled cluster with the least queued+executing flops; falls back to
  /// the least-loaded cluster overall when every cluster is disabled
  /// (ties -> lowest id).
  int least_loaded() const;

  /// Enabled clusters with no queued and no executing work, in id order.
  std::vector<int> idle_clusters() const;

  /// Quarantine hook: a disabled cluster receives no new bindings and
  /// cannot be stolen from; its own worker may still pop (to drain).
  void set_enabled(int cluster, bool enabled);
  bool enabled(int cluster) const;

  /// Blocks until every deque is empty and no request is executing.
  void wait_idle() const;

  /// After shutdown, workers drain remaining requests and then pop()
  /// returns nullptr. Push is rejected (contract violation; see try_push).
  void shutdown();
  bool stopped() const;

  /// Interruptible sleep for retry backoff: returns true (early) if the
  /// queue is shut down before `d` elapses. Fractional milliseconds are
  /// honored — default backoffs are well under 1 ms.
  bool wait_stop_for(std::chrono::duration<double, std::milli> d) const;

  /// Globally enables/disables stealing (overrides pop's allow_steal).
  /// run_all() suspends stealing so its statically computed schedule is
  /// executed exactly: workers race in host time, not simulated time, so
  /// a steal would move work off the cluster whose lane clocks it was
  /// balanced against.
  void set_stealing(bool enabled);

  std::size_t pending() const;

 private:
  /// Dequeue for `cluster` (own deque, then an enabled steal victim);
  /// returns nullptr when nothing is takeable. Caller holds mu_.
  std::unique_ptr<Request> take_locked(int cluster, bool allow_steal,
                                       bool* stolen);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_work_;   ///< workers wait here
  mutable std::condition_variable cv_idle_;   ///< wait_idle waits here
  std::vector<std::deque<std::unique_ptr<Request>>> qs_;
  std::vector<double> load_flops_;  ///< queued + executing, per cluster
  std::vector<int> executing_;      ///< requests in flight, per cluster
  std::vector<char> disabled_;      ///< quarantined clusters
  bool stop_ = false;
  bool steal_enabled_ = true;
};

}  // namespace ftm::runtime
