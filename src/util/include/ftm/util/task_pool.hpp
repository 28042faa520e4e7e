// TaskPool — the one persistent host thread pool, for batch fork-join work.
//
// Built for the host execution engine (docs/performance.md): several
// client threads (the runtime's per-cluster workers) each repeatedly hand
// over a small batch of independent closures and block until their own
// batch has finished; batches from different clients overlap freely on
// the same workers. The host CPU GEMM (cpu::cpu_gemm, the runtime's CPU
// fallback and the Fig. 7 baseline) hands over one row chunk per thread
// the same way, and so does the graph executor for its host-side passes
// (im2col, elementwise nodes, GEMM output zeroing).
//
// The calling thread always participates: a pool constructed with
// parallelism P spawns P-1 workers, so TaskPool(1) spawns no threads and
// run_batch degenerates to a plain sequential loop. Batches are published
// as shared_ptrs so a worker that still holds a reference after the
// client returned cannot dangle.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ftm {

class TaskPool {
 public:
  /// `parallelism` = total threads working a batch, caller included;
  /// 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit TaskPool(unsigned parallelism = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Caller thread + workers, i.e. the max tasks in flight at once.
  unsigned parallelism() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs every task (in unspecified order, concurrently) and returns
  /// once all of them finished. The caller executes tasks too, so the
  /// call makes progress even with zero workers. Tasks must not call
  /// run_batch on the same pool. Safe to call from several threads at
  /// once; each call waits only for its own batch. Exceptions thrown by
  /// tasks are std::terminate — the engine's closures never throw.
  void run_batch(std::vector<std::function<void()>> tasks);

 private:
  struct Batch {
    std::vector<std::function<void()>> tasks;
    std::size_t next = 0;  ///< guarded by the pool mutex
    std::size_t done = 0;  ///< guarded by the pool mutex
  };

  void worker_loop();
  /// Claims and runs tasks of `b` until none are left unclaimed.
  void drain(const std::shared_ptr<Batch>& b, std::unique_lock<std::mutex>& lk);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a batch has tasks
  std::condition_variable done_cv_;  ///< clients: some batch completed
  std::vector<std::shared_ptr<Batch>> active_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ftm
