// Batcher — the shape-class coalescing buffer of the serving layer
// (ISSUE 7, docs/serving.md).
//
// Coalescible requests (Normal/Bulk priority, below
// RuntimeOptions::wide_problem_flops) are held here, grouped by their
// ShapeClass key plus the plan-affecting FtimmOptions, and flushed
// as one batched dispatch when any trigger fires:
//
//   size     — a class reaches BatchOptions::max_batch (checked in add(),
//              so composition is deterministic under single-threaded
//              submission);
//   pressure — total held requests reach max_held; the largest class
//              flushes (checked in add());
//   age      — a class's oldest member exceeds max_delay_ms (checked by
//              the runtime's flusher thread via take_aged());
//   flush    — explicit drain: GemmRuntime::flush_batches(), wait_idle()
//              and the destructor call take_all().
//
// The Batcher only buffers; the dispatch itself (plan amortization,
// shared-operand accounting, lane packing) is GemmRuntime::dispatch_batch.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "ftm/runtime/qos.hpp"
#include "ftm/runtime/request.hpp"

namespace ftm::runtime {

class Batcher {
 public:
  /// One flushed batch, ready for dispatch; members are in submission
  /// (id) order.
  struct Flush {
    std::vector<std::unique_ptr<Request>> members;
    ShapeClass cls;
    const char* trigger = "";
  };

  explicit Batcher(const BatchOptions& bo);

  /// Buffers `req` under its shape-class key (Request::cls, stamped at
  /// submit time). Returns a batch if the size or pressure trigger fired.
  std::optional<Flush> add(std::unique_ptr<Request> req);

  /// Every class whose oldest member is older than max_delay_ms at `now`.
  std::vector<Flush> take_aged(std::chrono::steady_clock::time_point now);

  /// Drains everything (trigger "flush").
  std::vector<Flush> take_all();

  /// Requests currently held (admission control counts these as queued).
  std::size_t held() const;

 private:
  /// Coalescing key: the shape class plus every FtimmOptions field that
  /// changes planning or execution — requests mixed under one key must be
  /// safely dispatchable with one shared plan policy.
  struct Key {
    ShapeClass cls;
    bool functional = true;
    int force = 0;  ///< core::Strategy as int, to keep the key POD-simple
    bool dynamic_blocks = true;
    bool pingpong = true;

    friend bool operator<(const Key& a, const Key& b) {
      return std::tie(a.cls, a.functional, a.force, a.dynamic_blocks,
                      a.pingpong) < std::tie(b.cls, b.functional, b.force,
                                             b.dynamic_blocks, b.pingpong);
    }
  };

  static Key key_of(const Request& r);
  Flush pop_locked(std::map<Key, std::vector<std::unique_ptr<Request>>>::
                       iterator it,
                   const char* trigger);

  BatchOptions bo_;
  mutable std::mutex mu_;
  std::map<Key, std::vector<std::unique_ptr<Request>>> pending_;
  std::size_t held_ = 0;
};

}  // namespace ftm::runtime
