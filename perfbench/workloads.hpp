// The three perfbench workloads (see NOTES.md for why each exists):
//
//   model_sweep  timing-only engine, dgemm and node-tier calls, one at a
//                time: the cost model as a research tool;
//   serve_mixed  functional GemmRuntime::submit traffic, a window of nproc
//                outstanding requests over the paper's application shapes;
//   graph_chain  one functional GraphExecutor::run at a time over an MLP
//                and an im2col conv chain.
//
// Each workload owns a seeded *epoch*: a fixed multiset of calls whose
// order comes from the seed. The run repeats the epoch until its time is
// up, so the simulated totals of the first epoch are a pure function of
// the seed (sim_gflops is computed from them) and every later epoch must
// reproduce the first one's per-call cycles exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ftm/trace/counters.hpp"
#include "harness.hpp"

namespace pb {

struct Config {
  std::uint64_t seed = 1;
  /// Shrunken shapes for the self-test; never used by the benchmark runs.
  bool tiny = false;
  /// Self-test hook: damage the output of the call with this sequence
  /// number before it is checked, so the check must count it as failed.
  std::optional<std::size_t> corrupt_seq;
};

/// Everything one run collects: the calls in completion order plus the
/// traced run's spans (spans == nullptr while tracing is off).
struct Recorder {
  std::vector<Call> calls;
  SpanLog* spans = nullptr;
  std::size_t next_seq = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Kind indices of one epoch, in the seeded order.
  const std::vector<int>& epoch() const { return epoch_; }
  virtual std::string kind_label(int kind) const = 0;

  /// Constructs the engines/runtime/node clusters and runs every distinct
  /// call of the epoch once (kernel generation, calibration, first
  /// plans). Timed as setup_s. Inputs and references are built by the
  /// constructor, outside this window.
  virtual void setup() = 0;
  /// Destroys what setup() built.
  virtual void teardown() = 0;
  /// Issues calls until `until` has passed and at least `min_calls` have
  /// completed; every call is appended to `rec.calls`.
  virtual void run(Clock::time_point until, std::size_t min_calls,
                   Recorder& rec) = 0;
  /// Per-layer metrics and reconciliation residuals of the traced run.
  /// `tc` holds the library's trace counters of the traced calls.
  virtual void layers(const Recorder& rec,
                      const ftm::trace::CounterRegistry& tc, LayerTable& t,
                      std::vector<Residual>& res) = 0;

 protected:
  std::vector<int> epoch_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& cfg);
const std::vector<std::string>& workload_names();

/// Seeded shuffle of a quota table: kind i appears quota[i] times.
std::vector<int> shuffled_epoch(const std::vector<int>& quota,
                                std::uint64_t seed);

}  // namespace pb
