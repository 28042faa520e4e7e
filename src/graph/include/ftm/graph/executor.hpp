// Graph executor: per-node dispatch through the existing runtime
// (ISSUE 6, docs/graph.md).
//
// Executes a planned Graph node by node in topo order. GEMM nodes go
// through GemmRuntime::submit(), so they reuse everything the runtime
// already has — the shape-keyed plan cache, the fault/retry/fallback
// resilience path, and the shared host TaskPool. Elementwise nodes
// (add/ReLU/bias) run on the host-SIMD primitives with a deterministic
// bandwidth-bound cycle model; im2col is the gather loop with the same
// treatment.
//
// Host execution: every host-side pass — the im2col gather, the
// elementwise nodes and the zeroing of each GEMM output — runs as
// contiguous row chunks, one per thread of the same TaskPool the GEMM
// nodes use (FtimmOptions::host_pool if set, else the runtime's), and
// inline when there is no pool or the pass writes under 256 KiB. Each
// row is computed exactly as in a serial pass, so C bits, simulated
// cycles, node order and trace spans do not depend on the pool size.
// NodeStats::host_us times every node, with or without a trace session.
//
// Accounting: every node's DDR traffic is taken from the engine (GEMM) or
// the elementwise byte model, then reduced by the bytes the memory plan
// keeps scratchpad-resident — the executor reports both the planned and
// the unplanned totals, and emits graph.* trace spans/counters (notably
// graph.ddr_bytes_saved) so a trace capture shows exactly the DDR traffic
// residency deletes. Chains execute serially (each node waits for its
// inputs), so graph cycles are the sum of node cycles; C bytes are
// bit-identical to running the same ops as separate engine calls because
// dispatch, blocking, and accumulation order are untouched.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ftm/core/types.hpp"
#include "ftm/graph/graph.hpp"
#include "ftm/graph/planner.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/util/matrix.hpp"

namespace ftm::graph {

struct GraphOptions {
  core::FtimmOptions gemm;  ///< options for every GEMM node submission
  PlannerOptions planner;
};

/// Caller-bound views for the graph's external tensors. Inputs must cover
/// every external tensor; outputs every tensor passed to mark_output().
/// Shapes are validated against the graph at run() time.
class Bindings {
 public:
  Bindings& bind_input(TensorId t, ConstMatrixView v);
  Bindings& bind_output(TensorId t, MatrixView v);

  const ConstMatrixView* find_input(TensorId t) const;
  const MatrixView* find_output(TensorId t) const;

 private:
  std::map<TensorId, ConstMatrixView> inputs_;
  std::map<TensorId, MatrixView> outputs_;
};

/// Per-node cost/traffic breakdown (NodeStats order == plan execution
/// order).
struct NodeStats {
  NodeId node = -1;
  OpKind kind = OpKind::Gemm;
  std::uint64_t cycles = 0;
  std::uint64_t ddr_bytes = 0;           ///< after residency
  std::uint64_t ddr_bytes_unplanned = 0; ///< all-DDR model of the same node
  core::Strategy strategy = core::Strategy::Auto;  ///< GEMM nodes only
  /// Host wall time of the node (steady_clock): the host pass, or the
  /// GEMM output zeroing plus submit-to-future for a GEMM node.
  double host_us = 0;
};

struct GraphResult {
  std::uint64_t cycles = 0;   ///< sum over nodes (chains are serial)
  double seconds = 0;
  std::uint64_t ddr_bytes = 0;
  std::uint64_t ddr_bytes_unplanned = 0;
  std::uint64_t ddr_bytes_saved = 0;  ///< unplanned - planned
  double host_wall_us = 0;
  std::size_t nodes = 0;
  std::size_t gemm_nodes = 0;
  std::vector<NodeStats> node_stats;
};

class GraphExecutor {
 public:
  /// Borrows the runtime (non-owning; must outlive the executor).
  explicit GraphExecutor(runtime::GemmRuntime& rt, GraphOptions opt = {});

  /// Plans and executes `g`. Intermediate buffers are allocated per run
  /// (aliased tensors share storage per the plan); GEMM outputs are
  /// zeroed first, so node semantics are C = A*B, not C += A*B. Throws
  /// ContractViolation on unbound/mis-shaped bindings or invalid graphs;
  /// faults injected under a node surface exactly as they do for a
  /// direct runtime submission (retried/failed per ResilienceOptions).
  GraphResult run(const Graph& g, const Bindings& bind);

  /// The memory plan of the last run() (empty before the first).
  const MemoryPlan& last_plan() const { return plan_; }

  runtime::GemmRuntime& runtime() { return rt_; }

 private:
  runtime::GemmRuntime& rt_;
  GraphOptions opt_;
  MemoryPlan plan_;
};

}  // namespace ftm::graph
