// NodeCluster — 2-D sharded GEMM across N modeled FT-m7032 processors
// (ISSUE 9, docs/scaleout.md).
//
// Each "node" is one fully independent simulated processor: its own
// GemmRuntime (own clusters, GSM, plan cache and kernel cache). Nodes
// are joined by the cost-modeled Interconnect and exchange data only
// through the ring collectives (collectives.hpp).
//
// Sharding: the problem is cut on a *canonical* grid derived from the
// shape alone — M into ceil(m / m_tile_rows) row tiles, K into
// ceil(k / k_panel) panels. The P x Q node grid (P over M, Q over K) only
// decides *where* each (tile, panel) cell executes, never how it is cut.
// Every cell is an independent engine GEMM into a zeroed partial buffer,
// and the final C is accumulated host-side in canonical K-panel order.
// Consequence: the functional result is bit-identical for every node
// count, every grid, and every re-sharding after a node death — the
// acceptance bar for this layer. The ring reduce-scatter/allgather are
// charged for the reduction's modeled cycle cost; their ring-order FP
// accumulation is deliberately not used for C (see docs/scaleout.md
// "Determinism").
//
// Timeline (every phase advances per-node clocks + link clocks):
//   1. input distribution (optional): A blocks point-to-point from the
//      root node, B panels ring-broadcast down each grid column;
//   2. compute: each node run_all()s its cells — the deterministic static
//      batch schedule of the single-processor runtime;
//   3. reduction: per M-tile ring allreduce across its Q panel owners
//      (skipped when Q == 1, where partials go straight into C).
//
// Resilience: a node whose run_all throws ftm::FaultError is marked dead
// and its cells re-shard round-robin onto the survivors (their partial
// buffers are re-zeroed first, so re-execution yields the same bits).
// When no node survives, gemm() throws FaultError(ClusterDead).
//
// Callers reach the grid through gemm() directly; no GemmRuntime routes
// work here, so the dependency runs one way: nodes on runtime.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ftm/fault/fault.hpp"
#include "ftm/nodes/collectives.hpp"
#include "ftm/nodes/interconnect.hpp"
#include "ftm/runtime/runtime.hpp"
#include "ftm/util/reporter.hpp"

namespace ftm::nodes {

struct NodeOptions {
  int nodes = 2;
  /// Node grid: P over M, Q over K. 0 = choose automatically (the P x Q
  /// over the alive nodes minimizing the per-node cell count, ties to the
  /// smaller Q so reduction traffic is the tie-breaker).
  int grid_p = 0;
  int grid_q = 0;
  Topology topology = Topology::Ring;
  LinkConfig link;
  /// Charge cycles for shipping A/B from the root node before compute.
  /// Off models pre-distributed operands (the steady state of iterative
  /// workloads); `ftm_bench nodes` sweeps both.
  bool model_input_distribution = true;
  /// Canonical tile sizes — shape-derived, node-count independent. Both
  /// must stay fixed across runs being compared for bit-identity.
  std::size_t m_tile_rows = 8192;
  std::size_t k_panel = 8192;
  /// Template for every node's runtime. split_wide and batching are
  /// forced off inside nodes (the node layer owns sharding, and run_all
  /// needs the deterministic static schedule); everything else — cluster
  /// count, wide_problem_flops, resilience, host threads — applies per
  /// node.
  runtime::RuntimeOptions runtime;
  isa::MachineConfig machine = isa::default_machine();
  /// Per-node fault injectors (index = node id; missing/nullptr = none).
  /// Non-owning; must outlive the NodeCluster.
  std::vector<fault::FaultInjector*> fault_injectors;
};

/// What one sharded GEMM cost, per phase and per node. The base record's
/// cycles are the makespan over alive nodes (node clock), its dtype and
/// cores the request's, its efficiency against every core of every
/// cluster of the alive nodes, and host_wall_us the whole call.
struct NodeResult : core::GemmResult {
  int grid_p = 0;
  int grid_q = 0;
  int tiles = 0;  ///< canonical M-tiles x K-panels cells
  std::uint64_t input_cycles = 0;    ///< phase 1 makespan
  std::uint64_t compute_cycles = 0;  ///< phase 2 makespan beyond phase 1
  std::uint64_t reduce_cycles = 0;   ///< phase 3 makespan beyond phase 2
  std::uint64_t link_bytes = 0;      ///< bytes put on interconnect links
  std::vector<std::uint64_t> node_cycles;  ///< finish clock per node id
  int node_deaths = 0;      ///< nodes lost during this GEMM
  int resharded_tiles = 0;  ///< cells re-executed on survivors
};

class NodeCluster {
 public:
  explicit NodeCluster(const NodeOptions& no = {});

  NodeCluster(const NodeCluster&) = delete;
  NodeCluster& operator=(const NodeCluster&) = delete;

  /// One sharded GEMM (C += A * B, or timing-only when the views are
  /// empty / opt.functional is false). Serialized internally; throws
  /// FaultError(ClusterDead) when every node is dead.
  NodeResult gemm(const core::GemmInput& in);
  NodeResult gemm(const core::GemmInput& in, const core::FtimmOptions& opt);

  /// Total nodes in the grid (dead or alive).
  int nodes() const { return static_cast<int>(nodes_.size()); }

  /// Marks a node dead (as if its next run_all had faulted).
  void kill_node(int node);
  bool alive(int node) const;
  int alive_nodes() const;

  runtime::GemmRuntime& node(int node);
  const Interconnect& interconnect() const { return net_; }
  const NodeResult& last() const { return last_; }

  /// Per-node utilization summary (cells run, cycles, deaths).
  Table report() const;

 private:
  struct NodeState {
    std::unique_ptr<runtime::GemmRuntime> rt;
    bool alive = true;
    std::uint64_t cells = 0;   ///< cells executed (incl. re-shards)
    std::uint64_t deaths = 0;  ///< total deaths over the cluster lifetime
  };

  std::vector<int> alive_ids() const;

  NodeOptions no_;
  Interconnect net_;
  std::vector<NodeState> nodes_;
  NodeResult last_;
  mutable std::mutex mu_;  ///< serializes gemm(); guards alive flags
};

}  // namespace ftm::nodes
