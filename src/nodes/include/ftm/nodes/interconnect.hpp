// Cost-modeled inter-processor interconnect (ISSUE 9, docs/scaleout.md).
//
// The FT-m7032 tree this repo simulates tops out at one processor (four
// GPDSP clusters). The scale-out layer models N such processors ("nodes")
// joined by point-to-point links with a latency + bandwidth cost, the
// alpha-beta model: moving B bytes over one link costs
//
//   latency_cycles + ceil(B / bytes_per_cycle)   cycles (DSP core clock)
//
// Each *directed* link keeps its own busy-until clock, so two transfers
// that share a link serialize while transfers on disjoint links overlap —
// exactly how the sim models the per-core DMA engines one level down.
// Multi-hop routes (ring topology) are store-and-forward: hop h+1 starts
// when hop h finishes. Everything is integer-cycle deterministic; there
// is no randomness and no host-time dependence anywhere in this layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace ftm::nodes {

/// One directed link's cost parameters. The default is a deliberately
/// DDR-class interconnect (16 B/cycle = 28.8 GB/s at 1.8 GHz, ~1 us
/// latency): slower than the on-chip GSM crossbar by an order of
/// magnitude, which is what makes the collectives a modeled cost worth
/// measuring rather than a free merge. `ftm_bench nodes` sweeps both
/// knobs.
struct LinkConfig {
  double bytes_per_cycle = 16.0;
  std::uint64_t latency_cycles = 1800;
};

/// Physical arrangement of the nodes. Ring is the paper-adjacent default
/// (the ring collectives map onto it hop-for-hop); FullMesh gives every
/// ordered pair its own link (an upper bound useful in ablations).
enum class Topology {
  Ring,
  FullMesh,
};

const char* to_string(Topology t);

/// Per-directed-link busy clocks plus the alpha-beta transfer cost model.
class Interconnect {
 public:
  Interconnect(int nodes, Topology topology, LinkConfig link);

  int nodes() const { return nodes_; }
  Topology topology() const { return topology_; }
  const LinkConfig& link() const { return link_; }

  /// Hops between two nodes: ring distance (shorter direction) on Ring,
  /// 1 on FullMesh, 0 when src == dst.
  int hops(int src, int dst) const;

  /// Pure cost formula for one hop, no link-state side effects.
  std::uint64_t hop_cost(std::uint64_t bytes) const;

  /// Schedules a transfer of `bytes` from src to dst starting no earlier
  /// than `start`; occupies every link on the route and returns the
  /// finish cycle. src == dst returns `start` (no transfer).
  std::uint64_t send(int src, int dst, std::uint64_t bytes,
                     std::uint64_t start);

  /// Clears all link clocks (a new modeled job) but keeps the totals.
  void reset_clocks();

  /// Bytes sent so far, across reset_clocks.
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  /// Busy-until clock of the directed link src -> dst; creates it at 0.
  std::uint64_t& link_clock(int src, int dst);
  /// Next node on the ring route from src toward dst (shorter side).
  int ring_next(int src, int dst) const;

  int nodes_;
  Topology topology_;
  LinkConfig link_;
  std::map<std::pair<int, int>, std::uint64_t> clocks_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace ftm::nodes
