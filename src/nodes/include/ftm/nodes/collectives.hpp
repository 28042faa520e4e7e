// Ring collectives over the modeled interconnect (ISSUE 9,
// docs/scaleout.md): broadcast and allreduce.
//
// The collectives are cost-only. Each schedules every constituent
// transfer on the Interconnect's per-link busy clocks and advances the
// participating nodes' clocks, so the cycle cost of a collective reflects
// link serialization, multi-hop routes, and stragglers (a group member
// whose clock is behind delays the steps it takes part in). No data
// moves: the GEMM sharder (scaleout.hpp) assembles C on the host, folding
// K-panel partials in canonical cell order, so C's bits never depend on
// node count, grid or ring positions (docs/scaleout.md "Determinism").
//
// Algorithms (P = group size, B = buffer bytes):
//  * broadcast: unpipelined ring relay, P-1 sequential full-payload hops;
//  * allreduce: the bandwidth-optimal ring, a reduce-scatter followed by
//    an allgather. The reduce-scatter takes P-1 steps; in step s, rank i
//    sends chunk (i - s) mod P to rank i+1, so chunk c ends fully reduced
//    on rank (c + P - 1) mod P. The allgather then takes P-1 more steps
//    in which rank i forwards chunk (i - s + 1) mod P. Each rank moves
//    ~B/P bytes per step: 2(P-1) steps, 2B(P-1)/P bytes per rank. B is
//    split into P chunks of 4-byte elements, the remainder spread over
//    the leading chunks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ftm/nodes/interconnect.hpp"

namespace ftm::nodes {

/// An ordered subset of nodes participating in one collective; the vector
/// order *is* the ring order (rank r's neighbor is rank (r+1) % P).
struct Group {
  std::vector<int> ranks;  ///< physical node ids

  int size() const { return static_cast<int>(ranks.size()); }
};

/// What one collective cost. `finish` is the max participant clock after
/// the collective; `link_bytes` counts every byte put on a link (so a
/// broadcast of B bytes to P-1 peers reports (P-1)*B).
struct CollectiveResult {
  std::uint64_t finish = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t steps = 0;
};

/// Ring relay broadcast of `bytes` (a multiple of 4) from `root_rank` (an
/// index into g.ranks) to every other member. Advances `clocks` (indexed
/// by physical node id) and the interconnect's link clocks.
CollectiveResult ring_broadcast(Interconnect& net,
                                std::span<std::uint64_t> clocks,
                                const Group& g, int root_rank,
                                std::uint64_t bytes);

/// Ring allreduce of a buffer of `bytes` (a multiple of 4): reduce-scatter
/// then allgather, with the same clock effects as ring_broadcast.
CollectiveResult ring_allreduce(Interconnect& net,
                                std::span<std::uint64_t> clocks,
                                const Group& g, std::uint64_t bytes);

}  // namespace ftm::nodes
