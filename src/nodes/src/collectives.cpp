#include "ftm/nodes/collectives.hpp"

#include <algorithm>

#include "ftm/trace/trace.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::nodes {
namespace {

void validate(const Group& g, std::span<std::uint64_t> clocks,
              std::uint64_t bytes) {
  FTM_EXPECTS(g.size() >= 1);
  FTM_EXPECTS(bytes % 4 == 0);
  for (const int r : g.ranks) {
    FTM_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < clocks.size());
  }
}

std::uint64_t group_max_clock(const Group& g,
                              std::span<std::uint64_t> clocks) {
  std::uint64_t mx = 0;
  for (const int r : g.ranks) {
    mx = std::max(mx, clocks[static_cast<std::size_t>(r)]);
  }
  return mx;
}

/// Bytes of chunk `c` when the 4-byte elements of `bytes` are split into
/// `p` chunks (remainder spread over the leading chunks).
std::uint64_t chunk_bytes(std::uint64_t bytes, int p, int c) {
  const std::uint64_t elems = bytes / 4;
  const auto up = static_cast<std::uint64_t>(p);
  const std::uint64_t extra = static_cast<std::uint64_t>(c) < elems % up;
  return 4 * (elems / up + extra);
}

/// One ring pass of P-1 steps (P > 1): in step s, rank i sends chunk
/// (i - s + offset) mod P to rank i+1. Offset 0 is the reduce-scatter;
/// offset 1 is the allgather after it, where each rank starts from the
/// chunk it holds fully reduced. `counter` names the pass in the trace.
CollectiveResult ring_pass(Interconnect& net,
                           std::span<std::uint64_t> clocks, const Group& g,
                           std::uint64_t bytes, int offset,
                           const char* counter) {
  const int p = g.size();
  CollectiveResult res;
  std::vector<std::uint64_t> next(static_cast<std::size_t>(p), 0);
  for (int s = 0; s < p - 1; ++s) {
    // All p sends of a step run concurrently on disjoint ring links; a
    // rank's next step starts once its own receive has landed.
    for (int i = 0; i < p; ++i) {
      const std::uint64_t len =
          chunk_bytes(bytes, p, (i - s + offset + 2 * p) % p);
      const int to_rank = (i + 1) % p;
      const int from = g.ranks[static_cast<std::size_t>(i)];
      const int to = g.ranks[static_cast<std::size_t>(to_rank)];
      const std::uint64_t begin =
          std::max(clocks[static_cast<std::size_t>(from)],
                   clocks[static_cast<std::size_t>(to)]);
      next[static_cast<std::size_t>(to_rank)] =
          net.send(from, to, len, begin);
      res.link_bytes += len;
    }
    for (int i = 0; i < p; ++i) {
      clocks[static_cast<std::size_t>(g.ranks[static_cast<std::size_t>(
          i)])] = next[static_cast<std::size_t>(i)];
    }
    ++res.steps;
  }
  res.finish = group_max_clock(g, clocks);
  FTM_TRACE_COUNTER(counter, 1);
  FTM_TRACE_COUNTER("collective.bytes", res.link_bytes);
  FTM_TRACE_COUNTER("collective.steps", res.steps);
  return res;
}

}  // namespace

CollectiveResult ring_broadcast(Interconnect& net,
                                std::span<std::uint64_t> clocks,
                                const Group& g, int root_rank,
                                std::uint64_t bytes) {
  validate(g, clocks, bytes);
  const int p = g.size();
  FTM_EXPECTS(root_rank >= 0 && root_rank < p);
  CollectiveResult res;
  if (p == 1) {
    res.finish = clocks[static_cast<std::size_t>(g.ranks[0])];
    return res;
  }
  // Relay around the ring in rank order: root -> root+1 -> ... Each hop
  // forwards the full payload once it has arrived.
  std::uint64_t t =
      clocks[static_cast<std::size_t>(g.ranks[static_cast<std::size_t>(
          root_rank)])];
  for (int i = 1; i < p; ++i) {
    const int from = g.ranks[static_cast<std::size_t>((root_rank + i - 1) %
                                                      p)];
    const int to =
        g.ranks[static_cast<std::size_t>((root_rank + i) % p)];
    const std::uint64_t begin =
        std::max(t, clocks[static_cast<std::size_t>(to)]);
    t = net.send(from, to, bytes, begin);
    clocks[static_cast<std::size_t>(to)] = t;
    res.link_bytes += bytes;
    ++res.steps;
  }
  res.finish = group_max_clock(g, clocks);
  FTM_TRACE_COUNTER("collective.broadcast", 1);
  FTM_TRACE_COUNTER("collective.bytes", res.link_bytes);
  FTM_TRACE_COUNTER("collective.steps", res.steps);
  return res;
}

CollectiveResult ring_allreduce(Interconnect& net,
                                std::span<std::uint64_t> clocks,
                                const Group& g, std::uint64_t bytes) {
  validate(g, clocks, bytes);
  CollectiveResult res;
  if (g.size() == 1) {
    res.finish = clocks[static_cast<std::size_t>(g.ranks[0])];
  } else {
    const CollectiveResult rs = ring_pass(net, clocks, g, bytes, 0,
                                          "collective.reduce_scatter");
    const CollectiveResult ag =
        ring_pass(net, clocks, g, bytes, 1, "collective.allgather");
    res.finish = ag.finish;
    res.link_bytes = rs.link_bytes + ag.link_bytes;
    res.steps = rs.steps + ag.steps;
  }
  FTM_TRACE_COUNTER("collective.allreduce", 1);
  return res;
}

}  // namespace ftm::nodes
