#include "ftm/nodes/interconnect.hpp"

#include <algorithm>
#include <cmath>

#include "ftm/util/assert.hpp"

namespace ftm::nodes {

const char* to_string(Topology t) {
  switch (t) {
    case Topology::Ring: return "ring";
    case Topology::FullMesh: return "full-mesh";
  }
  return "?";
}

Interconnect::Interconnect(int nodes, Topology topology, LinkConfig link)
    : nodes_(nodes), topology_(topology), link_(link) {
  FTM_EXPECTS(nodes >= 1);
  FTM_EXPECTS(link.bytes_per_cycle > 0);
}

int Interconnect::hops(int src, int dst) const {
  FTM_EXPECTS(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_);
  if (src == dst) return 0;
  if (topology_ == Topology::FullMesh) return 1;
  const int fwd = (dst - src + nodes_) % nodes_;
  return std::min(fwd, nodes_ - fwd);
}

std::uint64_t Interconnect::hop_cost(std::uint64_t bytes) const {
  const auto transfer = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(bytes) / link_.bytes_per_cycle));
  return link_.latency_cycles + transfer;
}

int Interconnect::ring_next(int src, int dst) const {
  const int fwd = (dst - src + nodes_) % nodes_;
  // Shorter direction wins; ties go forward so routing is deterministic.
  return fwd <= nodes_ - fwd ? (src + 1) % nodes_
                             : (src + nodes_ - 1) % nodes_;
}

std::uint64_t& Interconnect::link_clock(int src, int dst) {
  return clocks_[{src, dst}];
}

std::uint64_t Interconnect::send(int src, int dst, std::uint64_t bytes,
                                 std::uint64_t start) {
  FTM_EXPECTS(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_);
  if (src == dst || bytes == 0) return start;
  total_bytes_ += bytes;
  std::uint64_t t = start;
  int at = src;
  // Store-and-forward: each hop waits for both the previous hop's data
  // and the link to go idle, then holds the link for the full cost.
  while (at != dst) {
    const int next =
        topology_ == Topology::FullMesh ? dst : ring_next(at, dst);
    std::uint64_t& busy = link_clock(at, next);
    const std::uint64_t begin = std::max(t, busy);
    t = begin + hop_cost(bytes);
    busy = t;
    at = next;
  }
  return t;
}

void Interconnect::reset_clocks() { clocks_.clear(); }

}  // namespace ftm::nodes
