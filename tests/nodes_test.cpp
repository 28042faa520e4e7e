// Multi-node scale-out layer (ISSUE 9, docs/scaleout.md): interconnect
// cost model, the ring collectives' cost (including non-power-of-two
// groups, pinned bit for bit), the 2-D sharder's bit-identity guarantee,
// and node-death re-sharding.
#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "ftm/nodes/collectives.hpp"
#include "ftm/nodes/interconnect.hpp"
#include "ftm/nodes/scaleout.hpp"
#include "ftm/trace/trace.hpp"
#include "ftm/workload/generators.hpp"

using namespace ftm;
using core::FtimmOptions;
using core::GemmInput;

namespace {

/// Host reference C += A*B with double accumulation.
void reference_gemm(const workload::GemmProblem& p, MatrixView c) {
  for (std::size_t i = 0; i < p.m; ++i) {
    for (std::size_t j = 0; j < p.n; ++j) {
      double acc = c(i, j);
      for (std::size_t l = 0; l < p.k; ++l) {
        acc += static_cast<double>(p.a.at(i, l)) *
               static_cast<double>(p.b.at(l, j));
      }
      c(i, j) = static_cast<float>(acc);
    }
  }
}

nodes::Group group_of(int p) {
  nodes::Group g;
  g.ranks.resize(static_cast<std::size_t>(p));
  std::iota(g.ranks.begin(), g.ranks.end(), 0);
  return g;
}

}  // namespace

// ---- interconnect -------------------------------------------------------

TEST(Interconnect, AlphaBetaHopCost) {
  nodes::LinkConfig link;
  link.bytes_per_cycle = 16.0;
  link.latency_cycles = 100;
  nodes::Interconnect net(4, nodes::Topology::Ring, link);
  EXPECT_EQ(net.hop_cost(0), 100u);
  EXPECT_EQ(net.hop_cost(16), 101u);
  EXPECT_EQ(net.hop_cost(17), 102u);  // partial beat rounds up
}

TEST(Interconnect, RingHopsTakeShorterDirection) {
  nodes::Interconnect net(6, nodes::Topology::Ring, {});
  EXPECT_EQ(net.hops(0, 0), 0);
  EXPECT_EQ(net.hops(0, 1), 1);
  EXPECT_EQ(net.hops(0, 5), 1);  // backward is shorter
  EXPECT_EQ(net.hops(0, 3), 3);  // antipode
  nodes::Interconnect mesh(6, nodes::Topology::FullMesh, {});
  EXPECT_EQ(mesh.hops(0, 3), 1);
}

TEST(Interconnect, SharedLinkSerializesTransfers) {
  nodes::LinkConfig link;
  link.bytes_per_cycle = 1.0;
  link.latency_cycles = 10;
  nodes::Interconnect net(4, nodes::Topology::Ring, link);
  const std::uint64_t t1 = net.send(0, 1, 100, 0);
  EXPECT_EQ(t1, 110u);
  // Same directed link, same start: must queue behind the first.
  const std::uint64_t t2 = net.send(0, 1, 100, 0);
  EXPECT_EQ(t2, 220u);
  // Disjoint link: no interference.
  EXPECT_EQ(net.send(2, 3, 100, 0), 110u);
  // Multi-hop (0 -> 1 -> 2) store-and-forward: the 0->1 link is busy
  // until 220, then two hops of 110 each.
  EXPECT_EQ(net.send(0, 2, 100, 0), 440u);
  EXPECT_EQ(net.total_bytes(), 400u);  // a multi-hop send counts once
}

// ---- collectives --------------------------------------------------------

TEST(Collectives, BroadcastRelaysDataAroundRing) {
  nodes::Interconnect net(5, nodes::Topology::Ring, {});
  std::vector<std::uint64_t> clocks(5, 0);
  const nodes::Group g = group_of(5);
  const auto r = nodes::ring_broadcast(net, clocks, g, 2, 32);
  EXPECT_EQ(r.steps, 4u);
  EXPECT_EQ(r.link_bytes, 4u * 32u);
  EXPECT_GT(r.finish, 0u);
  // The payload travels root -> root+1 -> ...: each hop lands later.
  for (int i = 1; i < 5; ++i) {
    EXPECT_GT(clocks[static_cast<std::size_t>((2 + i) % 5)],
              clocks[static_cast<std::size_t>((1 + i) % 5)]);
  }
  EXPECT_EQ(r.finish, clocks[1]);
}

TEST(Collectives, ReduceScatterMatchesReferenceNonPowerOfTwo) {
  // The allreduce's reduce-scatter pass: P-1 steps in which every rank
  // sends one chunk, so each step moves the whole buffer once.
  for (const int p : {3, 5, 7}) {
    nodes::Interconnect net(p, nodes::Topology::Ring, {});
    std::vector<std::uint64_t> clocks(static_cast<std::size_t>(p), 0);
    const std::uint64_t bytes = static_cast<std::uint64_t>(16 * p);
    trace::TraceSession session;
    session.start();
    const auto r = nodes::ring_allreduce(net, clocks, group_of(p), bytes);
    session.stop();
    const auto steps = static_cast<std::uint64_t>(p - 1);
    EXPECT_EQ(session.counters().value("collective.reduce_scatter"), 1u);
    EXPECT_EQ(r.steps, 2 * steps) << "p=" << p;
    EXPECT_EQ(r.link_bytes, 2 * steps * bytes) << "p=" << p;
    EXPECT_EQ(session.counters().value("collective.steps"), r.steps);
    EXPECT_EQ(session.counters().value("collective.bytes"), r.link_bytes);
  }
}

TEST(Collectives, AllgatherDistributesEveryChunk) {
  // The allgather pass follows the reduce-scatter: one count each, and
  // its last step lands a chunk on every rank.
  const int p = 5;
  nodes::Interconnect net(p, nodes::Topology::Ring, {});
  std::vector<std::uint64_t> clocks(static_cast<std::size_t>(p), 0);
  trace::TraceSession session;
  session.start();
  const auto r = nodes::ring_allreduce(net, clocks, group_of(p), 80);
  session.stop();
  EXPECT_EQ(r.steps, static_cast<std::uint64_t>(2 * (p - 1)));
  EXPECT_EQ(session.counters().value("collective.allgather"), 1u);
  EXPECT_EQ(session.counters().value("collective.allreduce"), 1u);
  for (const std::uint64_t c : clocks) EXPECT_GT(c, 0u);
  EXPECT_EQ(r.finish, *std::max_element(clocks.begin(), clocks.end()));
}

TEST(Collectives, AllreduceSumsEverywhereNonPowerOfTwo) {
  for (const int p : {2, 3, 5}) {
    nodes::Interconnect net(p, nodes::Topology::Ring, {});
    std::vector<std::uint64_t> clocks(static_cast<std::size_t>(p), 0);
    const std::uint64_t bytes = static_cast<std::uint64_t>(24 * p);
    const auto r = nodes::ring_allreduce(net, clocks, group_of(p), bytes);
    EXPECT_EQ(r.steps, static_cast<std::uint64_t>(2 * (p - 1)));
    EXPECT_EQ(r.link_bytes, static_cast<std::uint64_t>(2 * (p - 1)) * bytes);
  }
}

TEST(Collectives, StragglerDelaysGroup) {
  nodes::Interconnect net(3, nodes::Topology::Ring, {});
  std::vector<std::uint64_t> clocks = {0, 500000, 0};
  const auto r =
      nodes::ring_allreduce(net, clocks, group_of(3), 1024);
  EXPECT_GT(r.finish, 500000u);  // the late member gates completion
}

TEST(Collectives, CostMatchesPinnedConstants) {
  // Each case runs, on one interconnect: a 404-byte broadcast from rank 0,
  // a 40004-byte broadcast from rank P-1, then a 40004-byte allreduce.
  // 40004 bytes is 10001 floats, which no P > 1 here divides, so every
  // ring step carries remainder chunks. The constants pin the cost model
  // bit for bit: results and the final per-node clocks.
  struct Cost {
    std::uint64_t finish, link_bytes, steps;
  };
  struct Case {
    nodes::Topology topo;
    int nodes;
    std::vector<int> ranks;  // the group, in ring order
    std::vector<std::uint64_t> start;
    Cost bcast_first, bcast_last, allreduce;
    std::vector<std::uint64_t> end;
  };
  using nodes::Topology;
  const std::vector<std::uint64_t> z7(7, 0);
  // One case per block, its three costs on one row.
  // clang-format off
  const std::vector<Case> cases = {
      {Topology::Ring, 1, {0}, {0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0}},
      {Topology::Ring, 2, {0, 1}, {0, 0},
       {1826, 404, 1}, {6127, 40004, 1}, {12229, 80008, 2},
       {12229, 12228}},
      {Topology::Ring, 3, {0, 1, 2}, {0, 0, 0},
       {3652, 808, 2}, {12254, 80008, 2}, {22790, 160016, 4},
       {22790, 22790, 22790}},
      {Topology::Ring, 5, {0, 1, 2, 3, 4}, {0, 0, 0, 0, 0},
       {7304, 1616, 4}, {24508, 160016, 4}, {42914, 320032, 8},
       {42911, 42912, 42913, 42914, 42910}},
      {Topology::Ring, 7, {0, 1, 2, 3, 4, 5, 6}, z7,
       {10956, 2424, 6}, {36762, 240024, 6}, {62658, 480048, 12},
       {62658, 62658, 62658, 62656, 62657, 62658, 62658}},
      {Topology::FullMesh, 1, {0}, {0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0},
       {0}},
      {Topology::FullMesh, 2, {0, 1}, {0, 0},
       {1826, 404, 1}, {6127, 40004, 1}, {12229, 80008, 2},
       {12229, 12228}},
      {Topology::FullMesh, 3, {0, 1, 2}, {0, 0, 0},
       {3652, 808, 2}, {12254, 80008, 2}, {22790, 160016, 4},
       {22790, 22790, 22790}},
      {Topology::FullMesh, 5, {0, 1, 2, 3, 4}, {0, 0, 0, 0, 0},
       {7304, 1616, 4}, {24508, 160016, 4}, {42914, 320032, 8},
       {42911, 42912, 42913, 42914, 42910}},
      {Topology::FullMesh, 7, {0, 1, 2, 3, 4, 5, 6}, z7,
       {10956, 2424, 6}, {36762, 240024, 6}, {62658, 480048, 12},
       {62658, 62658, 62658, 62656, 62657, 62658, 62658}},
      // A sparse group: multi-hop routes on the ring, one hop on the mesh.
      {Topology::Ring, 7, {5, 1, 3}, z7,
       {9130, 808, 2}, {30635, 80008, 2}, {62243, 160016, 4},
       {0, 62243, 0, 59609, 0, 56975, 0}},
      {Topology::FullMesh, 7, {5, 1, 3}, z7,
       {3652, 808, 2}, {12254, 80008, 2}, {22790, 160016, 4},
       {0, 22790, 0, 22790, 0, 22790, 0}},
      // Stragglers: a late member gates every step it takes part in.
      {Topology::Ring, 3, {0, 1, 2}, {0, 500000, 0},
       {503652, 808, 2}, {512254, 80008, 2}, {522790, 160016, 4},
       {522790, 522790, 522790}},
      {Topology::FullMesh, 5, {0, 1, 2, 3, 4}, {0, 0, 0, 0, 300000},
       {301826, 1616, 4}, {319030, 160016, 4}, {337436, 320032, 8},
       {337433, 337434, 337435, 337436, 337432}},
  };
  // clang-format on
  const auto expect_cost = [](const nodes::CollectiveResult& got,
                              const Cost& want, const char* what,
                              std::size_t i) {
    EXPECT_EQ(got.finish, want.finish) << what << " case " << i;
    EXPECT_EQ(got.link_bytes, want.link_bytes) << what << " case " << i;
    EXPECT_EQ(got.steps, want.steps) << what << " case " << i;
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    nodes::Interconnect net(c.nodes, c.topo, {});
    std::vector<std::uint64_t> clocks = c.start;
    nodes::Group g;
    g.ranks = c.ranks;
    expect_cost(nodes::ring_broadcast(net, clocks, g, 0, 404),
                c.bcast_first, "broadcast root 0", i);
    expect_cost(nodes::ring_broadcast(net, clocks, g, g.size() - 1, 40004),
                c.bcast_last, "broadcast root P-1", i);
    expect_cost(nodes::ring_allreduce(net, clocks, g, 40004), c.allreduce,
                "allreduce", i);
    EXPECT_EQ(clocks, c.end) << "case " << i;
  }
}

// ---- sharder ------------------------------------------------------------

namespace {

nodes::NodeOptions small_options(int n) {
  nodes::NodeOptions no;
  no.nodes = n;
  no.m_tile_rows = 32;
  no.k_panel = 48;
  no.runtime.clusters = 2;
  return no;
}

}  // namespace

TEST(NodeCluster, BitIdenticalAcrossNodeCounts) {
  // Multi-tile canonical grid (Tm=3, Tk=3), node counts including
  // non-powers of two: every C must be byte-identical to the 1-node C.
  const workload::GemmProblem p = workload::make_problem(96, 16, 144);
  std::vector<float> c1;
  for (const int n : {1, 2, 3, 5}) {
    HostMatrix c(p.m, p.n);
    std::copy(p.c.data(), p.c.data() + c.size(), c.data());
    nodes::NodeCluster nc(small_options(n));
    const nodes::NodeResult r =
        nc.gemm(GemmInput::bound(p.a.view(), p.b.view(), c.view()));
    EXPECT_EQ(r.tiles, 9);
    EXPECT_GT(r.cycles, 0u);
    if (n == 1) {
      c1.assign(c.data(), c.data() + c.size());
      HostMatrix ref(p.m, p.n);
      std::copy(p.c.data(), p.c.data() + ref.size(), ref.data());
      reference_gemm(p, ref.view());
      EXPECT_LE(max_rel_diff(c.view(), ref.view()), gemm_tolerance(p.k));
    } else {
      EXPECT_EQ(std::memcmp(c1.data(), c.data(),
                            c1.size() * sizeof(float)),
                0)
          << "nodes=" << n;
    }
  }
}

TEST(NodeCluster, AutoGridPrefersLessReduction) {
  // Tm=3, Tk=1: only the M dimension can shard; Q must stay 1 and the
  // grid must not exceed the tile counts.
  nodes::NodeOptions no = small_options(4);
  nodes::NodeCluster nc(no);
  const nodes::NodeResult r = nc.gemm(GemmInput::shape_only(96, 16, 48));
  EXPECT_EQ(r.grid_p, 3);
  EXPECT_EQ(r.grid_q, 1);
  EXPECT_EQ(r.reduce_cycles, 0u);
}

TEST(NodeCluster, ComputeCyclesMonotoneInNodes) {
  std::uint64_t prev = 0;
  bool first = true;
  for (const int n : {1, 2, 4}) {
    nodes::NodeOptions no = small_options(n);
    no.model_input_distribution = false;
    no.runtime.gemm.functional = false;
    nodes::NodeCluster nc(no);
    const nodes::NodeResult r =
        nc.gemm(GemmInput::shape_only(256, 16, 96));
    if (!first) {
      EXPECT_LE(r.compute_cycles, prev);
    }
    prev = r.compute_cycles;
    first = false;
  }
}

TEST(NodeCluster, InputDistributionChargesLinks) {
  nodes::NodeOptions no = small_options(4);
  no.runtime.gemm.functional = false;
  nodes::NodeCluster nc(no);
  const nodes::NodeResult r = nc.gemm(GemmInput::shape_only(96, 16, 144));
  EXPECT_GT(r.input_cycles, 0u);
  EXPECT_GT(r.link_bytes, 0u);
  EXPECT_EQ(nc.interconnect().total_bytes(), r.link_bytes);
}

TEST(NodeCluster, KilledNodeExcludedAndBitsUnchanged) {
  const workload::GemmProblem p = workload::make_problem(96, 16, 144);
  HostMatrix c1(p.m, p.n);
  std::copy(p.c.data(), p.c.data() + c1.size(), c1.data());
  {
    nodes::NodeCluster nc(small_options(1));
    nc.gemm(GemmInput::bound(p.a.view(), p.b.view(), c1.view()));
  }
  nodes::NodeCluster nc(small_options(3));
  nc.kill_node(1);
  EXPECT_EQ(nc.alive_nodes(), 2);
  HostMatrix c(p.m, p.n);
  std::copy(p.c.data(), p.c.data() + c.size(), c.data());
  const nodes::NodeResult r =
      nc.gemm(GemmInput::bound(p.a.view(), p.b.view(), c.view()));
  EXPECT_LE(r.grid_p * r.grid_q, 2);  // grid never includes the corpse
  EXPECT_EQ(std::memcmp(c1.data(), c.data(), c1.size() * sizeof(float)),
            0);
}

TEST(NodeCluster, NodeDeathMidGemmReshardsOntoSurvivors) {
  // Node 0's simulated clusters are all dead: its run_all faults, the
  // sharder must mark it dead, re-shard its cells onto the survivors,
  // and still deliver the bit-identical C.
  const workload::GemmProblem p = workload::make_problem(96, 16, 144);
  HostMatrix c1(p.m, p.n);
  std::copy(p.c.data(), p.c.data() + c1.size(), c1.data());
  {
    nodes::NodeCluster nc(small_options(1));
    nc.gemm(GemmInput::bound(p.a.view(), p.b.view(), c1.view()));
  }
  fault::FaultPlan plan;
  for (int cl = 0; cl < 2; ++cl) plan.cluster(cl).dead = true;
  fault::FaultInjector dead_node(plan);
  nodes::NodeOptions no = small_options(3);
  no.fault_injectors = {&dead_node, nullptr, nullptr};
  nodes::NodeCluster nc(no);
  HostMatrix c(p.m, p.n);
  std::copy(p.c.data(), p.c.data() + c.size(), c.data());
  const nodes::NodeResult r =
      nc.gemm(GemmInput::bound(p.a.view(), p.b.view(), c.view()));
  EXPECT_EQ(r.node_deaths, 1);
  EXPECT_GT(r.resharded_tiles, 0);
  EXPECT_FALSE(nc.alive(0));
  EXPECT_TRUE(nc.alive(1));
  EXPECT_EQ(std::memcmp(c1.data(), c.data(), c1.size() * sizeof(float)),
            0);
  // The next GEMM skips the corpse from the start: no further deaths.
  HostMatrix c2(p.m, p.n);
  std::copy(p.c.data(), p.c.data() + c2.size(), c2.data());
  const nodes::NodeResult r2 =
      nc.gemm(GemmInput::bound(p.a.view(), p.b.view(), c2.view()));
  EXPECT_EQ(r2.node_deaths, 0);
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)),
            0);
}

TEST(NodeCluster, EveryNodeDeadThrowsClusterDead) {
  nodes::NodeCluster nc(small_options(2));
  nc.kill_node(0);
  nc.kill_node(1);
  try {
    nc.gemm(GemmInput::shape_only(96, 16, 48));
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::ClusterDead);
  }
}

TEST(NodeCluster, ReportCoversEveryNode) {
  nodes::NodeCluster nc(small_options(3));
  nc.gemm(GemmInput::shape_only(96, 16, 144));
  EXPECT_EQ(nc.report().rows().size(), 3u);
}
