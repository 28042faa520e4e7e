#include "ftm/nodes/scaleout.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "ftm/trace/trace.hpp"
#include "ftm/util/assert.hpp"

namespace ftm::nodes {
namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// One cell of the canonical M x K grid: M-tile `ti` times K-panel `kj`,
/// executed as an independent GEMM on `node` into `partial` (functional
/// mode; zeroed before each execution so re-running it after a node
/// death reproduces the same bits).
struct Cell {
  int ti = 0;
  int kj = 0;
  int node = -1;
  HostMatrix partial;
};

struct TileSpan {
  std::size_t off = 0;
  std::size_t len = 0;
};

TileSpan tile_span(std::size_t total, std::size_t tile, int idx) {
  TileSpan s;
  s.off = static_cast<std::size_t>(idx) * tile;
  s.len = std::min(tile, total - s.off);
  return s;
}

/// The P x Q grid over `avail` nodes minimizing the worst per-node cell
/// count ceil(Tm/P) * ceil(Tk/Q); ties prefer the smaller Q (less
/// K-reduction traffic). Deterministic in its inputs only.
void choose_grid(int avail, int tm, int tk, int& p, int& q) {
  if (p > 0 && q > 0 && p * q <= avail) {
    p = std::min(p, tm);
    q = std::min(q, tk);
    return;
  }
  int best_cost = -1;
  int bp = 1, bq = 1;
  for (int cq = 1; cq <= std::min(avail, tk); ++cq) {
    const int cp = std::min(avail / cq, tm);
    if (cp < 1) continue;
    const int cost = static_cast<int>(
        ceil_div(static_cast<std::size_t>(tm), static_cast<std::size_t>(cp)) *
        ceil_div(static_cast<std::size_t>(tk), static_cast<std::size_t>(cq)));
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      bp = cp;
      bq = cq;
    }
  }
  p = bp;
  q = bq;
}

std::uint64_t max_clock(const std::vector<std::uint64_t>& clocks,
                        const std::vector<int>& ids) {
  std::uint64_t mx = 0;
  for (const int n : ids) {
    mx = std::max(mx, clocks[static_cast<std::size_t>(n)]);
  }
  return mx;
}

}  // namespace

NodeCluster::NodeCluster(const NodeOptions& no)
    : no_(no), net_(no.nodes, no.topology, no.link) {
  FTM_EXPECTS(no.nodes >= 1);
  FTM_EXPECTS(no.m_tile_rows > 0 && no.k_panel > 0);
  nodes_.resize(static_cast<std::size_t>(no.nodes));
  for (int i = 0; i < no.nodes; ++i) {
    runtime::RuntimeOptions ro = no_.runtime;
    // The node layer owns sharding and needs run_all's deterministic
    // static schedule; the per-node runtime must not second-guess it.
    ro.split_wide = false;
    ro.batching.enabled = false;
    if (static_cast<std::size_t>(i) < no_.fault_injectors.size()) {
      ro.fault_injector = no_.fault_injectors[static_cast<std::size_t>(i)];
    }
    nodes_[static_cast<std::size_t>(i)].rt =
        std::make_unique<runtime::GemmRuntime>(ro, no_.machine);
  }
}

std::vector<int> NodeCluster::alive_ids() const {
  std::vector<int> ids;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].alive) ids.push_back(i);
  }
  return ids;
}

void NodeCluster::kill_node(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  FTM_EXPECTS(node >= 0 && node < static_cast<int>(nodes_.size()));
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  if (ns.alive) {
    ns.alive = false;
    ++ns.deaths;
  }
}

bool NodeCluster::alive(int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  FTM_EXPECTS(node >= 0 && node < static_cast<int>(nodes_.size()));
  return nodes_[static_cast<std::size_t>(node)].alive;
}

int NodeCluster::alive_nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(alive_ids().size());
}

runtime::GemmRuntime& NodeCluster::node(int node) {
  FTM_EXPECTS(node >= 0 && node < static_cast<int>(nodes_.size()));
  return *nodes_[static_cast<std::size_t>(node)].rt;
}

NodeResult NodeCluster::gemm(const core::GemmInput& in) {
  return gemm(in, no_.runtime.gemm);
}

NodeResult NodeCluster::gemm(const core::GemmInput& in,
                             const core::FtimmOptions& opt) {
  std::lock_guard<std::mutex> lock(mu_);
  FTM_EXPECTS(in.m > 0 && in.n > 0 && in.k > 0);
  const auto wall_start = std::chrono::steady_clock::now();
  const bool functional = opt.functional && in.c.data() != nullptr;
  if (functional) {
    FTM_EXPECTS(in.a.rows() == in.m && in.a.cols() == in.k);
    FTM_EXPECTS(in.b.rows() == in.k && in.b.cols() == in.n);
    FTM_EXPECTS(in.c.rows() == in.m && in.c.cols() == in.n);
  }

  net_.reset_clocks();
  const std::uint64_t bytes0 = net_.total_bytes();
  const int tm = static_cast<int>(ceil_div(in.m, no_.m_tile_rows));
  const int tk = static_cast<int>(ceil_div(in.k, no_.k_panel));

  std::vector<int> ids = alive_ids();
  if (ids.empty()) {
    throw FaultError(FaultKind::ClusterDead, -1, -1,
                     "node cluster: every node is dead");
  }
  int grid_p = no_.grid_p;
  int grid_q = no_.grid_q;
  choose_grid(static_cast<int>(ids.size()), tm, tk, grid_p, grid_q);

  NodeResult res;
  res.grid_p = grid_p;
  res.grid_q = grid_q;
  res.tiles = tm * tk;

  // --- Canonical cells; placement is the only node-count-dependent step.
  std::vector<Cell> cells;
  cells.reserve(static_cast<std::size_t>(tm * tk));
  for (int ti = 0; ti < tm; ++ti) {
    for (int kj = 0; kj < tk; ++kj) {
      Cell c;
      c.ti = ti;
      c.kj = kj;
      c.node = ids[static_cast<std::size_t>((ti % grid_p) * grid_q +
                                            (kj % grid_q))];
      if (functional) {
        // Zeroed by phase 2 before every execution, re-shards included.
        c.partial = HostMatrix::uninitialized(
            tile_span(in.m, no_.m_tile_rows, ti).len, in.n);
      }
      cells.push_back(std::move(c));
    }
  }

  std::vector<std::uint64_t> clocks(nodes_.size(), 0);

  // --- Phase 1: input distribution from the root node (ids[0]). A blocks
  // go point-to-point to each cell owner; B panels ring-broadcast down
  // each grid column (all cells of one column share the same B panels).
  const int root = ids[0];
  if (no_.model_input_distribution && static_cast<int>(ids.size()) > 1) {
    std::map<int, std::uint64_t> a_bytes;  // node -> A bytes it needs
    for (const Cell& c : cells) {
      const TileSpan ms = tile_span(in.m, no_.m_tile_rows, c.ti);
      const TileSpan ks = tile_span(in.k, no_.k_panel, c.kj);
      a_bytes[c.node] += static_cast<std::uint64_t>(ms.len) * ks.len * 4;
    }
    for (const auto& [node_id, bytes] : a_bytes) {
      if (node_id == root) continue;
      const std::uint64_t t =
          net_.send(root, node_id, bytes, clocks[static_cast<std::size_t>(
                                              root)]);
      auto& clk = clocks[static_cast<std::size_t>(node_id)];
      clk = std::max(clk, t);
    }
    for (int qj = 0; qj < grid_q; ++qj) {
      std::uint64_t b_bytes = 0;
      for (int kj = qj; kj < tk; kj += grid_q) {
        b_bytes += static_cast<std::uint64_t>(
                       tile_span(in.k, no_.k_panel, kj).len) *
                   in.n * 4;
      }
      Group col;
      for (int pi = 0; pi < grid_p; ++pi) {
        col.ranks.push_back(
            ids[static_cast<std::size_t>(pi * grid_q + qj)]);
      }
      int root_rank = -1;
      for (int r = 0; r < col.size(); ++r) {
        if (col.ranks[static_cast<std::size_t>(r)] == root) root_rank = r;
      }
      if (root_rank < 0) {
        // Ship the column's panels to its head first, then relay down.
        const int head = col.ranks[0];
        const std::uint64_t t = net_.send(
            root, head, b_bytes, clocks[static_cast<std::size_t>(root)]);
        auto& clk = clocks[static_cast<std::size_t>(head)];
        clk = std::max(clk, t);
        root_rank = 0;
      }
      ring_broadcast(net_, clocks, col, root_rank, b_bytes);
    }
  }
  const std::uint64_t t_input = max_clock(clocks, ids);
  res.input_cycles = t_input;

  // --- Phase 2: compute. Each node run_all()s its cells; a FaultError
  // marks the node dead and re-shards its cells round-robin onto the
  // survivors (partials re-zeroed so the retry reproduces the same bits).
  core::FtimmOptions cell_opt = opt;
  cell_opt.functional = functional;
  std::vector<Cell*> pending;
  for (Cell& c : cells) pending.push_back(&c);
  while (!pending.empty()) {
    std::map<int, std::vector<Cell*>> by_node;
    for (Cell* c : pending) by_node[c->node].push_back(c);
    pending.clear();
    std::vector<Cell*> orphans;
    for (auto& [node_id, node_cells] : by_node) {
      std::vector<core::GemmInput> problems;
      problems.reserve(node_cells.size());
      for (Cell* c : node_cells) {
        const TileSpan ms = tile_span(in.m, no_.m_tile_rows, c->ti);
        const TileSpan ks = tile_span(in.k, no_.k_panel, c->kj);
        if (functional) {
          c->partial.fill(0.0f);
          problems.push_back(core::GemmInput::bound(
              in.a.block(ms.off, ks.off, ms.len, ks.len),
              in.b.block(ks.off, 0, ks.len, in.n), c->partial.view()));
        } else {
          problems.push_back(
              core::GemmInput::shape_only(ms.len, in.n, ks.len));
        }
      }
      auto& ns = nodes_[static_cast<std::size_t>(node_id)];
      try {
        const core::BatchResult br = ns.rt->run_all(problems, cell_opt);
        clocks[static_cast<std::size_t>(node_id)] += br.cycles;
        ns.cells += node_cells.size();
      } catch (const FaultError&) {
        ns.alive = false;
        ++ns.deaths;
        ++res.node_deaths;
        orphans.insert(orphans.end(), node_cells.begin(),
                       node_cells.end());
      }
    }
    if (orphans.empty()) break;
    ids = alive_ids();
    if (ids.empty()) {
      throw FaultError(FaultKind::ClusterDead, -1, -1,
                       "node cluster: every node died mid-GEMM");
    }
    res.resharded_tiles += static_cast<int>(orphans.size());
    for (std::size_t i = 0; i < orphans.size(); ++i) {
      orphans[i]->node = ids[i % ids.size()];
    }
    pending = std::move(orphans);
  }
  const std::uint64_t t_compute = max_clock(clocks, ids);
  res.compute_cycles = t_compute - std::min(t_input, t_compute);

  // --- Phase 3: K reduction. Cost: per M-tile ring allreduce across the
  // nodes holding its panels. Function: fold partials into C host-side in
  // canonical K-panel order — deliberately NOT the ring order, so the
  // bits never depend on node count, grid, or re-sharding
  // (docs/scaleout.md "Determinism"). Output gather beyond the allreduce
  // is not modeled: C stays distributed, as in iterative workloads.
  if (tk > 1) {
    for (int ti = 0; ti < tm; ++ti) {
      Group g;
      for (const Cell& c : cells) {
        if (c.ti != ti) continue;
        if (std::find(g.ranks.begin(), g.ranks.end(), c.node) ==
            g.ranks.end()) {
          g.ranks.push_back(c.node);
        }
      }
      if (g.size() > 1) {
        const TileSpan ms = tile_span(in.m, no_.m_tile_rows, ti);
        ring_allreduce(net_, clocks, g,
                       static_cast<std::uint64_t>(ms.len) * in.n * 4);
      }
    }
  }
  if (functional) {
    for (const Cell& c : cells) {  // cells iterate in (ti, kj) order
      const TileSpan ms = tile_span(in.m, no_.m_tile_rows, c.ti);
      const MatrixView out = in.c.block(ms.off, 0, ms.len, in.n);
      const ConstMatrixView part = c.partial.view();
      for (std::size_t r = 0; r < ms.len; ++r) {
        for (std::size_t col = 0; col < in.n; ++col) {
          out(r, col) += part(r, col);
        }
      }
    }
  }

  res.cycles = max_clock(clocks, ids);
  res.reduce_cycles = res.cycles - std::min(t_compute, res.cycles);
  res.cores = opt.cores;
  res.dtype = opt.dtype;
  core::derive_rates(res, in.flops(),
                     no_.machine.cores_per_cluster * no_.runtime.clusters *
                         static_cast<int>(ids.size()),
                     no_.machine);
  res.link_bytes = net_.total_bytes() - bytes0;
  res.node_cycles = std::move(clocks);

  FTM_TRACE_COUNTER("nodes.gemm", 1);
  FTM_TRACE_COUNTER("nodes.link_bytes", res.link_bytes);
  if (res.node_deaths > 0) {
    FTM_TRACE_COUNTER("nodes.deaths",
                      static_cast<std::uint64_t>(res.node_deaths));
    FTM_TRACE_COUNTER("nodes.resharded_tiles",
                      static_cast<std::uint64_t>(res.resharded_tiles));
  }
  res.host_wall_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  last_ = res;
  return res;
}

Table NodeCluster::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  Table t({"node", "alive", "cells", "deaths", "cycles"});
  const auto& nc = last_.node_cycles;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& ns = nodes_[i];
    t.begin_row()
        .cell(static_cast<long long>(i))
        .cell(ns.alive ? "yes" : "no")
        .cell(static_cast<std::size_t>(ns.cells))
        .cell(static_cast<std::size_t>(ns.deaths))
        .cell(i < nc.size() ? static_cast<std::size_t>(nc[i])
                            : std::size_t{0});
  }
  return t;
}

}  // namespace ftm::nodes
