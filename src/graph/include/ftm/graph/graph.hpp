// Operator-graph IR (ISSUE 6 tentpole, docs/graph.md).
//
// Real inference traffic arrives as *chains* of ops — MLP layers, im2col'd
// convolution stacks — not isolated GEMMs. This module is the typed DAG
// those chains are expressed in: nodes are ops (GEMM through the existing
// engine, elementwise add/ReLU/bias through the host-SIMD primitives,
// im2col), edges are tensors with a shape and a memory placement
// (DDR/GSM/AM) that the planner (planner.hpp) fills in.
//
// The builder API infers shapes and rejects mismatches at node-creation
// time (ContractViolation, same treatment as sgemm's input validation);
// structural problems that only graph *transforms* can introduce — cycles
// via rewire_input, dangling edge references — are caught by validate() /
// topo_order(). A Graph is plain data: building and validating it never
// touches the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ftm/util/assert.hpp"

namespace ftm::graph {

/// Where a tensor lives while the graph executes. The planner assigns
/// Gsm/Am to intermediates it can keep resident; Ddr is both the default
/// and the only legal placement for external inputs and graph outputs.
enum class Placement : std::uint8_t {
  Ddr,  ///< off-chip; every read/write is DDR traffic
  Gsm,  ///< cluster-shared 6 MB scratchpad arena
  Am,   ///< a core's 768 KB array memory (next-op handoff only)
};

const char* to_string(Placement p);

enum class OpKind : std::uint8_t {
  Gemm,     ///< C = A(MxK) * B(KxN), dispatched through the runtime
  Add,      ///< elementwise C = A + B (host-SIMD add)
  Relu,     ///< elementwise C = max(A, 0)
  BiasAdd,  ///< C = A + broadcast(bias row) over every row
  Im2col,   ///< conv lowering: image -> patch matrix (M x K)
};

const char* to_string(OpKind k);

using TensorId = int;
using NodeId = int;

/// Geometry of one convolution lowered by an Im2col node. The image
/// tensor feeding it is the NCHW volume flattened row-major to
/// (batch * in_ch * height) x width.
struct ConvParams {
  std::size_t batch = 1;
  std::size_t in_ch = 1, height = 1, width = 1;
  std::size_t kh = 3, kw = 3;
  std::size_t stride = 1, pad = 1;

  std::size_t out_h() const { return (height + 2 * pad - kh) / stride + 1; }
  std::size_t out_w() const { return (width + 2 * pad - kw) / stride + 1; }
  std::size_t gemm_m() const { return batch * out_h() * out_w(); }
  std::size_t gemm_k() const { return in_ch * kh * kw; }
};

/// One edge of the DAG: a dense row-major FP32 tensor.
struct Tensor {
  std::string name;
  std::size_t rows = 0, cols = 0;
  bool external = false;  ///< bound by the caller at run() time
  NodeId producer = -1;   ///< -1 for external inputs
  std::vector<NodeId> consumers;

  std::size_t bytes() const { return rows * cols * sizeof(float); }
};

/// One op of the DAG.
struct Node {
  OpKind kind = OpKind::Gemm;
  std::string name;
  std::vector<TensorId> inputs;
  TensorId output = -1;
  ConvParams conv;  ///< meaningful only when kind == Im2col
};

/// Builder + container. Typical use:
///
///   graph::Graph g;
///   auto x  = g.input("x", 4096, 64);
///   auto w1 = g.input("w1", 64, 96);
///   auto h  = g.relu(g.bias_add(g.gemm(x, w1), g.input("b1", 1, 96)));
///   ...
///   g.mark_output(h);
///   g.validate();
class Graph {
 public:
  /// Declares an external tensor the caller binds at execution time.
  TensorId input(std::string name, std::size_t rows, std::size_t cols);

  /// C(MxN) = A(MxK) * B(KxN). Throws ContractViolation on an inner-
  /// dimension mismatch or an empty shape.
  TensorId gemm(TensorId a, TensorId b, std::string name = "");

  /// Elementwise sum; both inputs must have identical shapes.
  TensorId add(TensorId a, TensorId b, std::string name = "");

  /// Elementwise max(x, 0).
  TensorId relu(TensorId x, std::string name = "");

  /// Adds a 1 x cols bias row to every row of x.
  TensorId bias_add(TensorId x, TensorId bias, std::string name = "");

  /// Lowers `image` ((batch*in_ch*height) x width) to the im2col patch
  /// matrix (gemm_m() x gemm_k()).
  TensorId im2col(TensorId image, const ConvParams& p, std::string name = "");

  /// Marks a tensor as a graph output: it stays live to the end of the
  /// run, is never aliased or made scratchpad-resident, and must be bound
  /// to a caller view at execution time.
  void mark_output(TensorId t);

  /// Graph-transform escape hatch: repoints input slot `slot` of node `n`
  /// to tensor `t` without re-running shape inference or structural
  /// checks. Transforms that use it must re-validate(); this is also how
  /// tests construct cyclic / dangling graphs.
  void rewire_input(NodeId n, std::size_t slot, TensorId t);

  /// Deterministic topological order (Kahn's algorithm, lowest NodeId
  /// first). Throws ContractViolation naming a node on a cycle, or a node
  /// whose rewired input references no existing tensor (dangling edge).
  std::vector<NodeId> topo_order() const;

  /// Structural validation: topo_order() plus shape re-checks on every
  /// node (rewiring may have broken inference), at least one output, and
  /// no dead intermediate (a non-output tensor nothing consumes).
  void validate() const;

  std::size_t num_tensors() const { return tensors_.size(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  const Tensor& tensor(TensorId t) const;
  const Node& node(NodeId n) const;
  const std::vector<Tensor>& tensors() const { return tensors_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  bool is_output(TensorId t) const;

 private:
  TensorId new_tensor(std::string name, std::size_t rows, std::size_t cols,
                      bool external);
  TensorId new_node(OpKind kind, std::string name,
                    std::vector<TensorId> inputs, std::size_t out_rows,
                    std::size_t out_cols, const ConvParams* conv = nullptr);
  void check_tensor(TensorId t) const;
  /// Shape rules of one node; used at build time and by validate().
  void check_shapes(const Node& n) const;

  std::vector<Tensor> tensors_;
  std::vector<Node> nodes_;
  std::vector<TensorId> outputs_;
};

/// Convolution front-end: appends im2col(image) followed by a GEMM with
/// `filters` (gemm_k() x out_ch) and returns the (gemm_m() x out_ch)
/// result tensor — the paper's CNN workload as a two-node subgraph whose
/// intermediate patch matrix is exactly what residency planning keeps out
/// of DDR.
TensorId conv2d(Graph& g, TensorId image, TensorId filters,
                const ConvParams& p, std::string name = "");

}  // namespace ftm::graph
