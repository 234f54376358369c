// Binary n-cube mathematics (paper §III and Figure 3).
//
// The T Series connects 2^n nodes so that each node links to every node
// whose number differs in exactly one bit. The paper's claims modelled
// here:
//   * long-range communication cost grows as O(log2 N) — the cube diameter
//     equals its dimension;
//   * the cube maps many application topologies with adjacency preserved:
//     rings (binary-reflected Gray codes), meshes up to dimension n,
//     cylinders and toroids (power-of-two sides), and FFT butterfly
//     connections of radix 2;
//   * deterministic e-cube (dimension-ordered) routing provides deadlock-
//     free multi-hop paths for the software store-and-forward layer.
//
// Everything here is pure combinatorics — no simulation state — so the
// embedding quality measures (dilation, congestion) in the Figure 3 bench
// are exact rather than sampled.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/bits.hpp"

namespace fpst::net {

using NodeId = std::uint32_t;

/// Binary-reflected Gray code and its inverse (sim/bits.hpp).
using bits::gray;
using bits::gray_inverse;

class Hypercube {
 public:
  /// dimension in [0, 14] — the paper notes enough links exist "to permit a
  /// 14-cube to be constructed as the largest T Series configuration".
  explicit Hypercube(int dimension);

  int dimension() const { return dim_; }
  std::size_t size() const { return std::size_t{1} << dim_; }
  int diameter() const { return dim_; }

  NodeId neighbor(NodeId node, int dim) const;
  static int hamming(NodeId a, NodeId b);

  /// Dimensions to traverse from src to dst in e-cube order (ascending).
  std::vector<int> ecube_dims(NodeId src, NodeId dst) const;
  /// Full node path src..dst inclusive under e-cube routing.
  std::vector<NodeId> ecube_path(NodeId src, NodeId dst) const;

  /// All undirected cube edges (a < b).
  std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  int dim_;
};

/// A guest topology mapped onto cube nodes: map[v] is the cube node hosting
/// guest vertex v; guest_edges lists the guest graph's undirected edges.
struct Embedding {
  std::string name;
  std::vector<NodeId> map;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> guest_edges;
};

/// Ring of 2^dim vertices via the binary-reflected Gray code (dilation 1).
Embedding ring_embedding(int dim);
/// Ring mapped naively (vertex i -> node i): the contrast case showing why
/// Gray codes matter.
Embedding naive_ring_embedding(int dim);
/// k-dimensional mesh with side 2^side_log2[d]; sum of side_log2 gives the
/// cube dimension. 4-neighbour edges, no wraparound.
Embedding mesh_embedding(const std::vector<int>& side_log2);
/// As mesh_embedding but with wraparound edges (toroid / cylinder).
Embedding torus_embedding(const std::vector<int>& side_log2);
/// FFT butterfly of radix 2: guest edges pair i with i XOR 2^s for every
/// stage s — exactly the cube's own edges (identity map).
Embedding butterfly_embedding(int dim);

/// Quality of an embedding on a cube.
struct EmbeddingStats {
  int dilation = 0;          ///< max cube distance over guest edges
  double avg_dilation = 0;   ///< mean cube distance over guest edges
  int congestion = 0;        ///< max guest routes crossing one cube edge
  bool adjacency_preserved = false;  ///< dilation == 1
};

EmbeddingStats analyze(const Hypercube& cube, const Embedding& emb);

/// Crossings of one undirected cube edge (a < b) under a set of routes.
struct EdgeTraffic {
  NodeId a = 0;
  NodeId b = 0;
  std::uint64_t crossings = 0;
  /// Payload bytes carried across the edge (0 under the unweighted
  /// overload, which routes bare (src, dst) pairs).
  std::uint64_t bytes = 0;
};

/// A routed flow with a payload size, for byte-weighted congestion.
struct Flow {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t bytes = 0;
};

/// Static congestion prediction: route every (src, dst) flow e-cube and
/// tally how many times each undirected cube edge is crossed. Sorted by
/// (a, b); zero-load edges omitted; src == dst flows contribute nothing.
/// tools/tscope compares this against the crossings tscope observes.
std::vector<EdgeTraffic> ecube_edge_traffic(
    const Hypercube& cube,
    const std::vector<std::pair<NodeId, NodeId>>& flows);

/// Byte-weighted variant: crossings tally as above and every crossing also
/// accumulates the flow's payload bytes, so tcheck can gate per-edge volume
/// against a link budget.
std::vector<EdgeTraffic> ecube_edge_traffic(const Hypercube& cube,
                                            const std::vector<Flow>& flows);

/// One hop of a collective schedule: at `step`, `from` sends to `to` along
/// cube dimension `dim`.
struct CommStep {
  int step;
  NodeId from;
  NodeId to;
  int dim;
};

/// Binomial-tree broadcast from `root`: log2 N steps, node counts double
/// each step.
std::vector<CommStep> broadcast_schedule(const Hypercube& cube, NodeId root);
/// Binomial-tree reduction to `root` (broadcast reversed).
std::vector<CommStep> reduce_schedule(const Hypercube& cube, NodeId root);
/// Recursive-doubling allreduce: step k exchanges along dimension k; every
/// node participates in every step.
std::vector<CommStep> allreduce_schedule(const Hypercube& cube);

}  // namespace fpst::net
