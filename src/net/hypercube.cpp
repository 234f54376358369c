#include "net/hypercube.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>

namespace fpst::net {

Hypercube::Hypercube(int dimension) : dim_{dimension} {
  if (dimension < 0 || dimension > 14) {
    throw std::invalid_argument("Hypercube: dimension must be in [0, 14]");
  }
}

NodeId Hypercube::neighbor(NodeId node, int dim) const {
  if (dim < 0 || dim >= dim_) {
    throw std::invalid_argument("Hypercube::neighbor: bad dimension");
  }
  return node ^ (NodeId{1} << dim);
}

int Hypercube::hamming(NodeId a, NodeId b) {
  return std::popcount(a ^ b);
}

std::vector<int> Hypercube::ecube_dims(NodeId src, NodeId dst) const {
  std::vector<int> dims;
  std::uint32_t diff = src ^ dst;
  for (int d = 0; d < dim_; ++d) {
    if (diff & (std::uint32_t{1} << d)) {
      dims.push_back(d);
    }
  }
  return dims;
}

std::vector<NodeId> Hypercube::ecube_path(NodeId src, NodeId dst) const {
  std::vector<NodeId> path{src};
  NodeId cur = src;
  for (int d : ecube_dims(src, dst)) {
    cur ^= (NodeId{1} << d);
    path.push_back(cur);
  }
  return path;
}

std::vector<std::pair<NodeId, NodeId>> Hypercube::edges() const {
  std::vector<std::pair<NodeId, NodeId>> es;
  for (NodeId a = 0; a < size(); ++a) {
    for (int d = 0; d < dim_; ++d) {
      const NodeId b = a ^ (NodeId{1} << d);
      if (a < b) {
        es.emplace_back(a, b);
      }
    }
  }
  return es;
}

Embedding ring_embedding(int dim) {
  const std::uint32_t n = std::uint32_t{1} << dim;
  Embedding e;
  e.name = "ring/gray(" + std::to_string(dim) + "-cube)";
  e.map.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    e.map[i] = gray(i);
  }
  // A 2-ring has a single edge; larger rings close with a distinct wrap edge.
  const std::uint32_t edge_count = (n == 2) ? 1 : n;
  for (std::uint32_t i = 0; i < edge_count; ++i) {
    e.guest_edges.emplace_back(i, (i + 1) % n);
  }
  return e;
}

Embedding naive_ring_embedding(int dim) {
  Embedding e = ring_embedding(dim);
  e.name = "ring/naive(" + std::to_string(dim) + "-cube)";
  const std::uint32_t n = std::uint32_t{1} << dim;
  for (std::uint32_t i = 0; i < n; ++i) {
    e.map[i] = i;  // identity: consecutive numbers, not adjacent in the cube
  }
  return e;
}

namespace {

/// Vertex coordinates <-> linear index for a k-dimensional power-of-two
/// grid; dimension d has side 2^side_log2[d].
std::uint32_t grid_index(const std::vector<int>& side_log2,
                         const std::vector<std::uint32_t>& coord) {
  std::uint32_t idx = 0;
  for (std::size_t d = 0; d < side_log2.size(); ++d) {
    idx = (idx << side_log2[d]) | coord[d];
  }
  return idx;
}

Embedding grid_embedding(const std::vector<int>& side_log2, bool wrap,
                         const char* kind) {
  int total = 0;
  for (int s : side_log2) {
    if (s < 1) {
      throw std::invalid_argument("grid_embedding: sides must be >= 2");
    }
    total += s;
  }
  if (total > 14) {
    throw std::invalid_argument("grid_embedding: exceeds a 14-cube");
  }
  Embedding e;
  e.name = std::string(kind) + "(";
  for (std::size_t d = 0; d < side_log2.size(); ++d) {
    if (d != 0) {
      e.name += 'x';
    }
    e.name += std::to_string(1u << side_log2[d]);
  }
  e.name += ")";

  const std::uint32_t n = std::uint32_t{1} << total;
  e.map.resize(n);
  // Map each coordinate through its own Gray code and concatenate the bit
  // fields: neighbouring grid points then differ in exactly one cube bit.
  std::vector<std::uint32_t> coord(side_log2.size(), 0);
  for (std::uint32_t idx = 0; idx < n; ++idx) {
    std::uint32_t rest = idx;
    for (std::size_t d = side_log2.size(); d-- > 0;) {
      coord[d] = rest & ((1u << side_log2[d]) - 1);
      rest >>= side_log2[d];
    }
    std::uint32_t node = 0;
    for (std::size_t d = 0; d < side_log2.size(); ++d) {
      node = (node << side_log2[d]) | gray(coord[d]);
    }
    e.map[idx] = node;
  }
  // Guest edges: +1 neighbour along each dimension (and the wrap edge for
  // toroids when the side exceeds 2).
  for (std::uint32_t idx = 0; idx < n; ++idx) {
    std::uint32_t rest = idx;
    for (std::size_t d = side_log2.size(); d-- > 0;) {
      coord[d] = rest & ((1u << side_log2[d]) - 1);
      rest >>= side_log2[d];
    }
    for (std::size_t d = 0; d < side_log2.size(); ++d) {
      const std::uint32_t side = 1u << side_log2[d];
      std::vector<std::uint32_t> c2 = coord;
      if (coord[d] + 1 < side) {
        c2[d] = coord[d] + 1;
        e.guest_edges.emplace_back(idx, grid_index(side_log2, c2));
      } else if (wrap && side > 2) {
        c2[d] = 0;
        e.guest_edges.emplace_back(grid_index(side_log2, c2), idx);
      }
    }
  }
  return e;
}

}  // namespace

Embedding mesh_embedding(const std::vector<int>& side_log2) {
  return grid_embedding(side_log2, /*wrap=*/false, "mesh");
}

Embedding torus_embedding(const std::vector<int>& side_log2) {
  return grid_embedding(side_log2, /*wrap=*/true, "torus");
}

Embedding butterfly_embedding(int dim) {
  const std::uint32_t n = std::uint32_t{1} << dim;
  Embedding e;
  e.name = "fft-butterfly(" + std::to_string(dim) + "-cube)";
  e.map.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    e.map[i] = i;
  }
  for (int s = 0; s < dim; ++s) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t j = i ^ (1u << s);
      if (i < j) {
        e.guest_edges.emplace_back(i, j);
      }
    }
  }
  return e;
}

EmbeddingStats analyze(const Hypercube& cube, const Embedding& emb) {
  EmbeddingStats st;
  if (emb.guest_edges.empty()) {
    return st;
  }
  std::map<std::pair<NodeId, NodeId>, int> load;
  long total = 0;
  for (const auto& [u, v] : emb.guest_edges) {
    const NodeId a = emb.map[u];
    const NodeId b = emb.map[v];
    const int dist = Hypercube::hamming(a, b);
    st.dilation = std::max(st.dilation, dist);
    total += dist;
    // Charge the e-cube route of this guest edge to each cube edge crossed.
    const std::vector<NodeId> path = cube.ecube_path(a, b);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const NodeId x = std::min(path[i], path[i + 1]);
      const NodeId y = std::max(path[i], path[i + 1]);
      st.congestion = std::max(st.congestion, ++load[{x, y}]);
    }
  }
  st.avg_dilation =
      static_cast<double>(total) / static_cast<double>(emb.guest_edges.size());
  st.adjacency_preserved = st.dilation == 1;
  return st;
}

std::vector<EdgeTraffic> ecube_edge_traffic(
    const Hypercube& cube,
    const std::vector<std::pair<NodeId, NodeId>>& flows) {
  std::vector<Flow> weighted;
  weighted.reserve(flows.size());
  for (const auto& [src, dst] : flows) {
    weighted.push_back(Flow{src, dst, 0});
  }
  return ecube_edge_traffic(cube, weighted);
}

std::vector<EdgeTraffic> ecube_edge_traffic(const Hypercube& cube,
                                            const std::vector<Flow>& flows) {
  std::map<std::pair<NodeId, NodeId>, std::pair<std::uint64_t, std::uint64_t>>
      load;  // edge -> (crossings, bytes)
  for (const Flow& f : flows) {
    const std::vector<NodeId> path = cube.ecube_path(f.src, f.dst);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const NodeId x = std::min(path[i], path[i + 1]);
      const NodeId y = std::max(path[i], path[i + 1]);
      auto& [crossings, bytes] = load[{x, y}];
      ++crossings;
      bytes += f.bytes;
    }
  }
  std::vector<EdgeTraffic> out;
  out.reserve(load.size());
  for (const auto& [edge, tally] : load) {
    out.push_back(
        EdgeTraffic{edge.first, edge.second, tally.first, tally.second});
  }
  return out;
}

std::vector<CommStep> broadcast_schedule(const Hypercube& cube, NodeId root) {
  // Step k: every node that already has the datum sends across dimension k.
  // Relative to the root, node r has it after step k iff (r XOR root) only
  // uses dimensions < k.
  std::vector<CommStep> steps;
  for (int k = 0; k < cube.dimension(); ++k) {
    const std::uint32_t have_mask = (std::uint32_t{1} << k) - 1;
    for (std::uint32_t rel = 0; rel <= have_mask; ++rel) {
      const NodeId from = root ^ rel;
      steps.push_back(CommStep{k, from, cube.neighbor(from, k), k});
    }
  }
  return steps;
}

std::vector<CommStep> reduce_schedule(const Hypercube& cube, NodeId root) {
  std::vector<CommStep> bcast = broadcast_schedule(cube, root);
  std::vector<CommStep> steps;
  steps.reserve(bcast.size());
  const int last = cube.dimension() - 1;
  for (auto it = bcast.rbegin(); it != bcast.rend(); ++it) {
    steps.push_back(CommStep{last - it->step, it->to, it->from, it->dim});
  }
  return steps;
}

std::vector<CommStep> allreduce_schedule(const Hypercube& cube) {
  std::vector<CommStep> steps;
  for (int k = 0; k < cube.dimension(); ++k) {
    for (NodeId a = 0; a < cube.size(); ++a) {
      steps.push_back(CommStep{k, a, cube.neighbor(a, k), k});
    }
  }
  return steps;
}

}  // namespace fpst::net
