// The assembled machine: modules (8 nodes + system board + disk), the
// binary n-cube wiring between nodes, the system ring between boards, and
// the whole-machine builder.
//
// Physical-link modelling: the cube needs `dimension` connections per node
// but a node has four physical link engines, each multiplexed four ways.
// Cube dimension d therefore travels on physical port (d mod 4), sublink
// (d div 4); a per-(node, port) mutex makes the sublinks of one physical
// port share its 0.5 MB/s — "with software support, these sublinks divide
// the available bandwidth" (§II).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "link/link.hpp"
#include "net/hypercube.hpp"
#include "node/node.hpp"
#include "perf/counters.hpp"
#include "sim/pinned_array.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace fpst::core {

/// The per-module system disk. Stores snapshot images; transfer time is
/// folded into the checkpoint engine's calibrated snapshot duration.
class Disk {
 public:
  struct Image {
    std::vector<std::vector<std::uint8_t>> node_memories;
    sim::SimTime taken_at{};
    std::uint64_t sequence = 0;
  };

  void store(Image img) { last_ = std::move(img); }
  const Image* last() const {
    return last_.node_memories.empty() ? nullptr : &last_;
  }

  /// Secondary slot holding another module's snapshot ("backup snapshots
  /// from other modules", §III).
  void store_backup(Image img) { backup_ = std::move(img); }
  const Image* last_backup() const {
    return backup_.node_memories.empty() ? nullptr : &backup_;
  }

 private:
  Image last_{};
  Image backup_{};
};

/// System board: I/O and management for one module, a disk, and a place on
/// the system ring.
class SystemBoard {
 public:
  explicit SystemBoard(std::uint32_t module_index)
      : module_index_{module_index} {}

  std::uint32_t module_index() const { return module_index_; }
  Disk& disk() { return disk_; }
  const Disk& disk() const { return disk_; }

 private:
  std::uint32_t module_index_;
  Disk disk_;
};

class TSeries;

/// Eight nodes grouped with a system board and disk. Nodes of module m are
/// cube nodes [8m, 8m+8): the low three cube dimensions are intramodule.
class Module {
 public:
  Module(TSeries& machine, std::uint32_t index);

  std::uint32_t index() const { return index_; }
  node::Node& node(int local_index);
  SystemBoard& board() { return board_; }
  static constexpr int size() { return SystemParams::kNodesPerModule; }

 private:
  TSeries* machine_;
  std::uint32_t index_;
  SystemBoard board_;
};

/// A complete T Series machine of 2^dimension nodes.
class TSeries {
 public:
  TSeries(sim::Simulator& sim, int dimension, node::NodeConfig cfg = {});

  /// Sharded construction: nodes are partitioned over `psim`'s shards by
  /// the Gray-code subcube ShardMap, each node (and every shard-internal
  /// cable) living on its shard's simulator. Cube dimensions that connect
  /// different subcubes get cross-shard Links, routed through the engine's
  /// epoch mailboxes. Limitation: NodeLinks ports are wired only for
  /// shard-local cables, so ISA-level linkout/linkin across a shard
  /// boundary is unsupported — the occam runtime (which uses
  /// send_dim/inbox) is the parallel messaging path.
  TSeries(sim::ParallelSim& psim, int dimension, node::NodeConfig cfg = {});

  TSeries(const TSeries&) = delete;
  TSeries& operator=(const TSeries&) = delete;

  /// The single simulator (serial construction) or shard 0's simulator.
  sim::Simulator& simulator() { return *sim_; }
  /// The sharded engine, or null when serially constructed.
  sim::ParallelSim* parallel() { return psim_; }
  /// The node partition (the whole cube on one shard when serial).
  const sim::ShardMap& shard_map() const { return smap_; }
  /// The simulator that executes node `id` (the single simulator when
  /// serial).
  sim::Simulator& sim_for(net::NodeId id);
  int dimension() const { return cube_.dimension(); }
  std::size_t size() const { return cube_.size(); }
  const net::Hypercube& cube() const { return cube_; }

  node::Node& node(net::NodeId id) { return nodes_.at(id).node; }
  std::size_t module_count() const { return modules_.size(); }
  Module& module(std::size_t m) { return modules_.at(m); }

  /// Transmit one packet from `from` along cube dimension `dim`. Holds the
  /// sending node's physical port (dim mod 4) for the duration, so sublinks
  /// share the wire. The process moves the packet out of `p`, which must
  /// outlive it, as for link::Link::transmit.
  sim::Proc send_dim(net::NodeId from, int dim, link::Packet&& p);
  /// Arrival channel at node `at` for packets coming over dimension `dim`.
  sim::Channel<link::Packet>& inbox(net::NodeId at, int dim);

  /// Aggregate statistics, since construction or the last enable_perf.
  /// Link bytes are summed over node ports, each counting every cable it
  /// carries.
  std::uint64_t total_flops() const;
  std::uint64_t total_link_bytes() const;

  /// Attach machine-wide perf collection: fills in the registry's meta
  /// (dimension, node count), attaches every node's vpu/cp/mem tracks, and
  /// makes each node's physical port p count into its "link<p>" track, which
  /// so holds every cube dimension multiplexed onto p (p, p+4, p+8). The
  /// registry must outlive the machine.
  void enable_perf(perf::CounterRegistry& reg);
  /// The attached registry, or null when perf was never enabled.
  perf::CounterRegistry* perf() { return perf_; }

  ConfigReport report() const { return ConfigReport::derive(dimension()); }

 private:
  friend class Module;

  /// One node with the mutexes and statistics of its physical ports.
  struct Site {
    Site(sim::Simulator& sim, net::NodeId id, const node::NodeConfig& cfg)
        : node{sim, id, cfg},
          port_mux{{sim::Semaphore{sim, 1}, sim::Semaphore{sim, 1},
                    sim::Semaphore{sim, 1}, sim::Semaphore{sim, 1}}} {}
    node::Node node;
    // port_mux[port]: one transmission at a time per physical link.
    std::array<sim::Semaphore, link::LinkParams::kPhysicalLinks> port_mux;
    // port_stats[port]: what the port's link engine sent, over every cable
    // it carries.
    std::array<link::LinkStats, link::LinkParams::kPhysicalLinks> port_stats;
  };

  TSeries(sim::Simulator* sim, sim::ParallelSim* psim, int dimension,
          node::NodeConfig cfg);

  /// The cable of cube edge (at, at ^ 1 << dim). Throws
  /// std::invalid_argument for a dimension outside the cube.
  link::Link& cable(net::NodeId at, int dim);
  /// The side of its dimension-`dim` cable that node `at` sends from: 0 at
  /// the edge's lower endpoint.
  static int side_of(net::NodeId at, int dim) {
    return static_cast<int>((at >> dim) & 1U);
  }

  sim::Simulator* sim_;
  sim::ParallelSim* psim_ = nullptr;
  sim::ShardMap smap_{};
  net::Hypercube cube_;
  perf::CounterRegistry* perf_ = nullptr;
  sim::PinnedArray<Site> nodes_;
  std::vector<Module> modules_;
  // One cable per cube edge, in one array: dimension 0's size()/2 edges by
  // lower endpoint, then dimension 1's, and so on (see cable()).
  sim::PinnedArray<link::Link> links_;
  // link_sinks_[node][port]: the "link<port>" track of each wired port,
  // resolved by enable_perf so send_dim never looks a track up by name.
  // Empty while perf is off.
  std::vector<std::array<perf::PerfSink*, link::LinkParams::kPhysicalLinks>>
      link_sinks_;
};

}  // namespace fpst::core
