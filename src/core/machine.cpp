#include "core/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace fpst::core {

namespace {

/// Rank of cube edge (lo, lo | 1 << dim) among dimension `dim`'s edges: its
/// lower endpoint with bit `dim` removed.
std::size_t edge_rank(net::NodeId lo, int dim) {
  const net::NodeId below = lo & ((net::NodeId{1} << dim) - 1);
  return ((lo >> (dim + 1)) << dim) | below;
}

/// The lower endpoint of dimension `dim`'s edge of rank `rank`.
net::NodeId edge_low_end(std::size_t rank, int dim) {
  const auto r = static_cast<net::NodeId>(rank);
  const net::NodeId below = r & ((net::NodeId{1} << dim) - 1);
  return ((r >> dim) << (dim + 1)) | below;
}

}  // namespace

ConfigReport ConfigReport::derive(int dimension) {
  if (dimension < 0 || dimension > SystemParams::kMaxDim) {
    throw std::invalid_argument("ConfigReport: dimension out of range");
  }
  ConfigReport r;
  r.dimension = dimension;
  r.nodes = std::uint32_t{1} << dimension;
  r.modules = (r.nodes + SystemParams::kNodesPerModule - 1) /
              SystemParams::kNodesPerModule;
  r.cabinets = (r.modules + SystemParams::kModulesPerCabinet - 1) /
               SystemParams::kModulesPerCabinet;
  r.peak_gflops =
      static_cast<double>(r.nodes) * vpu::VpuParams::peak_mflops() / 1000.0;
  r.ram_mb = static_cast<double>(r.nodes) *
             static_cast<double>(mem::MemParams::kBytes) / (1 << 20);
  r.system_disks = r.modules;
  r.hypercube_sublinks_per_node = dimension;
  r.system_sublinks_per_node = SystemParams::kSystemSublinksPerNode;
  const int after_cube_and_system =
      link::LinkParams::kSublinksPerNode - dimension -
      SystemParams::kSystemSublinksPerNode;
  r.io_sublinks_per_node =
      std::max(0, std::min(SystemParams::kIoSublinksPerNode,
                           after_cube_and_system));
  r.free_sublinks_per_node = after_cube_and_system - r.io_sublinks_per_node;
  r.feasible = after_cube_and_system >= 0;
  return r;
}

std::string ConfigReport::to_string() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%2d-cube %5u nodes %4u modules %4u cabinets "
                "%8.3f GFLOPS %7.0f MB %4u disks (free sublinks %d)",
                dimension, nodes, modules, cabinets, peak_gflops, ram_mb,
                system_disks, free_sublinks_per_node);
  return buf;
}

Module::Module(TSeries& machine, std::uint32_t index)
    : machine_{&machine}, index_{index}, board_{index} {}

node::Node& Module::node(int local_index) {
  return machine_->node(index_ * SystemParams::kNodesPerModule +
                        static_cast<std::uint32_t>(local_index));
}

TSeries::TSeries(sim::Simulator& sim, int dimension, node::NodeConfig cfg)
    : TSeries(&sim, nullptr, dimension, cfg) {}

TSeries::TSeries(sim::ParallelSim& psim, int dimension, node::NodeConfig cfg)
    : TSeries(nullptr, &psim, dimension, cfg) {}

TSeries::TSeries(sim::Simulator* sim, sim::ParallelSim* psim, int dimension,
                 node::NodeConfig cfg)
    : sim_{sim}, psim_{psim}, cube_{dimension} {
  // Throws unless the shard count is a power of two <= 2^dimension.
  smap_ = sim::ShardMap(dimension, psim_ != nullptr ? psim_->shards() : 1);
  if (psim_ != nullptr) {
    // Cross-shard traffic only ever flows over cross-shard Links between
    // Gray-adjacent subcubes, one hop at a time, so the machine honours
    // the pairwise hop-distance lookahead bound by construction — install
    // it so distant shards synchronize at 1/d the neighbour rate.
    psim_->set_topology(smap_);
    sim_ = &psim_->shard(0);
  }
  const ConfigReport rep = ConfigReport::derive(dimension);
  if (!rep.feasible) {
    throw std::invalid_argument(
        "TSeries: dimension exceeds the node's 16-sublink budget");
  }
  nodes_ = sim::PinnedArray<Site>(cube_.size(), [&](std::size_t id) {
    const auto n = static_cast<net::NodeId>(id);
    return Site{sim_for(n), n, cfg};
  });
  modules_.reserve(rep.modules);
  for (std::uint32_t m = 0; m < rep.modules; ++m) {
    modules_.emplace_back(*this, m);
  }
  // One full-duplex cable per cube edge; each node's port mutexes (in its
  // Site) make the four sublinks of a physical link share its bandwidth.
  const std::size_t per_dim = cube_.size() / 2;
  links_ = sim::PinnedArray<link::Link>(
      per_dim * static_cast<std::size_t>(dimension),
      [&](std::size_t i) -> link::Link {
        const int d = static_cast<int>(i / per_dim);
        const net::NodeId lo = edge_low_end(i % per_dim, d);
        const net::NodeId hi = lo | (net::NodeId{1} << d);
        if (smap_.dim_crosses_shards(d)) {
          return link::Link{*psim_, smap_.shard_of(lo), smap_.shard_of(hi)};
        }
        // Subcube sharding keeps both endpoints of a low-dimension edge in
        // one shard, so the cable hands packets over by rendezvous.
        return link::Link{sim_for(lo)};
      });
  for (net::NodeId id = 0; id < cube_.size(); ++id) {
    for (int d = 0; d < dimension; ++d) {
      // Each side counts on its node's port: dim mod 4.
      const auto port =
          static_cast<std::size_t>(d % link::LinkParams::kPhysicalLinks);
      cable(id, d).attach(side_of(id, d), nodes_[id].port_stats[port],
                          nullptr);
    }
  }
  // Wire each node's NodeLinks ports to its first four cube cables so that
  // programs running ON the control processors (TISA / MOCC linkout-linkin)
  // reach the same physical wires. Cross-shard cables are skipped (see the
  // parallel-constructor limitation). Note: the Occam host runtime's router
  // daemons consume sublink (dim/4) inboxes, so ISA-level link I/O and
  // occam::Runtime should not share one machine instance.
  for (net::NodeId id = 0; id < cube_.size(); ++id) {
    for (int d = 0; d < std::min(dimension, link::LinkParams::kPhysicalLinks);
         ++d) {
      if (!smap_.dim_crosses_shards(d)) {
        nodes_[id].node.links().attach(d, cable(id, d), side_of(id, d));
      }
    }
  }
}

sim::Simulator& TSeries::sim_for(net::NodeId id) {
  return psim_ != nullptr ? psim_->shard(smap_.shard_of(id)) : *sim_;
}

link::Link& TSeries::cable(net::NodeId at, int dim) {
  const net::NodeId lo = std::min(at, cube_.neighbor(at, dim));
  return links_[static_cast<std::size_t>(dim) * (size() / 2) +
                edge_rank(lo, dim)];
}

sim::Proc TSeries::send_dim(net::NodeId from, int dim, link::Packet&& p) {
  if (dim < 0 || dim >= dimension()) {
    throw std::invalid_argument("TSeries::send_dim: bad dimension");
  }
  const int port = dim % link::LinkParams::kPhysicalLinks;
  p.sublink =
      static_cast<std::uint8_t>(dim / link::LinkParams::kPhysicalLinks);
  link::Link& c = cable(from, dim);
  sim::Semaphore& mux = nodes_[from].port_mux[static_cast<std::size_t>(port)];
  if (p.trace != 0 && !link_sinks_.empty()) {
    // tscope enqueue marker: the gap to the matching tx span's start is the
    // hop's queueing delay (port mutex + wire direction contention).
    link_sinks_[from][static_cast<std::size_t>(port)]->record(
        {.start = sim_for(from).now(),
         .trace = p.trace,
         .kind = perf::SpanKind::msg_enqueue});
  }
  co_await mux.acquire();
  co_await c.transmit(side_of(from, dim), std::move(p));
  mux.release();
}

sim::Channel<link::Packet>& TSeries::inbox(net::NodeId at, int dim) {
  const int sub = dim / link::LinkParams::kPhysicalLinks;
  return cable(at, dim).inbox(side_of(at, dim), sub);
}

void TSeries::enable_perf(perf::CounterRegistry& reg) {
  perf_ = &reg;
  reg.meta().dimension = dimension();
  reg.meta().nodes = static_cast<std::uint32_t>(size());
  if (psim_ != nullptr) {
    // Give every shard its own span timeline so workers never share a ring;
    // the dump merges them deterministically (perf/chrome_trace.cpp).
    std::vector<int> shard_of(size());
    for (net::NodeId id = 0; id < cube_.size(); ++id) {
      shard_of[id] = smap_.shard_of(id);
    }
    reg.shard_spans(std::move(shard_of), psim_->shards());
  }
  for (Site& n : nodes_) {
    n.node.attach_perf(reg);
  }
  // Each cable side counts into, and records its spans on, the track of
  // the node that transmits from it, named after the physical port the
  // dimension is multiplexed onto. Tracks are made edge by edge, by lower
  // endpoint and then dimension.
  link_sinks_.assign(size(), {});
  for (net::NodeId lo = 0; lo < cube_.size(); ++lo) {
    for (int d = 0; d < dimension(); ++d) {
      if (side_of(lo, d) != 0) {
        continue;
      }
      const auto port =
          static_cast<std::size_t>(d % link::LinkParams::kPhysicalLinks);
      const std::string comp = "link" + std::to_string(port);
      for (int side = 0; side < 2; ++side) {
        const net::NodeId at = side == 0 ? lo : lo | (net::NodeId{1} << d);
        perf::PerfSink& track = reg.track(at, comp, link::kFields);
        link::LinkStats& stats = nodes_[at].port_stats[port];
        stats.attach(track);
        link_sinks_[at][port] = &track;
        cable(lo, d).attach(side, stats, &track);
      }
    }
  }
}

std::uint64_t TSeries::total_flops() const {
  std::uint64_t total = 0;
  for (const Site& n : nodes_) {
    total += n.node.flops();
  }
  return total;
}

std::uint64_t TSeries::total_link_bytes() const {
  std::uint64_t total = 0;
  for (const Site& n : nodes_) {
    for (const link::LinkStats& port : n.port_stats) {
      total += port.count(link::kBytes);
    }
  }
  return total;
}

}  // namespace fpst::core
