#include "core/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace fpst::core {

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
  nodes_.reserve(cube_.size());
  for (net::NodeId id = 0; id < cube_.size(); ++id) {
    nodes_.push_back(std::make_unique<Site>(sim_for(id), id, cfg));
  }
  for (std::uint32_t m = 0; m < rep.modules; ++m) {
    modules_.push_back(std::make_unique<Module>(*this, m));
  }
  // One full-duplex cable per cube edge; each node's port mutexes (in its
  // Site) make the four sublinks of a physical link share its bandwidth.
  cables_.resize(cube_.size());
  for (net::NodeId id = 0; id < cube_.size(); ++id) {
    cables_[id].resize(static_cast<std::size_t>(dimension));
  }
  for (net::NodeId id = 0; id < cube_.size(); ++id) {
    for (int d = 0; d < dimension; ++d) {
      const net::NodeId peer = cube_.neighbor(id, d);
      if (id < peer) {
        Cable& c = cables_[id][static_cast<std::size_t>(d)];
        c.lo = id;
        c.hi = peer;
        if (smap_.dim_crosses_shards(d)) {
          c.wire = std::make_unique<link::Link>(
              *psim_, smap_.shard_of(id), smap_.shard_of(peer));
        } else {
          // Subcube sharding keeps both endpoints of a low-dimension edge
          // in one shard, so the cable hands packets over by rendezvous.
          c.wire = std::make_unique<link::Link>(sim_for(id));
        }
        // Each side counts on its node's port: dim mod 4.
        const auto port =
            static_cast<std::size_t>(d % link::LinkParams::kPhysicalLinks);
        c.wire->attach(0, nodes_[id]->port_stats[port], nullptr);
        c.wire->attach(1, nodes_[peer]->port_stats[port], nullptr);
      }
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
        Cable& c = cable(id, d);
        nodes_[id]->node.links().attach(d, *c.wire, side_of(c, id));
      }
    }
  }
}

sim::Simulator& TSeries::sim_for(net::NodeId id) {
  return psim_ != nullptr ? psim_->shard(smap_.shard_of(id)) : *sim_;
}

TSeries::Cable& TSeries::cable(net::NodeId at, int dim) {
  const net::NodeId peer = cube_.neighbor(at, dim);
  const net::NodeId lo = std::min(at, peer);
  Cable& c = cables_[lo][static_cast<std::size_t>(dim)];
  if (!c.wire) {
    throw std::logic_error("TSeries::cable: unwired edge");
  }
  return c;
}

int TSeries::side_of(const Cable& c, net::NodeId at) const {
  return at == c.lo ? 0 : 1;
}

sim::Proc TSeries::send_dim(net::NodeId from, int dim, link::Packet p) {
  if (dim < 0 || dim >= dimension()) {
    throw std::invalid_argument("TSeries::send_dim: bad dimension");
  }
  const int port = dim % link::LinkParams::kPhysicalLinks;
  p.sublink =
      static_cast<std::uint8_t>(dim / link::LinkParams::kPhysicalLinks);
  p.src = from;
  Cable& c = cable(from, dim);
  const int side = side_of(c, from);
  sim::Semaphore& mux =
      nodes_[from]->port_mux[static_cast<std::size_t>(port)];
  if (p.trace != 0 && !link_sinks_.empty()) {
    // tscope enqueue marker: the gap to the matching tx span's start is the
    // hop's queueing delay (port mutex + wire direction contention).
    link_sinks_[from][static_cast<std::size_t>(port)]->record(
        {.start = sim_for(from).now(),
         .trace = p.trace,
         .kind = perf::SpanKind::msg_enqueue});
  }
  co_await mux.acquire();
  co_await c.wire->transmit(side, std::move(p));
  mux.release();
}

sim::Channel<link::Packet>& TSeries::inbox(net::NodeId at, int dim) {
  Cable& c = cable(at, dim);
  const int sub = dim / link::LinkParams::kPhysicalLinks;
  return c.wire->inbox(side_of(c, at), sub);
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
  for (const auto& n : nodes_) {
    n->node.attach_perf(reg);
  }
  // Each cable side counts into, and records its spans on, the track of
  // the node that transmits from it, named after the physical port the
  // dimension is multiplexed onto.
  link_sinks_.assign(size(), {});
  for (const auto& per_node : cables_) {
    for (std::size_t d = 0; d < per_node.size(); ++d) {
      const Cable& c = per_node[d];
      if (!c.wire) {
        continue;
      }
      const std::size_t port = d % link::LinkParams::kPhysicalLinks;
      const std::string comp = "link" + std::to_string(port);
      for (int side = 0; side < 2; ++side) {
        const net::NodeId at = side == 0 ? c.lo : c.hi;
        perf::PerfSink& track = reg.track(at, comp, link::kFields);
        link::LinkStats& stats = nodes_[at]->port_stats[port];
        stats.attach(track);
        link_sinks_[at][port] = &track;
        c.wire->attach(side, stats, &track);
      }
    }
  }
}

std::uint64_t TSeries::total_flops() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->node.flops();
  }
  return total;
}

std::uint64_t TSeries::total_link_bytes() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    for (const link::LinkStats& port : n->port_stats) {
      total += port.count(link::kBytes);
    }
  }
  return total;
}

}  // namespace fpst::core
