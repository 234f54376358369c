#include "serve/runner.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <vector>

#include "core/machine.hpp"
#include "link/link.hpp"
#include "mem/memory.hpp"
#include "node/node.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "sim/bits.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace fpst::serve {

namespace {

/// A double in [1, 2) with a 16-bit mantissa slice: exactly representable,
/// sums stay exact for any workload size this service admits, so the
/// checksum is bit-stable across summation orders that the collectives
/// already fix deterministically anyway. splitmix64 makes the map
/// portable: the same (seed, node, index) yields the same double on every
/// host, which the byte-determinism of the dumps requires.
double seeded_value(std::uint64_t seed, std::uint64_t node,
                    std::uint64_t index) {
  const std::uint64_t h = bits::splitmix64(seed ^ (node << 32) ^ index);
  return 1.0 + static_cast<double>(h >> 48) / 65536.0;
}

std::vector<double> seeded_vector(const JobSpec& spec, std::uint64_t node) {
  std::vector<double> v(static_cast<std::size_t>(spec.elems));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = seeded_value(spec.seed, node, i);
  }
  return v;
}

occam::Runtime::Body allreduce_body(const JobSpec& spec,
                                    std::vector<double>* check) {
  return [&spec, check](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> xs = seeded_vector(spec, ctx.id());
    for (int r = 0; r < spec.rounds; ++r) {
      co_await ctx.allreduce_sum(&xs);
    }
    double sum = 0.0;
    for (const double x : xs) {
      sum += x;
    }
    (*check)[ctx.id()] = sum;
  };
}

occam::Runtime::Body saxpy_body(const JobSpec& spec,
                                std::vector<node::Array64>* xs,
                                std::vector<node::Array64>* ys,
                                std::vector<node::Array64>* zs,
                                std::vector<double>* check) {
  return [&spec, xs, ys, zs, check](occam::Ctx& ctx) -> sim::Proc {
    node::Node& nd = ctx.node();
    const std::size_t elems = static_cast<std::size_t>(spec.elems);
    // The paper's overlap discipline per round: the CP gathers the next
    // stripe's operands while the pipes run this stripe's VSAXPY.
    for (int r = 0; r < spec.rounds; ++r) {
      std::vector<sim::Proc> par;
      par.push_back(nd.gather(elems));
      par.push_back([](node::Node* n, node::Array64 x, node::Array64 y,
                       node::Array64 z) -> sim::Proc {
        co_await n->vscalar(vpu::VectorForm::vsaxpy, 2.0, x, y, z);
      }(&nd, (*xs)[ctx.id()], (*ys)[ctx.id()], (*zs)[ctx.id()]));
      co_await sim::WhenAll{std::move(par)};
    }
    const std::vector<double> z = nd.read64((*zs)[ctx.id()]);
    double local = 0.0;
    for (const double v : z) {
      local += v;
    }
    co_await ctx.allreduce_sum(&local);
    (*check)[ctx.id()] = local;
  };
}

occam::Runtime::Body ring_body(const JobSpec& spec,
                               std::vector<double>* check) {
  return [&spec, check](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> v = seeded_vector(spec, ctx.id());
    const std::size_t n = ctx.size();
    if (n > 1) {
      const net::NodeId next =
          static_cast<net::NodeId>((ctx.id() + 1) % n);
      const net::NodeId prev =
          static_cast<net::NodeId>((ctx.id() + n - 1) % n);
      constexpr std::uint16_t kTag = 7;
      for (int r = 0; r < spec.rounds; ++r) {
        std::vector<sim::Proc> par;
        par.push_back(ctx.send(next, kTag, v));
        std::vector<double> in;
        par.push_back(ctx.recv(prev, kTag, &in));
        co_await sim::WhenAll{std::move(par)};
        v = std::move(in);
        for (double& x : v) {
          x += 1.0;  // make each round's payload distinct
        }
      }
    } else {
      for (double& x : v) {
        x += spec.rounds;
      }
    }
    double sum = 0.0;
    for (const double x : v) {
      sum += x;
    }
    (*check)[ctx.id()] = sum;
  };
}

}  // namespace

/// The staged program: its body, the data it works on, and where each node
/// leaves its share of the checksum.
struct JobRun::Program {
  std::vector<double> check;
  // saxpy's arrays, allocated on each node's memory banks and seeded.
  std::vector<node::Array64> xs;
  std::vector<node::Array64> ys;
  std::vector<node::Array64> zs;
  occam::Runtime::Body body;
};

int shards_for(const JobSpec& spec) {
  const int nodes = 1 << spec.dimension;
  const int cap = std::min(spec.threads, nodes);
  int shards = 1;
  while (shards * 2 <= cap) {
    shards *= 2;
  }
  return shards;
}

JobRun::JobRun(JobSpec spec) : spec_{std::move(spec)} {
  validate(spec_);
  // validate() guarantees the mode string parses.
  node::NodeConfig ncfg;
  ncfg.vpu_mode = *vpu::parse_vpu_mode(spec_.vpu_mode);
  const int shards = shards_for(spec_);
  if (shards > 1) {
    sim::ParallelSim::Options po;
    po.shards = shards;
    po.threads = spec_.threads;
    po.lookahead = link::LinkParams::transfer_time(0);
    psim_ = std::make_unique<sim::ParallelSim>(po);
    machine_ = std::make_unique<core::TSeries>(*psim_, spec_.dimension, ncfg);
  } else {
    sim_ = std::make_unique<sim::Simulator>();
    machine_ = std::make_unique<core::TSeries>(*sim_, spec_.dimension, ncfg);
  }
  reg_ = std::make_unique<perf::CounterRegistry>();
  machine_->enable_perf(*reg_);
  reg_->meta().workload = "serve " + canonical_spec(spec_);

  runtime_ = std::make_unique<occam::Runtime>(*machine_);
  program_ = std::make_unique<Program>();
  Program& p = *program_;
  p.check.assign(machine_->size(), 0.0);
  if (spec_.program == "saxpy") {
    const std::size_t elems = static_cast<std::size_t>(spec_.elems);
    p.xs.resize(machine_->size());
    p.ys.resize(machine_->size());
    p.zs.resize(machine_->size());
    for (net::NodeId id = 0; id < machine_->size(); ++id) {
      node::Node& nd = machine_->node(id);
      p.xs[id] = nd.alloc64(mem::Bank::A, elems);
      p.ys[id] = nd.alloc64(mem::Bank::B, elems);
      p.zs[id] = nd.alloc64(mem::Bank::B, elems);
      nd.write64(p.xs[id], seeded_vector(spec_, id));
      nd.write64(p.ys[id], seeded_vector(spec_, id + machine_->size()));
    }
    p.body = saxpy_body(spec_, &p.xs, &p.ys, &p.zs, &p.check);
  } else if (spec_.program == "ring") {
    p.body = ring_body(spec_, &p.check);
  } else {
    p.body = allreduce_body(spec_, &p.check);
  }
}

JobRun::~JobRun() = default;

std::uint64_t JobRun::progress() const {
  return psim_ ? psim_->events_processed() : sim_->events_processed();
}

RunOutcome JobRun::execute() {
  const auto exec_t0 = std::chrono::steady_clock::now();
  const sim::SimTime elapsed = runtime_->run(program_->body);
  const auto exec_t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.sim_elapsed = elapsed;
  out.events = psim_ ? psim_->events_processed() : sim_->events_processed();
  out.exec_ms =
      std::chrono::duration<double, std::milli>(exec_t1 - exec_t0).count();
  if (psim_) {
    const sim::ParallelSim::Profile prof = psim_->profile();
    out.engine_epochs = prof.epochs;
    out.engine_merge_ns = prof.merge_ns;
    out.engine_barrier_ns =
        std::accumulate(prof.worker_barrier_ns.begin(),
                        prof.worker_barrier_ns.end(), std::uint64_t{0});
  }
  for (const double c : program_->check) {
    out.checksum += c;
  }

  perf::json::Value results = perf::json::Value::object();
  results["address"] = perf::json::Value::string(content_address(spec_));
  results["checksum"] = perf::json::Value::number(out.checksum);
  results["elapsed_us"] = perf::json::Value::number(elapsed.us());
  results["events"] =
      perf::json::Value::integer(static_cast<std::int64_t>(out.events));
  results["shards"] = perf::json::Value::integer(shards_for(spec_));
  results["spec"] = spec_to_json(spec_);
  // Exactly perf::write_file's on-disk bytes, so a cached result saved to
  // a file is indistinguishable from a dump the example binaries write.
  // write_dump's one reservation holds the newline too, so the cached
  // string is a single allocation with no growth slack.
  std::string bytes;
  perf::write_dump(bytes, *reg_, elapsed, results);
  bytes += '\n';
  out.dump = std::make_shared<const std::string>(std::move(bytes));
  out.serialize_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - exec_t1)
                         .count();
  return out;
}

}  // namespace fpst::serve
