// traced_saxpy: the tperf observability demo. Runs a gather-overlapped
// SAXPY workload plus a cube-wide reduction on a 2-cube with machine-wide
// perf collection attached, then writes a dump that is simultaneously a
// Chrome trace and a ttrace/CI input:
//
//   $ ./traced_saxpy [out.json] [--threads N]  (default ./traced_saxpy.json)
//   $ ttrace traced_saxpy.json      — utilization + balance report
//   open the same file in chrome://tracing or https://ui.perfetto.dev
//
// --threads 1 (the default) runs the serial engine exactly as before;
// --threads N>1 builds the machine over the sharded parallel engine
// (shards fixed at min(4, nodes) so the dump is identical for every
// worker-thread count).
//
// Every vector form here is a full 128-element VSAXPY, so the report's
// vpu-active MFLOPS must equal bench_fig1_node's 128-element SAXPY rate —
// ci.sh asserts that equivalence to within 1%.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "link/link.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/proc.hpp"
#include "tool_util.hpp"

using namespace fpst;

namespace {

constexpr int kStripes = 6;
constexpr int kSaxpysPerStripe = 8;
constexpr std::size_t kElems = 128;  // one full 64-bit row

}  // namespace

int main(int argc, char** argv) try {
  std::string out = "traced_saxpy.json";
  int threads = 1;
  if (!tools::Flags{"traced_saxpy"}
           .text("out.json", &out)
           .number("--threads", &threads, 1)
           .parse(argc, argv)) {
    return 2;
  }
  constexpr int kDim = 2;

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<sim::ParallelSim> psim;
  std::unique_ptr<core::TSeries> machine_ptr;
  if (threads > 1) {
    sim::ParallelSim::Options po;
    po.shards = std::min(4, 1 << kDim);
    po.threads = threads;
    po.lookahead = link::LinkParams::transfer_time(0);
    psim = std::make_unique<sim::ParallelSim>(po);
    machine_ptr = std::make_unique<core::TSeries>(*psim, kDim);
  } else {
    sim = std::make_unique<sim::Simulator>();
    machine_ptr = std::make_unique<core::TSeries>(*sim, kDim);
  }
  core::TSeries& machine = *machine_ptr;
  perf::CounterRegistry reg;
  machine.enable_perf(reg);
  reg.meta().workload = "traced_saxpy";
  occam::Runtime rt{machine};

  std::vector<node::Array64> xs(machine.size());
  std::vector<node::Array64> ys(machine.size());
  std::vector<node::Array64> zs(machine.size());
  for (net::NodeId id = 0; id < machine.size(); ++id) {
    node::Node& nd = machine.node(id);
    xs[id] = nd.alloc64(mem::Bank::A, kElems);
    ys[id] = nd.alloc64(mem::Bank::B, kElems);
    zs[id] = nd.alloc64(mem::Bank::B, kElems);
    std::vector<double> v(kElems, 1.0 + id);
    nd.write64(xs[id], v);
    nd.write64(ys[id], v);
  }

  std::vector<double> sums(machine.size());
  const sim::SimTime elapsed = rt.run([&](occam::Ctx& ctx) -> sim::Proc {
    node::Node& nd = ctx.node();
    // The paper's overlap discipline: while the pipes run this stripe's
    // VSAXPYs, the control processor gathers the next stripe's operands.
    for (int s = 0; s < kStripes; ++s) {
      std::vector<sim::Proc> par;
      par.push_back(nd.gather(kElems));
      par.push_back([](node::Node* n, node::Array64 x, node::Array64 y,
                       node::Array64 z) -> sim::Proc {
        for (int i = 0; i < kSaxpysPerStripe; ++i) {
          co_await n->vscalar(vpu::VectorForm::vsaxpy, 2.0, x, y, z);
        }
      }(&nd, xs[ctx.id()], ys[ctx.id()], zs[ctx.id()]));
      co_await sim::WhenAll{std::move(par)};
    }
    // A cube collective so the dump has link traffic too. The reduction is
    // host-side adds plus exchanges — no vector-unit work, which keeps the
    // vpu-active MFLOPS a pure 128-element VSAXPY measurement.
    double local = 1.0 + ctx.id();
    co_await ctx.allreduce_sum(&local);
    sums[ctx.id()] = local;
  });

  perf::json::Value results = perf::json::Value::object();
  results["allreduce_sum"] = perf::json::Value::number(sums[0]);
  results["elapsed_us"] = perf::json::Value::number(elapsed.us());
  perf::write_file(out, reg, elapsed, results);

  std::printf("traced %d stripes x %d VSAXPY(%zu) on %zu nodes: %s simulated\n",
              kStripes, kSaxpysPerStripe, kElems, machine.size(),
              elapsed.to_string().c_str());
  std::printf("allreduce sum = %.1f (expect %.1f)\n", sums[0],
              static_cast<double>(machine.size() * (machine.size() + 1)) / 2);
  std::printf("wrote %s — ttrace or chrome://tracing will read it\n",
              out.c_str());
  return sums[0] ==
                 static_cast<double>(machine.size() * (machine.size() + 1)) / 2
             ? 0
             : 1;
} catch (...) {
  return tools::refused("traced_saxpy");
}
