// alltoall_traced: the tscope observability demo and CI fixture. Runs a
// full all-to-all (every node sends one message to every other node) on a
// 4-cube with machine-wide perf collection attached, then writes a dump
// whose message-lifecycle events tscope stitches into flight records:
//
//   $ ./alltoall_traced [out.json] [dimension] [--threads N]
//                                        (default alltoall.json, 4)
//   $ tscope alltoall.json              — latency percentiles, critical path
//   $ tscope --edges alltoall.json      — congestion vs e-cube prediction
//   $ tscope --check-ecube alltoall.json
//   $ tscope --summary alltoall.json    — per-node message table
//
// --threads 1 (the default) runs the serial engine exactly as before;
// --threads N>1 builds the machine over the sharded parallel engine
// (shards fixed at min(4, nodes) so the dump is identical for every
// worker-thread count).
//
// The simulation is deterministic, so two runs of this program produce
// byte-identical dumps — ci.sh diffs them to pin that property, serial and
// parallel alike.
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

constexpr std::uint16_t kTag = 7;
constexpr std::size_t kElems = 16;  // doubles per message

sim::Proc drain(occam::Ctx* ctx, std::size_t peers, double* sum) {
  for (std::size_t i = 0; i < peers; ++i) {
    occam::Msg m;
    co_await ctx->recv_any(kTag, &m);
    for (const double v : m.data) {
      *sum += v;
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  // From a 5-cube up, every node injecting all its sends at once saturates
  // the store-and-forward routers into a communication deadlock.
  std::string out = "alltoall.json";
  int dim = 4;
  int threads = 1;
  if (!tools::Flags{"alltoall_traced"}
           .text("out.json", &out)
           .number("dimension", &dim, 0, 4)
           .number("--threads", &threads, 1)
           .parse(argc, argv)) {
    return 2;
  }

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<sim::ParallelSim> psim;
  std::unique_ptr<core::TSeries> machine_ptr;
  if (threads > 1) {
    sim::ParallelSim::Options po;
    po.shards = std::min(4, 1 << dim);
    po.threads = threads;
    po.lookahead = link::LinkParams::transfer_time(0);
    psim = std::make_unique<sim::ParallelSim>(po);
    machine_ptr = std::make_unique<core::TSeries>(*psim, dim);
  } else {
    sim = std::make_unique<sim::Simulator>();
    machine_ptr = std::make_unique<core::TSeries>(*sim, dim);
  }
  core::TSeries& machine = *machine_ptr;
  perf::CounterRegistry reg;
  machine.enable_perf(reg);
  reg.meta().workload = "alltoall d=" + std::to_string(dim);
  occam::Runtime rt{machine};

  const std::size_t n = machine.size();
  std::vector<double> sums(n, 0.0);
  const sim::SimTime elapsed = rt.run([&](occam::Ctx& ctx) -> sim::Proc {
    std::vector<sim::Proc> par;
    // Shifted send order (id+1, id+2, ...) so no destination is hit by
    // every source at once; receives drain concurrently.
    for (std::size_t rel = 1; rel < n; ++rel) {
      const net::NodeId peer =
          static_cast<net::NodeId>((ctx.id() + rel) % n);
      std::vector<double> payload(kElems, 1.0 + ctx.id());
      par.push_back(ctx.send(peer, kTag, std::move(payload)));
    }
    par.push_back(drain(&ctx, n - 1, &sums[ctx.id()]));
    co_await sim::WhenAll{std::move(par)};
  });

  // Node i receives kElems * (1 + j) from every j != i.
  double expect_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expect_total += static_cast<double>(kElems) * (1.0 + static_cast<double>(i));
  }
  expect_total *= static_cast<double>(n - 1);
  double total = 0;
  for (const double s : sums) {
    total += s;
  }

  perf::json::Value results = perf::json::Value::object();
  results["received_sum"] = perf::json::Value::number(total);
  results["elapsed_us"] = perf::json::Value::number(elapsed.us());
  perf::write_file(out, reg, elapsed, results);

  std::printf("all-to-all on %zu nodes (%d-cube): %zu messages, %s simulated\n",
              n, dim, n * (n - 1), elapsed.to_string().c_str());
  std::printf("wrote %s — tscope/ttrace/chrome://tracing will read it\n",
              out.c_str());
  if (total != expect_total) {
    std::printf("checksum MISMATCH: got %.1f expect %.1f\n", total,
                expect_total);
    return 1;
  }
  return 0;
} catch (...) {
  return tools::refused("alltoall_traced");
}
