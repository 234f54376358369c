// E9 — §II Memory/Communications: the gather/compute overlap discipline.
// "A primary use for the control processor is to gather operands into a
// contiguous vector, and scatter results back... the control processor can
// completely overlap the gather time with vector arithmetic, and the node
// can approach peak speed. Of course, if vectors are always aligned and
// elements contiguous, no such restriction applies."
//
// Also reproduces the physical-row-movement argument with the record-sort
// kernel (rows through vector registers vs pointer sort + gather).
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "kernels/kernels.hpp"
#include "node/node.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "perf/tscope.hpp"
#include "sim/proc.hpp"
#include "tool_util.hpp"

using namespace fpst;
using fpst::bench::fmt;

namespace {

/// Time for `stripes` stripes of saxpy work whose operands are scattered:
/// with overlap the CP gathers stripe s+1 while the pipes run stripe s.
/// When `reg` is given, the node's counters/spans are collected into it.
sim::SimTime scattered_saxpy(bool overlap, int saxpys_per_stripe,
                             perf::CounterRegistry* reg = nullptr) {
  sim::Simulator sim;
  node::Node nd{sim, 0,
                node::NodeConfig{.dual_bank = true, .overlap = overlap}};
  if (reg != nullptr) {
    reg->meta().dimension = 0;
    reg->meta().nodes = 1;
    nd.attach_perf(*reg);
  }
  const node::Array64 x = nd.alloc64(mem::Bank::A, 128);
  const node::Array64 y = nd.alloc64(mem::Bank::B, 128);
  const node::Array64 z = nd.alloc64(mem::Bank::B, 128);
  sim.spawn([](node::Node* n, node::Array64 ax, node::Array64 ay,
               node::Array64 az, int per) -> sim::Proc {
    for (int s = 0; s < 12; ++s) {
      std::vector<sim::Proc> par;
      par.push_back(n->gather(128));
      par.push_back([](node::Node* nn, node::Array64 x2, node::Array64 y2,
                       node::Array64 z2, int f) -> sim::Proc {
        for (int i = 0; i < f; ++i) {
          co_await nn->vscalar(vpu::VectorForm::vsaxpy, 2.0, x2, y2, z2);
        }
      }(n, ax, ay, az, per));
      co_await sim::WhenAll{std::move(par)};
    }
  }(&nd, x, y, z, saxpys_per_stripe));
  sim.run();
  return sim.now();
}

/// Aligned/contiguous operands: no gather at all.
sim::SimTime aligned_saxpy(int saxpys_per_stripe) {
  sim::Simulator sim;
  node::Node nd{sim, 0};
  const node::Array64 x = nd.alloc64(mem::Bank::A, 128);
  const node::Array64 y = nd.alloc64(mem::Bank::B, 128);
  const node::Array64 z = nd.alloc64(mem::Bank::B, 128);
  sim.spawn([](node::Node* n, node::Array64 ax, node::Array64 ay,
               node::Array64 az, int per) -> sim::Proc {
    for (int s = 0; s < 12; ++s) {
      for (int i = 0; i < per; ++i) {
        co_await n->vscalar(vpu::VectorForm::vsaxpy, 2.0, ax, ay, az);
      }
    }
  }(&nd, x, y, z, saxpys_per_stripe));
  sim.run();
  return sim.now();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (!tools::Flags{"bench_overlap"}
           .text("--json", &json_path)
           .parse(argc, argv)) {
    return 2;
  }
  bench::title("E9: gather/compute overlap and physical data movement");

  bench::section("scattered operands: overlap vs serial vs aligned");
  std::printf("  %12s | %12s %12s %12s | %10s\n", "flops/elem",
              "aligned", "overlapped", "serial", "ovl eff");
  for (int per : {1, 3, 7, 13, 20}) {
    const sim::SimTime al = aligned_saxpy(per);
    const sim::SimTime ov = scattered_saxpy(true, per);
    const sim::SimTime se = scattered_saxpy(false, per);
    std::printf("  %12d | %12s %12s %12s | %9.0f%%\n", 2 * per,
                al.to_string().c_str(), ov.to_string().c_str(),
                se.to_string().c_str(), 100.0 * (al / ov));
  }
  std::printf(
      "  -> above ~13 flops per gathered element the overlapped run\n"
      "     matches the aligned run: gathering disappears behind the\n"
      "     pipes; without overlap it always adds its full 1.6 us/elem.\n");

  bench::section("moving records physically vs pointer sort + gather");
  std::printf("  %9s | %14s %14s %9s\n", "records", "physical rows",
              "pointers", "ratio");
  for (std::size_t recs : {32u, 64u, 128u, 256u}) {
    const auto phys = kernels::run_record_sort(recs, true);
    const auto ptrs = kernels::run_record_sort(recs, false);
    std::printf("  %9zu | %14s %14s %8.1fx\n", recs,
                phys.elapsed.to_string().c_str(),
                ptrs.elapsed.to_string().c_str(), ptrs.elapsed / phys.elapsed);
  }
  std::printf(
      "  -> whole 1024-byte rows move in 400 ns (2560 MB/s); assembling\n"
      "     the same data through the CP gather path costs 1.6 us per\n"
      "     64-bit word — the paper's \"extraordinary speed\" argument for\n"
      "     moving data physically when pivoting or sorting.\n");

  if (!json_path.empty()) {
    // Dump the no-overlap 2-flops-per-element ablation: the worst point of
    // the table above and a deliberate 13-flops-per-gathered-element
    // balance violation, which ttrace must flag.
    perf::CounterRegistry reg;
    reg.meta().workload = "scattered_saxpy_no_overlap";
    const sim::SimTime wall = scattered_saxpy(false, 1, &reg);
    perf::json::Value results = perf::json::Value::object();
    results["aligned_us"] = perf::json::Value::number(aligned_saxpy(1).us());
    results["serial_us"] = perf::json::Value::number(wall.us());
    // Message report (empty on this single-node run — same schema as the
    // machine benches, so downstream consumers need no special case).
    results["messages"] = perf::messages_to_json(
        perf::analyze_messages(perf::snapshot(reg, wall)));
    perf::write_file(json_path, reg, wall, results);
    std::printf("  wrote perf dump: %s\n", json_path.c_str());
  }
  return 0;
}
