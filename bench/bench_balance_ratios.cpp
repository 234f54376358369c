// E3 — the paper's balance table (§II Communications):
//
//   (Arithmetic Time) : (Gather Time) : (Link Transfer Time)
//        .125 us            1.6 us           16 us
//          1         :       13       :       130
//
// plus the two engineering rules derived from it: ~13 operations per
// gathered element and ~130 operations per word sent over a link keep the
// node at speed. The second half of the bench demonstrates the gather rule
// live: a workload that performs k flops per gathered element overlaps CP
// gathering with vector arithmetic, and node efficiency collapses once
// k < 13.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "node/node.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "sim/proc.hpp"
#include "tool_util.hpp"

using namespace fpst;
using fpst::bench::claim;
using fpst::bench::fmt;

namespace {

/// Run `stripes` rounds in which the CP gathers the next stripe while the
/// VPU performs `forms_per_stripe` chained SAXPY forms on the current one
/// (k = forms_per_stripe * 2 flops per element). Returns achieved MFLOPS.
/// When `reg` is given, the node's counters/spans are collected into it and
/// `*wall` receives the simulated end time (for perf::write_file).
double overlap_mflops(int forms_per_stripe, bool overlap,
                      perf::CounterRegistry* reg = nullptr,
                      sim::SimTime* wall = nullptr) {
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
  constexpr int kStripes = 16;
  sim.spawn([](node::Node* n, node::Array64 ax, node::Array64 ay,
               node::Array64 az, int forms) -> sim::Proc {
    for (int s = 0; s < kStripes; ++s) {
      // PAR: gather the next stripe || compute on the current stripe.
      std::vector<sim::Proc> par;
      par.push_back(n->gather(128));
      par.push_back([](node::Node* nn, node::Array64 x2, node::Array64 y2,
                       node::Array64 z2, int f) -> sim::Proc {
        for (int i = 0; i < f; ++i) {
          co_await nn->vscalar(vpu::VectorForm::vsaxpy, 1.0001, x2, y2, z2);
        }
      }(n, ax, ay, az, forms));
      co_await sim::WhenAll{std::move(par)};
    }
  }(&nd, x, y, z, forms_per_stripe));
  sim.run();
  if (wall != nullptr) {
    *wall = sim.now();
  }
  return static_cast<double>(nd.flops()) / sim.now().us();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (!tools::Flags{"bench_balance_ratios"}
           .text("--json", &json_path)
           .parse(argc, argv)) {
    return 2;
  }
  bench::title("E3: arithmetic : gather : link balance (64-bit)");

  const sim::SimTime arith = node::BalanceRatios::arithmetic();
  const sim::SimTime gather = node::BalanceRatios::gather();
  const sim::SimTime link = node::BalanceRatios::link_word();
  claim("arithmetic time per result", ".125 us", arith.to_string());
  claim("gather-scatter move per 64-bit element", "1.6 us",
        gather.to_string());
  claim("link transfer per 64-bit word", "16 us", link.to_string());
  claim("ratio", "1 : 13 : 130",
        fmt("1 : %.1f", gather / arith) + fmt(" : %.0f", link / arith));

  bench::section(
      "the 13-flops-per-gathered-element rule (gather || compute overlap)");
  std::printf("  %10s %10s | %14s %14s %9s\n", "forms", "flops/elem",
              "MFLOPS(ovl)", "MFLOPS(serial)", "eff(ovl)");
  perf::json::Value rows = perf::json::Value::array();
  for (int forms : {1, 2, 4, 7, 10, 16, 24}) {
    const double k = 2.0 * forms;  // saxpy = 2 flops/element
    const double ovl = overlap_mflops(forms, true);
    const double ser = overlap_mflops(forms, false);
    std::printf("  %10d %10.0f | %14.2f %14.2f %8.0f%%\n", forms, k, ovl,
                ser, 100.0 * ovl / 16.0);
    perf::json::Value row = perf::json::Value::object();
    row["flops_per_elem"] = perf::json::Value::number(k);
    row["mflops_overlap"] = perf::json::Value::number(ovl);
    row["mflops_serial"] = perf::json::Value::number(ser);
    rows.append(std::move(row));
  }
  std::printf(
      "  -> with >= ~13 flops per gathered element the overlapped node\n"
      "     approaches peak; below that the CP gather starves the pipes,\n"
      "     exactly the paper's provision.\n");

  if (!json_path.empty()) {
    // Re-run the 14-flops/elem point (comfortably balanced) with perf
    // collection attached and dump counters + spans + the table above.
    perf::CounterRegistry reg;
    reg.meta().workload = "balance_overlap_7forms";
    sim::SimTime wall{};
    overlap_mflops(7, true, &reg, &wall);
    perf::json::Value results = perf::json::Value::object();
    results["overlap_table"] = std::move(rows);
    perf::write_file(json_path, reg, wall, results);
    std::printf("  wrote perf dump: %s\n", json_path.c_str());
  }
  return 0;
}
