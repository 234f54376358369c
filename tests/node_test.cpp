// Tests for the assembled processor node: the 1:13:130 balance ratios, bank
// allocation, the strip-mined vector math API, CP/VPU overlap, and two nodes
// exchanging data over a link from TISA programs.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "node/node.hpp"

namespace fpst::node {
namespace {

using namespace fpst::sim::literals;
using sim::Proc;
using sim::SimTime;
using sim::Simulator;
using vpu::VectorForm;

TEST(BalanceRatios, PaperOneThirteenOneThirty) {
  // (Arithmetic) : (Gather) : (Link) = 0.125 us : 1.6 us : 16 us.
  EXPECT_EQ(BalanceRatios::arithmetic(), 125_ns);
  EXPECT_EQ(BalanceRatios::gather(), 1600_ns);
  EXPECT_EQ(BalanceRatios::link_word(), 16_us);
  EXPECT_NEAR(BalanceRatios::gather_over_arith(), 13.0, 0.3);
  EXPECT_NEAR(BalanceRatios::link_over_arith(), 130.0, 2.5);
}

class NodeTest : public ::testing::Test {
 protected:
  Simulator sim;
  Node node{sim, 0};
};

TEST_F(NodeTest, RowAllocatorRespectsBanks) {
  const std::size_t a = node.alloc_rows(mem::Bank::A, 10);
  const std::size_t b = node.alloc_rows(mem::Bank::B, 10);
  EXPECT_LT(a, mem::MemParams::kBankARows);
  EXPECT_GE(b, mem::MemParams::kBankARows);
  EXPECT_THROW(node.alloc_rows(mem::Bank::A, 1000), std::runtime_error);
  node.reset_allocator();
  EXPECT_EQ(node.alloc_rows(mem::Bank::A, 1), 0u);
}

TEST_F(NodeTest, Array64Geometry) {
  EXPECT_EQ((Array64{0, 128}).rows(), 1u);
  EXPECT_EQ((Array64{0, 129}).rows(), 2u);
  EXPECT_EQ((Array64{0, 1000}).rows(), 8u);
}

TEST_F(NodeTest, StageAndReadBack) {
  const Array64 a = node.alloc64(mem::Bank::A, 300);
  std::vector<double> v(300);
  std::iota(v.begin(), v.end(), 1.0);
  node.write64(a, v);
  EXPECT_EQ(node.read64(a), v);
}

Proc run_saxpy(Node* n, double a, Array64 x, Array64 y, Array64 z) {
  co_await n->vscalar(VectorForm::vsaxpy, a, x, y, z);
}

TEST_F(NodeTest, StripMinedSaxpyMatchesHost) {
  const std::size_t n = 500;  // four stripes
  const Array64 x = node.alloc64(mem::Bank::A, n);
  const Array64 y = node.alloc64(mem::Bank::B, n);
  const Array64 z = node.alloc64(mem::Bank::B, n);
  std::mt19937_64 rng{1};
  std::uniform_real_distribution<double> dist(-10, 10);
  std::vector<double> xv(n);
  std::vector<double> yv(n);
  for (std::size_t i = 0; i < n; ++i) {
    xv[i] = dist(rng);
    yv[i] = dist(rng);
  }
  node.write64(x, xv);
  node.write64(y, yv);
  sim.spawn(run_saxpy(&node, 2.5, x, y, z));
  sim.run();
  const std::vector<double> zv = node.read64(z);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(zv[i], 2.5 * xv[i] + yv[i]) << i;
  }
  // Rough rate check: 2n flops near peak for long vectors.
  const double mflops = 2.0 * static_cast<double>(n) / sim.now().us();
  EXPECT_GT(mflops, 11.0);
  EXPECT_LE(mflops, 16.0);
}

Proc run_dot(Node* n, Array64 x, Array64 y, double* out) {
  co_await n->vreduce(VectorForm::vdot, x, y, out);
}

TEST_F(NodeTest, StripMinedDotCloseToHost) {
  const std::size_t n = 400;
  const Array64 x = node.alloc64(mem::Bank::A, n);
  const Array64 y = node.alloc64(mem::Bank::B, n);
  std::vector<double> xv(n);
  std::vector<double> yv(n);
  double host = 0;
  for (std::size_t i = 0; i < n; ++i) {
    xv[i] = 0.25 * static_cast<double>(i % 31) - 3;
    yv[i] = 0.5 * static_cast<double>(i % 17) - 4;
    host += xv[i] * yv[i];
  }
  node.write64(x, xv);
  node.write64(y, yv);
  double result = 0;
  sim.spawn(run_dot(&node, x, y, &result));
  sim.run();
  EXPECT_NEAR(result, host, 1e-9 * std::abs(host) + 1e-9);
}

Proc run_maxval(Node* n, Array64 x, double* out, std::size_t* idx) {
  co_await n->vreduce(VectorForm::vmaxval, x, Array64{}, out, idx);
}

TEST_F(NodeTest, MaxValAcrossStripesFindsGlobalIndex) {
  const std::size_t n = 300;
  const Array64 x = node.alloc64(mem::Bank::A, n);
  std::vector<double> xv(n, 1.0);
  xv[257] = 42.0;  // in the third stripe
  node.write64(x, xv);
  double best = 0;
  std::size_t idx = 0;
  sim.spawn(run_maxval(&node, x, &best, &idx));
  sim.run();
  EXPECT_EQ(best, 42.0);
  EXPECT_EQ(idx, 257u);
}

Proc overlap_workload(Node* n, Array64 x, Array64 z) {
  // A vector op and a CP gather issued in parallel (PAR): with overlap they
  // cost max(t_v, t_g); without, they serialise.
  co_await sim::WhenAll{n->vscalar(VectorForm::vsmul, 2.0, x, Array64{}, z),
                        n->gather(64)};
}

TEST(NodeOverlap, GatherOverlapsVectorArithmetic) {
  Simulator sim;
  Node fast{sim, 0};
  const Array64 x = fast.alloc64(mem::Bank::A, 128);
  const Array64 z = fast.alloc64(mem::Bank::B, 128);
  sim.spawn(overlap_workload(&fast, x, z));
  sim.run();
  const SimTime overlapped = sim.now();

  Simulator sim2;
  Node slow{sim2, 0, NodeConfig{.dual_bank = true, .overlap = false}};
  const Array64 x2 = slow.alloc64(mem::Bank::A, 128);
  const Array64 z2 = slow.alloc64(mem::Bank::B, 128);
  sim2.spawn(overlap_workload(&slow, x2, z2));
  sim2.run();
  const SimTime serial = sim2.now();

  // gather(64) = 102.4 us dominates the ~17 us vector op.
  EXPECT_LT(overlapped, 105_us);
  EXPECT_GT(serial / overlapped, 1.1);
}

TEST(NodeLinkIntegration, TisaProgramsExchangeWordOverALink) {
  Simulator sim;
  Node a{sim, 0};
  Node b{sim, 1};
  link::Link cable{sim};
  std::array<link::LinkStats, 2> sent;  // a standalone cable's statistics
  cable.attach(0, sent[0], nullptr);
  cable.attach(1, sent[1], nullptr);
  a.links().attach(0, cable, 0);
  b.links().attach(0, cable, 1);

  // Node a sends the word 1234 over port 0 sublink 0; node b receives it
  // and stores it at 0x2000.
  const cp::Program pa = cp::assemble(R"(
      ldc 1234
      stl 0
      ldlp 0
      ldc 0xF0000000   ; port 0, sublink 0, output
      ldc 4
      out
      halt
  )");
  const cp::Program pb = cp::assemble(R"(
      ldlp 0
      ldc 0xF0000001   ; port 0, sublink 0, input
      ldc 4
      in
      ldl 0
      ldc 0x2000
      stnl 0
      halt
  )");
  a.cpu().load(pa);
  b.cpu().load(pb);
  a.cpu().start_process(pa.entry(), 0x8000, 1);
  b.cpu().start_process(pb.entry(), 0x8000, 1);
  sim.spawn(a.cpu().run());
  sim.spawn(b.cpu().run());
  sim.run();
  EXPECT_EQ(b.cpu().read_word(0x2000), 1234u);
  // Wire time for 4+8 bytes at 2 us/byte plus 5 us DMA startup.
  EXPECT_GT(sim.now(), 29_us);
  EXPECT_LT(sim.now(), 40_us);
}

TEST(NodeLinkIntegration, HardChannelPortFifteenIsABadPort) {
  // A hard-channel word carries a 4-bit port, but a node has four link
  // ports: naming port 15 must fail with a port error rather than index
  // past the port table.
  for (const char* op : {"out", "in"}) {
    SCOPED_TRACE(op);
    Simulator sim;
    Node nd{sim, 0};
    const bool out = std::string(op) == "out";
    const cp::Program prog = cp::assemble(
        std::string("ldlp 4\nldc ") + (out ? "0xF0000078" : "0xF0000079") +
        "\nldc 8\n" + op + "\nhalt\n");
    nd.cpu().load(prog);
    nd.cpu().start_process(prog.entry(), 0x8000, 1);
    sim.spawn(nd.cpu().run());
    try {
      sim.run();
      ADD_FAILURE() << "port 15 accepted";
    } catch (const sim::ProcError& e) {
      const std::string want =
          std::string("NodeLinks::") + (out ? "send" : "inbox") + ": bad port";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace fpst::node
