// Tests for the node's 32-bit operating mode: 256-element vectors, the
// five-stage multiplier, 0.8 us gathers, and single-precision results
// matching host float arithmetic.
#include <gtest/gtest.h>

#include <functional>
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

class Node32Test : public ::testing::Test {
 protected:
  Simulator sim;
  Node node{sim, 0};
};

TEST_F(Node32Test, Array32Geometry) {
  EXPECT_EQ((Array32{0, 256}).rows(), 1u) << "256 x 32-bit per vector";
  EXPECT_EQ((Array32{0, 257}).rows(), 2u);
  EXPECT_EQ((Array32{0, 1000}).rows(), 4u);
}

TEST_F(Node32Test, StageAndReadBack32) {
  const Array32 a = node.alloc32(mem::Bank::A, 600);
  std::vector<float> v(600);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 0.5f * static_cast<float>(i);
  }
  node.write32(a, v);
  EXPECT_EQ(node.read32(a), v);
}

Proc saxpy32(Node* n, double a, Array32 x, Array32 y, Array32 z) {
  co_await n->vscalar32(VectorForm::vsaxpy, a, x, y, z);
}

TEST_F(Node32Test, StripMinedSaxpy32MatchesHostFloat) {
  const std::size_t n = 700;  // three stripes
  const Array32 x = node.alloc32(mem::Bank::A, n);
  const Array32 y = node.alloc32(mem::Bank::B, n);
  const Array32 z = node.alloc32(mem::Bank::B, n);
  std::mt19937 rng{11};
  std::uniform_real_distribution<float> dist(-10.0f, 10.0f);
  std::vector<float> xv(n);
  std::vector<float> yv(n);
  for (std::size_t i = 0; i < n; ++i) {
    xv[i] = dist(rng);
    yv[i] = dist(rng);
  }
  node.write32(x, xv);
  node.write32(y, yv);
  sim.spawn(saxpy32(&node, 2.5, x, y, z));
  sim.run();
  const std::vector<float> zv = node.read32(z);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(zv[i], 2.5f * xv[i] + yv[i]) << i;
  }
}

TEST_F(Node32Test, FullVectorIsTwiceAsLongForTheSameRowTime) {
  // One 256-element f32 stripe streams in the same wall time per element as
  // f64 (one result per 125 ns either way), so a full row of f32 work takes
  // about twice as long as a full row of f64 work but does twice the
  // elements.
  const vpu::VectorOp op32{VectorForm::vadd, vpu::Precision::f32, 256, 0,
                           300, 600, fp::T64{}};
  const vpu::VectorOp op64{VectorForm::vadd, vpu::Precision::f64, 128, 0,
                           300, 600, fp::T64{}};
  const SimTime t32 = node.vector_unit().duration_of(op32);
  const SimTime t64 = node.vector_unit().duration_of(op64);
  EXPECT_GT(t32, t64);
  EXPECT_LT(t32 / t64, 2.0);
}

Proc run_gathers(Node* n, std::size_t elems, bool narrow) {
  if (narrow) {
    co_await n->gather32(elems);
  } else {
    co_await n->gather(elems);
  }
}

TEST_F(Node32Test, Gather32CostsHalfOfGather64) {
  sim.spawn(run_gathers(&node, 100, true));
  sim.run();
  const SimTime t32 = sim.now();
  EXPECT_EQ(t32, 100 * mem::MemParams::gather_move32());

  Simulator sim2;
  Node node2{sim2, 0};
  sim2.spawn(run_gathers(&node2, 100, false));
  sim2.run();
  EXPECT_EQ(sim2.now(), 2 * t32) << "0.8 us vs 1.6 us per element";
}

TEST_F(Node32Test, SinglePrecisionFlushesToZeroToo) {
  const Array32 x = node.alloc32(mem::Bank::A, 2);
  const Array32 z = node.alloc32(mem::Bank::B, 2);
  node.write32(x, std::vector<float>{1e-30f, 1.0f});
  vpu::OpResult r;
  sim.spawn([](Node* n, Array32 ax, Array32 az, vpu::OpResult* out) -> Proc {
    co_await n->vscalar32(VectorForm::vsmul, 1e-20, ax, Array32{}, az, out);
  }(&node, x, z, &r));
  sim.run();
  const std::vector<float> zv = node.read32(z);
  EXPECT_EQ(zv[0], 0.0f) << "1e-50 flushes in binary32";
  EXPECT_TRUE(r.flags.underflow);
  EXPECT_NEAR(zv[1], 1e-20f, 1e-26f);
}

TEST_F(Node32Test, LengthMismatchFailsTheProcess) {
  // The node ops are coroutines: a length mismatch or a form of the wrong
  // kind surfaces when the process runs (as a ProcError from the simulator
  // naming the call), not at call time. Every strip-mined call, both ways.
  const Array64 x = node.alloc64(mem::Bank::A, 10);
  const Array64 z = node.alloc64(mem::Bank::B, 12);
  const Array32 x32 = node.alloc32(mem::Bank::A, 10);
  const Array32 z32 = node.alloc32(mem::Bank::B, 12);
  double r = 0.0;
  struct Row {
    const char* call;
    const char* error;
    std::function<Proc(Node&)> start;
  };
  const std::vector<Row> rows = {
      {"Node::vbinary", "length mismatch",
       [&](Node& n) { return n.vbinary(VectorForm::vadd, x, x, z); }},
      {"Node::vbinary", "reduction",
       [&](Node& n) { return n.vbinary(VectorForm::vsum, x, x, x); }},
      {"Node::vscalar", "length mismatch",
       [&](Node& n) { return n.vscalar(VectorForm::vsaxpy, 2.0, x, z, x); }},
      {"Node::vscalar", "reduction",
       [&](Node& n) { return n.vscalar(VectorForm::vdot, 2.0, x, x, x); }},
      {"Node::vbinary32", "length mismatch",
       [&](Node& n) { return n.vbinary32(VectorForm::vadd, x32, x32, z32); }},
      {"Node::vbinary32", "reduction",
       [&](Node& n) {
         return n.vbinary32(VectorForm::vmaxval, x32, x32, x32);
       }},
      {"Node::vscalar32", "length mismatch",
       [&](Node& n) {
         return n.vscalar32(VectorForm::vsmul, 2.0, x32, Array32{}, z32);
       }},
      {"Node::vscalar32", "reduction",
       [&](Node& n) {
         return n.vscalar32(VectorForm::vsum, 2.0, x32, x32, x32);
       }},
      {"Node::vreduce", "length mismatch",
       [&](Node& n) { return n.vreduce(VectorForm::vdot, x, z, &r); }},
      {"Node::vreduce", "not a reduction",
       [&](Node& n) { return n.vreduce(VectorForm::vadd, x, x, &r); }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.call) + ": " + row.error);
    Simulator s;
    Node n{s, 0};
    s.spawn(row.start(n));
    try {
      s.run();
      ADD_FAILURE() << "the process did not fail";
    } catch (const sim::ProcError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(row.call) + ": "), std::string::npos)
          << what;
      EXPECT_NE(what.find(row.error), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace fpst::node
