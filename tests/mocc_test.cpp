// Tests for the MOCC compiler: expressions, control flow, procedures and
// recursion, CSP channels, PAR fork-join, ALT, and interaction with the
// simulated control processor's timing.
#include <gtest/gtest.h>

#include <array>

#include "core/machine.hpp"
#include "mocc/mocc.hpp"
#include "node/node.hpp"

namespace fpst::mocc {
namespace {

using namespace fpst::sim::literals;

class MoccTest : public ::testing::Test {
 protected:
  /// Compile and run a MOCC program; main starts at workspace 0xA000.
  void run(const std::string& src, sim::SimTime limit = 100_ms) {
    const cp::Program p = compile(src);
    cpu.load(p);
    cpu.start_process(p.symbol("main"), 0xA000, 1);
    sim.spawn(cpu.run());
    sim.run_until(limit);
  }

  std::uint32_t word(std::uint32_t addr) { return cpu.read_word(addr); }

  sim::Simulator sim;
  mem::NodeMemory memory;
  vpu::VectorUnit vpu{memory};
  cp::Cpu cpu{sim, memory, vpu};
};

TEST_F(MoccTest, ArithmeticAndPrecedence) {
  run(R"(
    proc main() {
      poke(0x2000, 2 + 3 * 4);
      poke(0x2004, (2 + 3) * 4);
      poke(0x2008, 100 / 7);
      poke(0x200c, 100 % 7);
      poke(0x2010, -5 + 8);
      poke(0x2014, 10 - 2 - 3);
      halt;
    }
  )");
  EXPECT_TRUE(cpu.halted());
  EXPECT_EQ(word(0x2000), 14u);
  EXPECT_EQ(word(0x2004), 20u);
  EXPECT_EQ(word(0x2008), 14u);
  EXPECT_EQ(word(0x200c), 2u);
  EXPECT_EQ(word(0x2010), 3u);
  EXPECT_EQ(word(0x2014), 5u);
}

TEST_F(MoccTest, Comparisons) {
  run(R"(
    proc main() {
      poke(0x2000, 3 < 5);
      poke(0x2004, 5 < 3);
      poke(0x2008, 5 > 3);
      poke(0x200c, 3 >= 3);
      poke(0x2010, 3 <= 2);
      poke(0x2014, 7 == 7);
      poke(0x2018, 7 != 7);
      poke(0x201c, -2 < 1);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 1u);
  EXPECT_EQ(word(0x2004), 0u);
  EXPECT_EQ(word(0x2008), 1u);
  EXPECT_EQ(word(0x200c), 1u);
  EXPECT_EQ(word(0x2010), 0u);
  EXPECT_EQ(word(0x2014), 1u);
  EXPECT_EQ(word(0x2018), 0u);
  EXPECT_EQ(word(0x201c), 1u) << "signed comparison";
}

TEST_F(MoccTest, VariablesAndWhile) {
  run(R"(
    proc main() {
      var sum = 0;
      var i = 1;
      while (i <= 100) {
        sum = sum + i;
        i = i + 1;
      }
      poke(0x2000, sum);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 5050u);
}

TEST_F(MoccTest, IfElseChains) {
  run(R"(
    global r;
    proc classify(x) {
      if (x < 0) { r = 1; } else {
        if (x == 0) { r = 2; } else { r = 3; }
      }
    }
    proc main() {
      classify(-5);
      poke(0x2000, r);
      classify(0);
      poke(0x2004, r);
      classify(9);
      poke(0x2008, r);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 1u);
  EXPECT_EQ(word(0x2004), 2u);
  EXPECT_EQ(word(0x2008), 3u);
}

TEST_F(MoccTest, ProceduresWithParametersAndReturn) {
  run(R"(
    proc madd(a, b, c) {
      return a * b + c;
    }
    proc main() {
      poke(0x2000, madd(3, 4, 5));
      poke(0x2004, madd(madd(1, 2, 3), 10, 0));
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 17u);
  EXPECT_EQ(word(0x2004), 50u);
}

TEST_F(MoccTest, RecursionWorks) {
  run(R"(
    proc fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    proc main() {
      poke(0x2000, fib(15));
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 610u);
}

TEST_F(MoccTest, GlobalsSharedAcrossProcs) {
  run(R"(
    global counter;
    proc bump() { counter = counter + 1; }
    proc main() {
      counter = 40;
      bump();
      bump();
      poke(0x2000, counter);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 42u);
}

TEST_F(MoccTest, PeekReadsMemory) {
  memory.write_word(0x3000, 1234);
  run(R"(
    proc main() {
      poke(0x2000, peek(0x3000) + 1);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 1235u);
}

TEST_F(MoccTest, ParForkJoin) {
  run(R"(
    global a; global b;
    proc left()  { a = 111; }
    proc right() { b = 222; }
    proc main() {
      par { left(); right(); }
      poke(0x2000, a + b);
      halt;
    }
  )");
  EXPECT_TRUE(cpu.halted());
  EXPECT_EQ(word(0x2000), 333u);
}

TEST_F(MoccTest, ChannelsProducerConsumer) {
  run(R"(
    chan c;
    global total;
    proc producer() {
      var i = 1;
      while (i <= 5) {
        send(c, i * i);
        i = i + 1;
      }
    }
    proc consumer() {
      var got;
      var i = 0;
      while (i < 5) {
        recv(c, got);
        total = total + got;
        i = i + 1;
      }
    }
    proc main() {
      total = 0;
      par { producer(); consumer(); }
      poke(0x2000, total);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 1u + 4 + 9 + 16 + 25);
}

TEST_F(MoccTest, PipelineOfThreeProcesses) {
  run(R"(
    chan ab; chan bc;
    global out;
    proc stage1() {
      var i = 0;
      while (i < 4) { send(ab, i); i = i + 1; }
    }
    proc stage2() {
      var x; var i = 0;
      while (i < 4) { recv(ab, x); send(bc, x * 10); i = i + 1; }
    }
    proc stage3() {
      var x; var i = 0;
      while (i < 4) { recv(bc, x); out = out + x; i = i + 1; }
    }
    proc main() {
      out = 0;
      par { stage1(); stage2(); stage3(); }
      poke(0x2000, out);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 60u);  // (0+1+2+3)*10
}

TEST_F(MoccTest, AltTakesWhicheverChannelIsReady) {
  run(R"(
    chan fastc; chan slowc;
    global first; global second;
    proc fast() { send(fastc, 7); }
    proc slow() { wait(50); send(slowc, 9); }
    proc collector() {
      var v; var got = 0;
      while (got < 2) {
        alt {
          recv(fastc, v) { first = v; }
          recv(slowc, v) { second = v; }
        }
        got = got + 1;
      }
    }
    proc main() {
      par { fast(); slow(); collector(); }
      poke(0x2000, first);
      poke(0x2004, second);
      halt;
    }
  )");
  EXPECT_TRUE(cpu.halted());
  EXPECT_EQ(word(0x2000), 7u);
  EXPECT_EQ(word(0x2004), 9u);
}

TEST_F(MoccTest, WaitAdvancesTime) {
  // Run to completion (not run_until, which always advances the clock to
  // its deadline) so the final time reflects the program.
  const cp::Program p = compile(R"(
    proc main() {
      wait(500);
      poke(0x2000, 1);
      halt;
    }
  )");
  cpu.load(p);
  cpu.start_process(p.symbol("main"), 0xA000, 1);
  sim.spawn(cpu.run());
  sim.run();
  EXPECT_GE(sim.now(), 500_us);
  EXPECT_LT(sim.now(), 600_us);
  EXPECT_EQ(word(0x2000), 1u);
}

TEST_F(MoccTest, TimerExpressionIsMonotonic) {
  run(R"(
    proc main() {
      var t0 = timer();
      wait(100);
      var t1 = timer();
      poke(0x2000, t1 - t0 >= 100);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 1u);
}

TEST_F(MoccTest, VformDrivesTheVectorUnitFromTheLanguage) {
  // "Occam ... controls the high-level operation of the vector arithmetic
  // unit": build a VSAXPY descriptor in memory from MOCC and run it.
  mem::VectorRegister rx;
  mem::VectorRegister ry;
  for (std::size_t i = 0; i < 8; ++i) {
    rx.set_f64(i, fp::T64::from_double(static_cast<double>(i)));
    ry.set_f64(i, fp::T64::from_double(5.0));
  }
  memory.store_row(0, rx);
  memory.store_row(300, ry);
  run(R"(
    proc main() {
      var d = 0x4000;          // descriptor block
      poke(d, 5);              // form = VSAXPY
      poke(d + 4, 1);          // precision f64
      poke(d + 8, 8);          // n
      poke(d + 12, 0);         // row_x
      poke(d + 16, 300);       // row_y
      poke(d + 20, 600);       // row_z
      poke(d + 24, 0);         // scalar = 3.0 (IEEE bits)
      poke(d + 28, 0x40080000);
      vform(d);
      vwait;
      halt;
    }
  )");
  mem::VectorRegister rz;
  memory.load_row(600, rz);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rz.f64(i).to_double(), 3.0 * static_cast<double>(i) + 5.0);
  }
}

TEST_F(MoccTest, ArraysSieveOfEratosthenes) {
  // A real program: mark composites in a static array, count primes < 100.
  run(R"(
    array marked[100];
    proc main() {
      var i = 2;
      while (i < 100) {
        if (marked[i] == 0) {
          var j = i * i;
          while (j < 100) {
            marked[j] = 1;
            j = j + i;
          }
        }
        i = i + 1;
      }
      var count = 0;
      var k = 2;
      while (k < 100) {
        if (marked[k] == 0) { count = count + 1; }
        k = k + 1;
      }
      poke(0x2000, count);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 25u) << "25 primes below 100";
}

TEST_F(MoccTest, ArrayReverseInPlace) {
  run(R"(
    array a[8];
    proc main() {
      var i = 0;
      while (i < 8) { a[i] = i * 10; i = i + 1; }
      var lo = 0;
      var hi = 7;
      while (lo < hi) {
        var t = a[lo];
        a[lo] = a[hi];
        a[hi] = t;
        lo = lo + 1;
        hi = hi - 1;
      }
      poke(0x2000, a[0]);
      poke(0x2004, a[7]);
      poke(0x2008, a[3]);
      halt;
    }
  )");
  EXPECT_EQ(word(0x2000), 70u);
  EXPECT_EQ(word(0x2004), 0u);
  EXPECT_EQ(word(0x2008), 40u);
}

TEST_F(MoccTest, ArrayErrors) {
  EXPECT_THROW(compile("proc main() { poke(0, nosuch[0]); halt; }"),
               CompileError);
  EXPECT_THROW(compile("array z[0]; proc main() { halt; }"), CompileError);
}

TEST(MoccLink, TwoNodesExchangeOverAPhysicalLink) {
  // Distributed MOCC: node A sends over its physical link 0, node B
  // receives, doubles, and replies — Occam programs on real wires.
  sim::Simulator sim;
  node::Node a{sim, 0};
  node::Node b{sim, 1};
  link::Link cable{sim};
  std::array<link::LinkStats, 2> sent;  // a standalone cable's statistics
  cable.attach(0, sent[0], nullptr);
  cable.attach(1, sent[1], nullptr);
  a.links().attach(0, cable, 0);
  b.links().attach(0, cable, 1);

  const cp::Program pa = compile(R"(
    proc main() {
      linkout(0, 0, 321);
      var back;
      linkin(0, 1, back);
      poke(0x2000, back);
      halt;
    }
  )");
  const cp::Program pb = compile(R"(
    proc main() {
      var v;
      linkin(0, 0, v);
      linkout(0, 1, v * 2);
      halt;
    }
  )");
  a.cpu().load(pa);
  b.cpu().load(pb);
  a.cpu().start_process(pa.symbol("main"), 0xA000, 1);
  b.cpu().start_process(pb.symbol("main"), 0xA000, 1);
  sim.spawn(a.cpu().run());
  sim.spawn(b.cpu().run());
  sim.run();
  EXPECT_TRUE(a.cpu().halted());
  EXPECT_EQ(a.cpu().read_word(0x2000), 642u);
}

TEST_F(MoccTest, CompileToAsmIsInspectable) {
  const std::string asm_text = compile_to_asm(R"(
    proc main() { poke(0x2000, 1); halt; }
  )");
  EXPECT_NE(asm_text.find("main:"), std::string::npos);
  EXPECT_NE(asm_text.find("halt"), std::string::npos);
  EXPECT_NE(asm_text.find(".org"), std::string::npos);
}

TEST_F(MoccTest, ErrorsAreReported) {
  EXPECT_THROW(compile("proc main() { x = 1; halt; }"), CompileError);
  EXPECT_THROW(compile("proc f() {}"), CompileError) << "no main";
  EXPECT_THROW(compile("proc main() { send(nochan, 1); halt; }"),
               CompileError);
  EXPECT_THROW(compile("proc main() { var a; var a; halt; }"), CompileError);
  EXPECT_THROW(compile("proc main() { par { } halt; }"), CompileError);
  EXPECT_THROW(compile("proc main() { frob(); halt; }"), CompileError);
  EXPECT_THROW(compile("proc main() { if x { } halt; }"), CompileError);
}

TEST(MoccLink, RingOfMoccProgramsOnABuiltMachine) {
  // Four MOCC programs on a 2-cube pass a token around the Gray ring over
  // the machine's own cube wiring (NodeLinks ports = cube dimensions).
  sim::Simulator sim;
  core::TSeries machine{sim, 2};

  // Gray ring on a 2-cube: 0 -(d0)- 1 -(d1)- 3 -(d0)- 2 -(d1)- 0.
  // Each node receives on one dimension and forwards on the other, adding
  // its id; node 0 injects the token and collects it after the round trip.
  const char* node0 = R"(
    proc main() {
      linkout(0, 0, 1000);    // to node 1 over dim 0
      var back;
      linkin(1, 0, back);     // from node 2 over dim 1
      poke(0x2000, back);
      halt;
    }
  )";
  const char* node1 = R"(
    proc main() {
      var t;
      linkin(0, 0, t);        // from node 0 over dim 0
      linkout(1, 0, t + 1);   // to node 3 over dim 1
      halt;
    }
  )";
  const char* node3 = R"(
    proc main() {
      var t;
      linkin(1, 0, t);        // from node 1 over dim 1
      linkout(0, 0, t + 3);   // to node 2 over dim 0
      halt;
    }
  )";
  const char* node2 = R"(
    proc main() {
      var t;
      linkin(0, 0, t);        // from node 3 over dim 0
      linkout(1, 0, t + 2);   // to node 0 over dim 1
      halt;
    }
  )";
  const char* sources[4] = {node0, node1, node2, node3};
  for (net::NodeId id = 0; id < 4; ++id) {
    const cp::Program p = compile(sources[id]);
    machine.node(id).cpu().load(p);
    machine.node(id).cpu().start_process(p.symbol("main"), 0xA000, 1);
    sim.spawn(machine.node(id).cpu().run());
  }
  sim.run();
  EXPECT_TRUE(machine.node(0).cpu().halted());
  EXPECT_EQ(machine.node(0).cpu().read_word(0x2000), 1000u + 1 + 3 + 2);
  EXPECT_GT(machine.total_link_bytes(), 0u);
}

}  // namespace
}  // namespace fpst::mocc
