// Tests for the control processor: assembler encodings, interpreter
// semantics, the 7.5 MIPS / 400 ns timing model, process scheduling with two
// priorities, CSP soft channels, timers, gather/scatter microcode and vector
// unit dispatch from TISA programs.
#include <gtest/gtest.h>

#include <string>

#include "cp/assembler.hpp"
#include "cp/cpu.hpp"

namespace fpst::cp {
namespace {

using namespace fpst::sim::literals;
using sim::SimTime;

// ------------------------------ assembler ---------------------------------

TEST(Assembler, MinimalEncodings) {
  EXPECT_EQ(encode(Op::ldc, 5), (std::vector<std::uint8_t>{0x45}));
  // ldc 0x123: pfix 1, pfix 2, ldc 3.
  EXPECT_EQ(encode(Op::ldc, 0x123),
            (std::vector<std::uint8_t>{0x21, 0x22, 0x43}));
  // adc -2: nfix 0, adc 14.
  EXPECT_EQ(encode(Op::adc, -2), (std::vector<std::uint8_t>{0x60, 0x8E}));
}

TEST(Assembler, EncodingsDecodeBack) {
  for (std::int32_t v : {0, 1, 15, 16, 255, 4096, 1 << 20, -1, -16, -300,
                         -65536, 0x7fffffff, -0x7fffffff}) {
    const auto bytes = encode(Op::ldc, v);
    const Decoded d = decode(bytes, 0);
    EXPECT_EQ(d.op, Op::ldc) << v;
    EXPECT_EQ(d.operand, v) << v;
    EXPECT_EQ(d.size, bytes.size()) << v;

    if (bytes.size() <= 6) {  // fixed-width encodes up to six bytes
      const auto fixed = encode_fixed(Op::ldc, v);
      ASSERT_EQ(fixed.size(), 6u);
      const Decoded df = decode(fixed, 0);
      EXPECT_EQ(df.operand, v) << "fixed-width " << v;
    }
  }
}

TEST(Assembler, LabelsAndDirectives) {
  const Program p = assemble(R"(
      .org 0x2000
   start:
      ldc data
      j start
   data:
      .word 0xdeadbeef
      .word start
  )");
  EXPECT_EQ(p.org, 0x2000u);
  EXPECT_EQ(p.symbol("start"), 0x2000u);
  const std::uint32_t data = p.symbol("data");
  // .word emits little-endian.
  const std::size_t off = data - p.org;
  EXPECT_EQ(p.bytes[off], 0xef);
  EXPECT_EQ(p.bytes[off + 3], 0xde);
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble("bogus 1"), AsmError);
  EXPECT_THROW(assemble("ldc nolabel"), AsmError);
  EXPECT_THROW(assemble("x: ldc 1\nx: ldc 2"), AsmError);
  EXPECT_THROW(assemble("add 3"), AsmError) << "secondary ops take no operand";
  EXPECT_THROW(assemble("ldc"), AsmError) << "primary ops need an operand";
}

TEST(Assembler, RefusesImagesOutsideRamAndNumbersPast32Bits) {
  const auto refused_at = [](const std::string& src) -> std::size_t {
    try {
      assemble(src);
    } catch (const AsmError& e) {
      return e.line();
    }
    return 0;
  };
  // The image must lie within the RAM region it starts in.
  EXPECT_EQ(refused_at("main: .space 2000000\n halt\n"), 1u);
  EXPECT_EQ(refused_at("halt\n.space 4000000000\n"), 2u);
  EXPECT_EQ(refused_at(".org 0x100000\nhalt\n"), 1u);
  EXPECT_EQ(refused_at(".org 0x20000000\nhalt\n"), 1u);
  EXPECT_EQ(refused_at(".org 0x10000000\nhalt\n.space 2047\n"), 3u);
  EXPECT_EQ(refused_at(".org 0xFFFFF\nldc 0\nldc 0\n"), 3u);
  // Numbers must fit a 32-bit word, signed or unsigned.
  EXPECT_EQ(refused_at("halt\n.word 0x1ffffffff\n"), 2u);
  EXPECT_EQ(refused_at("ldc -2147483649\nhalt\n"), 1u);
  EXPECT_EQ(refused_at("ldc 99999999999999999999\n"), 1u);
  EXPECT_EQ(refused_at(".org 99999999999999999999\n"), 1u);
  // A label operand must fit its fixed six-byte encoding.
  EXPECT_EQ(refused_at(".org 0x10000000\nmain: ldc main\n"), 2u);

  EXPECT_NO_THROW(assemble(".org 0x10000000\nhalt\n.space 2046\n"));
  EXPECT_NO_THROW(assemble(".org 0xFFFFF\nldc 0\n"));
  EXPECT_NO_THROW(assemble("ldc -2147483648\n.word 0xffffffff\n"));
}

TEST(Assembler, DisassemblerRoundTrip) {
  const Program p = assemble("ldc 300\nadc -7\nhalt\n");
  const std::string dis = disassemble(p);
  EXPECT_NE(dis.find("ldc 300"), std::string::npos);
  EXPECT_NE(dis.find("adc -7"), std::string::npos);
  EXPECT_NE(dis.find("halt"), std::string::npos);
}

// ------------------------------ interpreter -------------------------------

class CpuTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kWptr = 0x8000;  // DRAM workspace

  /// Assemble, load, start one low-priority process, run to completion.
  Program run_source(const std::string& src, std::uint32_t wptr = kWptr) {
    Program p = assemble(src);
    cpu.load(p);
    cpu.start_process(p.entry(), wptr, 1);
    sim.spawn(cpu.run());
    sim.run();
    return p;
  }

  sim::Simulator sim;
  mem::NodeMemory memory;
  vpu::VectorUnit vpu{memory};
  Cpu cpu{sim, memory, vpu};
};

TEST_F(CpuTest, SumLoop) {
  run_source(R"(
      ldc 0
      stl 0        ; acc
      ldc 10
      stl 1        ; i
   loop:
      ldl 0
      ldl 1
      add
      stl 0
      ldl 1
      adc -1
      stl 1
      ldl 1
      cj done
      j loop
   done:
      ldl 0
      ldc 0x2000
      stnl 0
      halt
  )");
  EXPECT_TRUE(cpu.halted());
  EXPECT_EQ(cpu.read_word(0x2000), 55u);
  EXPECT_FALSE(cpu.error_flag());
}

TEST_F(CpuTest, ArithmeticAndLogicOps) {
  run_source(R"(
      ldc 7
      ldc 3
      mul          ; 21
      ldc 0x2000
      stnl 0
      ldc 22
      ldc 5
      div          ; 4
      ldc 0x2004
      stnl 0
      ldc 22
      ldc 5
      rem          ; 2
      ldc 0x2008
      stnl 0
      ldc 0xF0
      ldc 0x1F
      and          ; 0x10
      ldc 0x200C
      stnl 0
      ldc 1
      ldc 6
      shl          ; 64
      ldc 0x2010
      stnl 0
      ldc 5
      ldc 3
      gt           ; 1
      ldc 0x2014
      stnl 0
      halt
  )");
  EXPECT_EQ(cpu.read_word(0x2000), 21u);
  EXPECT_EQ(cpu.read_word(0x2004), 4u);
  EXPECT_EQ(cpu.read_word(0x2008), 2u);
  EXPECT_EQ(cpu.read_word(0x200C), 0x10u);
  EXPECT_EQ(cpu.read_word(0x2010), 64u);
  EXPECT_EQ(cpu.read_word(0x2014), 1u);
}

TEST_F(CpuTest, NegativeNumbersAndEqc) {
  run_source(R"(
      ldc 5
      adc -8       ; -3
      ldc 0x2000
      stnl 0
      ldc 0
      eqc 0        ; 1
      ldc 0x2004
      stnl 0
      halt
  )");
  EXPECT_EQ(static_cast<std::int32_t>(cpu.read_word(0x2000)), -3);
  EXPECT_EQ(cpu.read_word(0x2004), 1u);
}

TEST_F(CpuTest, CallAndRet) {
  run_source(R"(
      ldc 20
      call double  ; A=20 preserved across call in this convention
      ldc 0x2000
      stnl 0
      halt
   double:
      ldc 2
      mul
      ret
  )");
  EXPECT_EQ(cpu.read_word(0x2000), 40u);
}

TEST_F(CpuTest, DivisionByZeroSetsErrorFlag) {
  run_source(R"(
      ldc 1
      ldc 0
      div
      testerr
      ldc 0x2000
      stnl 0
      halt
  )");
  EXPECT_EQ(cpu.read_word(0x2000), 1u);
  EXPECT_FALSE(cpu.error_flag()) << "testerr clears the flag";
  EXPECT_TRUE(cpu.take_fault().has_value());
}

TEST_F(CpuTest, DivisionOverflowSetsErrorFlagAndRemainderIsZero) {
  // 0x80000000 / -1 = 2^31 does not fit: div faults and leaves 0 (plus 5
  // below); the exact remainder is 0, and rem does not fault.
  run_source(R"(
      mint
      ldc -1
      div
      adc 5
      testerr
      ldc 0x2004
      stnl 0
      ldc 0x2000
      stnl 0
      mint
      ldc -1
      rem
      adc 5
      testerr
      ldc 0x200C
      stnl 0
      ldc 0x2008
      stnl 0
      halt
  )");
  EXPECT_EQ(cpu.read_word(0x2000), 5u);
  EXPECT_EQ(cpu.read_word(0x2004), 1u) << "div set the error flag";
  EXPECT_EQ(cpu.read_word(0x2008), 5u);
  EXPECT_EQ(cpu.read_word(0x200C), 0u) << "rem did not";
  EXPECT_EQ(cpu.take_fault(), "division overflow");
  EXPECT_FALSE(cpu.take_fault().has_value());
}

TEST_F(CpuTest, LoadRefusesAnImageOutsideRam) {
  Program p;
  p.bytes = {1, 2, 3, 4};
  for (const std::uint32_t org :
       {kDramBytes - 2, kOnChipBase + kOnChipBytes - 3, kOnChipBase - 4,
        kHardChanBase}) {
    p.org = org;
    EXPECT_THROW(cpu.load(p), std::invalid_argument) << std::hex << org;
  }
  p.org = kOnChipBase + kOnChipBytes - 4;
  EXPECT_NO_THROW(cpu.load(p));
  EXPECT_EQ(cpu.read_word(p.org), 0x04030201u);
}

TEST_F(CpuTest, InstructionRateIs7point5Mips) {
  std::string src;
  constexpr int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    src += "adc 1\n";  // one-byte instructions
  }
  src += "halt\n";
  run_source(src);
  const double mips =
      static_cast<double>(cpu.instructions_executed()) / sim.now().us();
  EXPECT_NEAR(mips, 7.5, 0.1);
}

TEST_F(CpuTest, OffChipWordAccessCosts400ns) {
  // ldnl from DRAM = instruction time + off-chip penalty = 400 ns on top of
  // the bare ldc baseline.
  Program p = assemble(R"(
      ldc 0x2000
      ldnl 0
      halt
  )");
  cpu.load(p);
  cpu.start_process(p.entry(), kWptr, 1);
  sim.spawn(cpu.run());
  sim.run();
  // ldc 0x2000 (4 bytes: three pfix + ldc), ldnl (1 byte), halt (2 bytes:
  // pfix + opr) = 7 instruction-time bytes + 1 switch + 1 off-chip penalty.
  const SimTime expect = CpuParams::switch_time() +
                         7 * CpuParams::instr_time() +
                         CpuParams::offchip_penalty();
  EXPECT_EQ(sim.now(), expect);
}

TEST_F(CpuTest, BlockMoveMovesBytesAndCharges400nsPerWordEachWay) {
  memory.write_word(0x3000, 0x11223344);
  memory.write_word(0x3004, 0x55667788);
  run_source(R"(
      ldc 0x3000   ; src (C after three pushes)
      ldc 0x3800   ; dst
      ldc 8        ; count
      move
      halt
  )");
  EXPECT_EQ(cpu.read_word(0x3800), 0x11223344u);
  EXPECT_EQ(cpu.read_word(0x3804), 0x55667788u);
}

TEST_F(CpuTest, SoftChannelRendezvous) {
  Program p = assemble(R"(
   main:
      mint
      ldc 0x3000
      stnl 0          ; chan := NotProcess
      ldc sender      ; code address
      ldc 0x8201      ; child wdesc: wptr 0x8200, low priority
      startp
      ldlp 4          ; ptr (C)
      ldc 0x3000      ; chan (B)
      ldc 4           ; count (A)
      in
      ldl 4
      ldc 0x2000
      stnl 0
      halt
   sender:
      ldc 99
      stl 0
      ldlp 0
      ldc 0x3000
      ldc 4
      out
      stopp
  )");
  cpu.load(p);
  cpu.start_process(p.symbol("main"), kWptr, 1);
  sim.spawn(cpu.run());
  sim.run();
  EXPECT_EQ(cpu.read_word(0x2000), 99u);
}

TEST_F(CpuTest, SoftChannelWorksEitherArrivalOrder) {
  // Receiver first: main spawns a receiver child, then sends.
  Program p = assemble(R"(
   main:
      mint
      ldc 0x3000
      stnl 0
      ldc receiver
      ldc 0x8201
      startp
      ldc 77
      stl 8
      ldlp 8
      ldc 0x3000
      ldc 4
      out
      ; wait for the receiver to store the result, then halt
      ldtimer
      adc 10
      tin
      halt
   receiver:
      ldlp 0
      ldc 0x3000
      ldc 4
      in
      ldl 0
      ldc 0x2000
      stnl 0
      stopp
  )");
  cpu.load(p);
  cpu.start_process(p.symbol("main"), kWptr, 1);
  sim.spawn(cpu.run());
  sim.run();
  EXPECT_EQ(cpu.read_word(0x2000), 77u);
}

TEST_F(CpuTest, ParViaStartpEndp) {
  // Parent forks two children that each add into their own word; the sync
  // block joins all of them, and the parent's continuation runs last.
  Program p = assemble(R"(
   main:
      ldc 3
      ldc sync
      stnl 0          ; sync.count = 3 (two children + parent)
      ldc 0x8001      ; parent wdesc (wptr 0x8000 | lo)
      ldc sync
      stnl 1          ; sync.parent
      ldc after
      ldc sync
      stnl 2          ; sync.resume
      ldc child1
      ldc 0x8201
      startp
      ldc child2
      ldc 0x8401
      startp
      ldc sync
      endp
   after:
      ldc 0x2000
      ldnl 0
      ldc 0x2004
      ldnl 0
      add
      ldc 0x2008
      stnl 0
      halt
   child1:
      ldc 11
      ldc 0x2000
      stnl 0
      ldc sync
      endp
   child2:
      ldc 22
      ldc 0x2004
      stnl 0
      ldc sync
      endp
   sync:
      .word 0
      .word 0
      .word 0
  )");
  cpu.load(p);
  cpu.start_process(p.symbol("main"), kWptr, 1);
  sim.spawn(cpu.run());
  sim.run();
  EXPECT_EQ(cpu.read_word(0x2008), 33u);
}

TEST_F(CpuTest, TimerWaitAdvancesSimulatedTime) {
  run_source(R"(
      ldtimer
      adc 100
      tin
      halt
  )");
  EXPECT_GE(sim.now(), 100_us);
  EXPECT_LT(sim.now(), 105_us);
}

TEST_F(CpuTest, HighPriorityPreemptsLowPriority) {
  Program p = assemble(R"(
   hi:
      ldtimer
      adc 50
      tin              ; sleep 50 us, then preempt the low-pri loop
      ldc 1
      ldc 0x2004
      stnl 0
      halt
   lo:
      ldc 0x2008
      ldnl 0
      adc 1
      ldc 0x2008
      stnl 0
      j lo
  )");
  cpu.load(p);
  cpu.start_process(p.symbol("hi"), 0x8000, 0);
  cpu.start_process(p.symbol("lo"), 0x8200, 1);
  sim.spawn(cpu.run());
  sim.run_until(1_ms);
  EXPECT_TRUE(cpu.halted()) << "hi preempted the infinite low-pri loop";
  EXPECT_EQ(cpu.read_word(0x2004), 1u);
  EXPECT_GT(cpu.read_word(0x2008), 10u) << "low priority made progress first";
}

TEST_F(CpuTest, GatherMicrocodeMovesElementsAndCharges1600nsEach) {
  // Four scattered 64-bit elements gathered to 0x5000.
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::uint32_t src = 0x6000 + 24 * i;  // stride 24: not contiguous
    memory.write_word(src, 100 + i);
    memory.write_word(src + 4, 200 + i);
    memory.write_word(0x4000 + 4 * i, src);  // index table
  }
  run_source(R"(
      ldc 0x4000   ; table (C)
      ldc 0x5000   ; packed vector (B)
      ldc 4        ; count (A)
      gather
      halt
  )");
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cpu.read_word(0x5000 + 8 * i), 100 + i);
    EXPECT_EQ(cpu.read_word(0x5000 + 8 * i + 4), 200 + i);
  }
  EXPECT_GT(sim.now(), 4 * mem::MemParams::gather_move64());
  EXPECT_LT(sim.now(), 4 * mem::MemParams::gather_move64() + 3_us);
}

TEST_F(CpuTest, ScatterInverseOfGather) {
  for (std::uint32_t i = 0; i < 3; ++i) {
    memory.write_word(0x5000 + 8 * i, 7 + i);
    memory.write_word(0x5004 + 8 * i, 9 + i);
    memory.write_word(0x4000 + 4 * i, 0x6000 + 32 * i);
  }
  run_source(R"(
      ldc 0x4000
      ldc 0x5000
      ldc 3
      scatter
      halt
  )");
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(cpu.read_word(0x6000 + 32 * i), 7 + i);
    EXPECT_EQ(cpu.read_word(0x6004 + 32 * i), 9 + i);
  }
}

TEST_F(CpuTest, VformDispatchesVectorUnitFromAssembly) {
  // Fill rows 0 (bank A) and 300 (bank B) with 64-bit values from the host
  // side, then run a VADD from TISA and read the result row.
  mem::VectorRegister rx;
  mem::VectorRegister ry;
  for (std::size_t i = 0; i < 8; ++i) {
    rx.set_f64(i, fp::T64::from_double(1.0 + static_cast<double>(i)));
    ry.set_f64(i, fp::T64::from_double(10.0));
  }
  memory.store_row(0, rx);
  memory.store_row(300, ry);

  run_source(R"(
      ; descriptor at 'desc': VADD f64 n=8 rows (0, 300) -> 600
      ldc 0        ; form = vadd
      ldc desc
      stnl 0
      ldc 1        ; precision f64
      ldc desc
      stnl 1
      ldc 8        ; n
      ldc desc
      stnl 2
      ldc 0
      ldc desc
      stnl 3       ; row_x
      ldc 300
      ldc desc
      stnl 4       ; row_y
      ldc 600
      ldc desc
      stnl 5       ; row_z
      ldc desc
      vform
      vwait
      halt
   desc:
      .space 48
  )");
  mem::VectorRegister rz;
  memory.load_row(600, rz);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rz.f64(i).to_double(), 11.0 + static_cast<double>(i));
  }
  // vwait blocked until the pipe drained: sim time covers the op duration.
  EXPECT_GT(sim.now(), vpu.total_busy());
}

TEST_F(CpuTest, VformReductionPublishesScalarResult) {
  mem::VectorRegister rx;
  for (std::size_t i = 0; i < 6; ++i) {
    rx.set_f64(i, fp::T64::from_double(static_cast<double>(i + 1)));
  }
  memory.store_row(2, rx);
  Program p = run_source(R"(
      ldc 8        ; form = vsum
      ldc desc
      stnl 0
      ldc 1
      ldc desc
      stnl 1
      ldc 6
      ldc desc
      stnl 2
      ldc 2
      ldc desc
      stnl 3
      ldc desc
      vform
      vwait
      halt
   desc:
      .space 48
  )");
  const std::uint32_t desc = p.symbol("desc");
  const std::uint64_t bits =
      static_cast<std::uint64_t>(cpu.read_word(desc + 32)) |
      (static_cast<std::uint64_t>(cpu.read_word(desc + 36)) << 32);
  EXPECT_EQ(fp::T64::from_bits(bits).to_double(), 21.0);
}

TEST_F(CpuTest, CpuRunsWhileVectorUnitComputes) {
  // Issue a long vector op, then keep counting on the CP before vwait: the
  // paper's "complete arithmetic unit operates in parallel with the node
  // control processor".
  run_source(R"(
      ldc 4        ; vsmul
      ldc desc
      stnl 0
      ldc 1
      ldc desc
      stnl 1
      ldc 128
      ldc desc
      stnl 2
      ldc 0
      ldc desc
      stnl 3
      ldc desc
      vform
      ldc 0
      stl 0
   spin:            ; count while the pipes run
      ldl 0
      adc 1
      stl 0
      ldl 0
      eqc 40
      cj spin
      ldl 0
      ldc 0x2000
      stnl 0
      vwait
      halt
   desc:
      .space 48
  )");
  EXPECT_EQ(cpu.read_word(0x2000), 40u);
}

}  // namespace
}  // namespace fpst::cp
