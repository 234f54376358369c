// Tests for the static-analysis subsystem (src/check): CFG recovery,
// the TISA abstract-stack verifier, the cycle-cost model and its
// prediction-vs-measurement cross-validation, the channel-graph deadlock
// checker, the static volume analyzer, the .comm parser, and the on-disk
// corpus of deliberately-broken programs that tools/tcheck and ci.sh
// gate on.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/chan_graph.hpp"
#include "check/comm_volume.hpp"
#include "check/cost_model.hpp"
#include "check/tisa_verify.hpp"
#include "core/machine.hpp"
#include "cp/assembler.hpp"
#include "node/node.hpp"
#include "occam/commspec.hpp"
#include "occam/occam.hpp"

namespace fpst::check {
namespace {

VerifyResult verify_src(const std::string& src) {
  return verify(cp::assemble(src));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Run `p` to completion on a real simulated node, exactly as tools and
// examples do, so cost-model tests can assert prediction == measurement.
struct Measured {
  std::uint64_t instructions = 0;
  sim::SimTime elapsed{};
};

Measured run_on_node(const cp::Program& p) {
  sim::Simulator sim;
  node::Node nd{sim, 0};
  nd.cpu().load(p);
  const auto it = p.symbols.find("main");
  const std::uint32_t entry =
      it != p.symbols.end() ? it->second : p.entry();
  nd.cpu().start_process(entry, 0x8000, 1);
  sim.spawn(nd.cpu().run());
  sim.run();
  return Measured{nd.cpu().instructions_executed(), sim.now()};
}

// ---------------------------------------------------------------- CFG --

TEST(Cfg, RecoversBlocksAndEdges) {
  const cp::Program p = cp::assemble(R"(
   main:
      ldc 10
   loop:
      adc -1
      cj done
      j loop
   done:
      halt
  )");
  Report rep;
  const Cfg cfg = build_cfg(p, {p.symbol("main")}, rep);
  EXPECT_EQ(rep.diagnostics().size(), 0u);
  // Blocks: main, loop, the `j loop` after cj's fall-through... cj ends a
  // block, so: [main], [loop..cj], [j loop], [done].
  EXPECT_EQ(cfg.blocks.size(), 4u);
  const BasicBlock& loop = cfg.blocks.at(p.symbol("loop"));
  ASSERT_EQ(loop.succs.size(), 2u);  // done + fall-through
}

TEST(Cfg, FlagsJumpOutsideImage) {
  const auto res = verify_src("main:\n ldc 1\n j 512\n halt\n");
  EXPECT_TRUE(res.report.has("bad-jump"));
}

TEST(Cfg, FlagsFallOffEnd) {
  const auto res = verify_src("main:\n ldc 1\n ldc 2\n add\n");
  EXPECT_TRUE(res.report.has("falls-off-end"));
}

TEST(Cfg, FlagsMidInstructionLanding) {
  const auto res = verify_src("main:\n ldc 0\n cj 1\n ldc 100\n halt\n");
  EXPECT_TRUE(res.report.has("mid-instruction"));
}

// ---------------------------------------------------- line attribution --

TEST(LineMap, DiagnosticsCarrySourceLines) {
  const cp::Program p = cp::assemble("main:\n ldc 1\n add\n halt\n");
  EXPECT_EQ(p.line_at(p.symbol("main")), 2u);  // `ldc 1` is line 2
  const auto res = verify(p);
  const Diagnostic* d = res.report.find("stack-underflow");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->line, 3u);  // `add` is line 3
}

// ------------------------------------------------- abstract interpreter --

TEST(TisaVerify, CleanRecursiveFactorial) {
  // The cj idiom joins paths with different stack depths — must not warn.
  const auto res = verify_src(R"(
   main:
      ldc 10
      call fact
      ldc 0x2000
      stnl 0
      halt
   fact:
      ajw -2
      stl 0
      ldl 0
      cj base
      ldl 0
      adc -1
      call fact
      ldl 0
      mul
      j done
   base:
      ldc 1
   done:
      ajw 2
      ret
  )");
  EXPECT_FALSE(res.report.has_errors()) << res.report.to_string("test");
  EXPECT_EQ(res.report.count(Severity::kWarning), 0u)
      << res.report.to_string("test");
}

TEST(TisaVerify, FollowsConstantStartpTargets) {
  const auto res = verify_src(R"(
   main:
      mint
      ldc chan
      stnl 0
      ldc producer
      ldc 0x8201
      startp
      ldlp 4
      ldc chan
      ldc 4
      in
      halt
   producer:
      ldc 99
      stl 0
      ldlp 0
      ldc chan
      ldc 4
      out
      stopp
   .align
   chan:
      .word 0
  )");
  EXPECT_FALSE(res.report.has_errors()) << res.report.to_string("test");
  // The producer was analysed: its block exists in the final CFG.
  EXPECT_EQ(res.cfg.entries.size(), 2u);
}

TEST(TisaVerify, FlagsStackUnderflow) {
  const auto res = verify_src("main:\n add\n halt\n");
  EXPECT_TRUE(res.report.has("stack-underflow"));
}

TEST(TisaVerify, FlagsStackOverflow) {
  const auto res = verify_src(
      "main:\n ldc 1\n ldc 2\n ldc 3\n ldc 4\n stnl 0\n halt\n");
  EXPECT_TRUE(res.report.has("stack-overflow"));
}

TEST(TisaVerify, FlagsOutOfMapStore) {
  const auto res = verify_src(
      "main:\n ldc 7\n ldc 0x00200000\n stnl 0\n halt\n");
  EXPECT_TRUE(res.report.has("bad-address"));
}

TEST(TisaVerify, FlagsLoadJustPastDram) {
  // 0x100000 is the first byte past the 1 MB DRAM.
  const auto res = verify_src("main:\n ldc 0x100000\n ldnl 0\n halt\n");
  EXPECT_TRUE(res.report.has("bad-address"));
}

TEST(TisaVerify, OnChipWindowIsMapped) {
  const auto res = verify_src("main:\n ldc 7\n ldc 0x10000000\n stnl 0\n halt\n");
  EXPECT_FALSE(res.report.has_errors()) << res.report.to_string("test");
  // The CP reads a vform descriptor like any data, so on-chip RAM holds one.
  const auto desc =
      verify_src("main:\n ldc 0x100007D0\n vform\n vwait\n halt\n");
  EXPECT_FALSE(desc.report.has_errors()) << desc.report.to_string("test");
  EXPECT_TRUE(verify_src("main:\n ldc 0x100007D4\n vform\n halt\n")
                  .report.has("bad-vform-desc"))
      << "a block past the end of on-chip RAM";
}

TEST(TisaVerify, FlagsDataAccessToHardChanRegion) {
  const auto res = verify_src("main:\n ldc 0xF0000000\n ldnl 0\n halt\n");
  EXPECT_TRUE(res.report.has("bad-address"));
}

TEST(TisaVerify, FlagsUnalignedVformDescriptor) {
  const auto res = verify_src("main:\n ldc 0x2002\n vform\n vwait\n halt\n");
  EXPECT_TRUE(res.report.has("bad-vform-desc"));
}

TEST(TisaVerify, FlagsVformDescriptorPastDramEnd) {
  // Aligned, but the 48-byte block does not fit below 1 MB.
  const auto res = verify_src("main:\n ldc 0xFFFFF0\n vform\n vwait\n halt\n");
  EXPECT_TRUE(res.report.has("bad-vform-desc"));
}

TEST(TisaVerify, FlagsHardChanPortOutOfRange) {
  const auto res = verify_src(
      "main:\n ldlp 4\n ldc 0xF0000049\n ldc 8\n in\n halt\n");
  EXPECT_TRUE(res.report.has("bad-hard-chan"));
}

TEST(TisaVerify, FlagsHardChanReservedBits) {
  const auto res = verify_src(
      "main:\n ldlp 4\n ldc 0xF0010001\n ldc 8\n in\n halt\n");
  EXPECT_TRUE(res.report.has("bad-hard-chan"));
}

TEST(TisaVerify, WarnsOnHardChanDirectionMismatch) {
  // dir bit says output (0) but the op is `in`.
  const auto res = verify_src(
      "main:\n ldlp 4\n ldc 0xF0000000\n ldc 8\n in\n halt\n");
  EXPECT_TRUE(res.report.has("hard-chan-direction"));
  EXPECT_FALSE(res.report.has_errors());
}

TEST(TisaVerify, CollectsHardChannelUses) {
  const auto res = verify_src(
      "main:\n ldlp 4\n ldc 0xF0000001\n ldc 8\n in\n"
      " ldlp 4\n ldc 0xF0000008\n ldc 8\n out\n halt\n");
  ASSERT_EQ(res.hard_chans.size(), 2u);
  EXPECT_EQ(res.hard_chans[0].port, 0);
  EXPECT_TRUE(res.hard_chans[0].is_input);
  EXPECT_EQ(res.hard_chans[1].port, 1);
  EXPECT_FALSE(res.hard_chans[1].is_input);
}

TEST(TisaVerify, FlagsDivisionByConstantZero) {
  const auto res = verify_src("main:\n ldc 6\n ldc 0\n div\n halt\n");
  EXPECT_TRUE(res.report.has("div-by-zero"));
}

TEST(TisaVerify, FlagsUnreachableCode) {
  const auto res = verify_src("main:\n ldc 1\n halt\n ldc 2\n halt\n");
  EXPECT_TRUE(res.report.has("unreachable-code"));
}

TEST(TisaVerify, ZeroPaddingAndLabelledDataAreNotUnreachable) {
  const auto res = verify_src(R"(
   main:
      ldc table
      ldnl 0
      halt
   .align
   table:
      .word 0x1234
   buf:
      .space 32
  )");
  EXPECT_FALSE(res.report.has("unreachable-code"))
      << res.report.to_string("test");
  EXPECT_FALSE(res.report.has_errors());
}

// ------------------------------------------------------------ cost model --

TEST(CostModel, StraightLinePredictionIsBitExact) {
  // Each program runs straight through to halt. `fault_code` is the
  // performance diagnostic the model must raise for it, if any.
  struct Case {
    const char* name;
    const char* fault_code;
    const char* source;
  };
  const Case cases[] = {
      {"memory and arithmetic", nullptr, R"(
   main:
      ldc 7
      ldc 0x2000
      stnl 0
      ldc 0x2000
      ldnl 0
      adc 35
      stl 1
      halt
  )"},
      // Every edge of cp::alu. Each result steers a branch to `bad`, whose
      // stopp ends the prediction incomplete.
      {"ALU edges", nullptr, R"(
   main:
      ldc 1
      ldc 31
      shl           ; 0x80000000
      eqc 0x80000000
      cj bad
      ldc 1
      ldc 32
      shl           ; 0
      eqc 0
      cj bad
      mint
      ldc 33
      shr           ; 0
      eqc 0
      cj bad
      ldc 0
      mint
      gt            ; 0 > INT32_MIN
      eqc 1
      cj bad
      mint
      ldc 0
      gt            ; INT32_MIN > 0
      eqc 0
      cj bad
      ldc 0x10000
      ldc 0x10000
      mul           ; 2^32, low word 0
      eqc 0
      cj bad
      ldc 0x7fffffff
      ldc 2
      mul           ; 0xfffffffe
      eqc -2
      cj bad
      ldc 7
      ldc 0
      div           ; faults, 0
      eqc 0
      cj bad
      ldc 7
      ldc 0
      rem           ; faults, 0
      eqc 0
      cj bad
      mint
      ldc -1
      div           ; faults: the quotient 2^31 does not fit
      eqc 0
      cj bad
      mint
      ldc -1
      rem           ; 0
      eqc 0
      cj bad
      ldc -7
      ldc -1
      div           ; 7
      eqc 7
      cj bad
      halt
   bad:
      stopp
  )"},
      // The vector unit converts at f64 only: an f32 VCVTW is refused and
      // the CP faults and carries on without starting the pipes.
      {"f32 conversion", "vform-overrun", R"(
   main:
      ldc 12          ; form = VCVTW
      ldc desc
      stnl 0
      ldc 16          ; n, precision word left 0 = f32
      ldc desc
      stnl 2
      ldc desc
      vform
      vwait
      halt
   .align
   desc:
      .space 48
  )"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const cp::Program p = cp::assemble(c.source);
    const CostPrediction pred = predict_cost(p, verify(p).cfg);
    EXPECT_TRUE(pred.complete) << pred.stop_reason;
    if (c.fault_code == nullptr) {
      EXPECT_FALSE(pred.report.has_errors()) << pred.report.to_string("test");
    } else {
      EXPECT_TRUE(pred.report.has(c.fault_code))
          << pred.report.to_string("test");
    }
    const Measured m = run_on_node(p);
    EXPECT_EQ(pred.instructions, m.instructions);
    EXPECT_EQ(pred.elapsed.ps(), m.elapsed.ps());
  }
}

TEST(CostModel, CountedLoopIsBoundedAndBitExact) {
  const cp::Program p = cp::assemble(R"(
   main:
      ldc 10
      stl 0
   loop:
      ldl 0
      adc -1
      stl 0
      ldl 0
      cj done
      j loop
   done:
      halt
  )");
  const CostPrediction pred = predict_cost(p, verify(p).cfg);
  EXPECT_TRUE(pred.complete) << pred.stop_reason;
  ASSERT_EQ(pred.loops.size(), 1u);
  EXPECT_EQ(pred.loops[0].verdict, LoopVerdict::kBounded);
  EXPECT_EQ(pred.loops[0].iterations, 10u);
  const Measured m = run_on_node(p);
  EXPECT_EQ(pred.instructions, m.instructions);
  EXPECT_EQ(pred.elapsed.ps(), m.elapsed.ps());
}

TEST(CostModel, VformSaxpyExamplePredictsTheSimulatorBitExact) {
  // The same cross-validation ci.sh gates on: the shipped vform program's
  // static prediction must equal the tisa_traced measurement.
  const std::string text = read_file(std::string(FPST_SOURCE_DIR) +
                                     "/examples/tisa/vform_saxpy.tisa");
  const cp::Program p = cp::assemble(text);
  const CostPrediction pred = predict_cost(p, verify(p).cfg);
  EXPECT_TRUE(pred.complete) << pred.stop_reason;
  EXPECT_GT(pred.vforms, 0u);
  EXPECT_GT(pred.flops, 0u);
  const Measured m = run_on_node(p);
  EXPECT_EQ(pred.instructions, m.instructions);
  EXPECT_EQ(pred.elapsed.ps(), m.elapsed.ps());
}

TEST(CostModel, UnknownBranchInHotLoopIsUnboundedAndFlagged) {
  // The cj condition comes through a hard-channel `in`, so it can never be
  // a compile-time constant: the model must stop honestly, not guess.
  const cp::Program p = cp::assemble(R"(
   main:
   loop:
      ldlp 4
      ldc 0xF0000001
      ldc 4
      in
      ldl 4
      cj done
      j loop
   done:
      halt
  )");
  const CostPrediction pred = predict_cost(p, verify(p).cfg);
  EXPECT_FALSE(pred.complete);
  EXPECT_TRUE(pred.report.has("unbounded-hot-loop"))
      << pred.report.to_string("test");
  ASSERT_EQ(pred.loops.size(), 1u);
  EXPECT_EQ(pred.loops[0].verdict, LoopVerdict::kUnbounded);
  EXPECT_TRUE(pred.loops[0].hot);
}

TEST(CostModel, StepBudgetExhaustionRaisesCostOverflow) {
  const cp::Program p = cp::assemble(R"(
   main:
      ldc 100000
      stl 0
   loop:
      ldl 0
      adc -1
      stl 0
      ldl 0
      cj done
      j loop
   done:
      halt
  )");
  CostOptions opts;
  opts.max_steps = 100;
  const CostPrediction pred = predict_cost(p, verify(p).cfg, opts);
  EXPECT_FALSE(pred.complete);
  EXPECT_TRUE(pred.report.has("cost-overflow"))
      << pred.report.to_string("test");
}

// The prediction starts at the entry the verifier was given, not at a
// process it spawns that lies below it, and finds no loop in that process.
// An entry the verifier rejects still ends the prediction with a reason.
TEST(CostModel, StartsAtTheVerifiedEntry) {
  const cp::Program p = cp::assemble(R"(
   worker:
      ldc 1
      cj worker
      stopp
   main:
      ldc worker
      ldc 0x8201
      startp
      halt
  )");
  const VerifyResult v = verify(p);
  EXPECT_EQ(v.cfg.entries.size(), 2u);
  const CostPrediction pred = predict_cost(p, v.cfg);
  EXPECT_FALSE(pred.complete);
  EXPECT_GT(pred.stop_addr, p.symbols.at("main"));
  EXPECT_NE(pred.stop_reason.find("startp"), std::string::npos)
      << pred.stop_reason;
  EXPECT_TRUE(pred.loops.empty());

  VerifyOptions outside;
  outside.entries.insert(p.org + static_cast<std::uint32_t>(p.bytes.size()));
  const VerifyResult rejected = verify(p, outside);
  EXPECT_TRUE(rejected.report.has("bad-entry"));
  const CostPrediction none = predict_cost(p, rejected.cfg);
  EXPECT_FALSE(none.complete);
  EXPECT_FALSE(none.stop_reason.empty());
}

TEST(CostModel, ConstantOversizedVformIsAPerformanceError) {
  const std::string text = read_file(std::string(FPST_SOURCE_DIR) +
                                     "/tests/corpus/vform_overrun.tisa");
  const cp::Program p = cp::assemble(text);
  const CostPrediction pred = predict_cost(p, verify(p).cfg);
  EXPECT_TRUE(pred.report.has("vform-overrun"))
      << pred.report.to_string("test");
  EXPECT_GE(pred.report.count(Severity::kError, DiagClass::kPerformance), 1u);
  EXPECT_EQ(pred.report.count(Severity::kError, DiagClass::kValidity), 0u);
}

// ------------------------------------------------- channel-graph checker --

TEST(ChanGraph, RingOfBufferedSendsIsClean) {
  occam::CommSpec spec{2};
  spec.node(0).send(1, 1).recv(2, 1);
  spec.node(1).recv(0, 1).send(3, 1);
  spec.node(3).recv(1, 1).send(2, 1);
  spec.node(2).recv(3, 1).send(0, 1);
  const CommAnalysis a = analyze_comm(spec);
  EXPECT_FALSE(a.deadlock);
  EXPECT_FALSE(a.report.has_errors());
}

TEST(ChanGraph, HeadToHeadRecvDeadlocks) {
  occam::CommSpec spec{1};
  spec.node(0).recv(1, 5).send(1, 5);
  spec.node(1).recv(0, 5).send(0, 5);
  const CommAnalysis a = analyze_comm(spec);
  EXPECT_TRUE(a.deadlock);
  EXPECT_TRUE(a.report.has("deadlock"));
  ASSERT_EQ(a.cycle.size(), 3u);  // first node repeated at the end
  EXPECT_EQ(a.cycle.front(), a.cycle.back());
}

TEST(ChanGraph, ThreeNodeWaitCycle) {
  occam::CommSpec spec{2};
  spec.node(0).recv(2, 7).send(1, 7);
  spec.node(1).recv(0, 7).send(2, 7);
  spec.node(2).recv(1, 7).send(0, 7);
  const CommAnalysis a = analyze_comm(spec);
  EXPECT_TRUE(a.deadlock);
  ASSERT_EQ(a.cycle.size(), 4u);
}

TEST(ChanGraph, MatchedCollectivesAreClean) {
  occam::CommSpec spec{2};
  for (net::NodeId id = 0; id < spec.size(); ++id) {
    spec.node(id).broadcast(0).barrier().reduce_sum(0).allreduce_sum();
  }
  const CommAnalysis a = analyze_comm(spec);
  EXPECT_FALSE(a.deadlock);
  EXPECT_FALSE(a.report.has_errors()) << a.report.to_string("spec");
}

TEST(ChanGraph, MissingBarrierParticipantIsStuck) {
  occam::CommSpec spec{1};
  spec.node(0).barrier();
  spec.node(1).send(0, 3);
  const CommAnalysis a = analyze_comm(spec);
  EXPECT_TRUE(a.deadlock);
  EXPECT_TRUE(a.report.has("stuck-recv"));
  EXPECT_TRUE(a.cycle.empty());
}

TEST(ChanGraph, CollectiveCountSkewIsCaught) {
  // Node 0 runs two barriers, node 1 only one: the internal tag counter
  // diverges exactly as in the runtime, and the second barrier hangs.
  occam::CommSpec spec{1};
  spec.node(0).barrier().barrier();
  spec.node(1).barrier();
  const CommAnalysis a = analyze_comm(spec);
  EXPECT_TRUE(a.deadlock);
}

TEST(ChanGraph, RecvAnyMatchesAnySender) {
  occam::CommSpec spec{1};
  spec.node(0).recv_any(9);
  spec.node(1).send(0, 9);
  const CommAnalysis a = analyze_comm(spec);
  EXPECT_FALSE(a.deadlock);
}

TEST(ChanGraph, UnconsumedMessageIsWarnedNotFatal) {
  occam::CommSpec spec{1};
  spec.node(0).send(1, 9);
  const CommAnalysis a = analyze_comm(spec);
  EXPECT_FALSE(a.deadlock);
  EXPECT_FALSE(a.report.has_errors());
  EXPECT_TRUE(a.report.has("unconsumed-message"));
}

// ------------------------------------------------ static volume analyzer --

occam::CommSpec alltoall_spec() {
  // Static twin of examples/alltoall_traced.cpp (and of
  // examples/comm/alltoall.comm): 16 nodes, each sends 16 doubles to every
  // other node and drains 15 matching receives.
  occam::CommSpec spec{4};
  for (net::NodeId i = 0; i < 16; ++i) {
    for (net::NodeId k = 1; k < 16; ++k) {
      spec.node(i).send((i + k) % 16, 7, 16);
    }
    for (int k = 0; k < 15; ++k) {
      spec.node(i).recv_any(7);
    }
  }
  return spec;
}

TEST(CommVolume, AllToAllMatchesThePaperGroundTruth) {
  const VolumeAnalysis v = analyze_volume(alltoall_spec());
  EXPECT_FALSE(v.report.has_errors()) << v.report.to_string("alltoall");
  EXPECT_EQ(v.dimension, 4);
  EXPECT_EQ(v.messages, 240u);
  EXPECT_EQ(v.payload_bytes, 240u * 16 * 8);
  EXPECT_EQ(v.total_hops, 512u);
  // Perfectly balanced: all 32 edges of the 4-cube carry exactly 16
  // crossings of 128 payload bytes each.
  ASSERT_EQ(v.edges.size(), 32u);
  for (const net::EdgeTraffic& e : v.edges) {
    EXPECT_EQ(e.crossings, 16u);
    EXPECT_EQ(e.bytes, 16u * 16 * 8);
  }
  EXPECT_EQ(v.max_edge_crossings, 16u);
}

TEST(CommVolume, PerSourceArityMismatchIsValidityError) {
  occam::CommSpec spec{1};
  spec.node(0).send(1, 5).send(1, 5);
  spec.node(1).recv(0, 5);
  const VolumeAnalysis v = analyze_volume(spec);
  EXPECT_TRUE(v.report.has("chan-arity")) << v.report.to_string("spec");
  EXPECT_GE(v.report.count(Severity::kError, DiagClass::kValidity), 1u);
}

TEST(CommVolume, RecvAnyBalancesTotalsAcrossSources) {
  // Two senders, two recvany: arities balance in total even though no
  // per-source pairing exists — must not be flagged.
  occam::CommSpec spec{1};
  spec.node(0).send(1, 5);
  spec.node(1).recv_any(5).recv_any(5);
  spec.node(0).send(1, 5);
  const VolumeAnalysis v = analyze_volume(spec);
  EXPECT_FALSE(v.report.has("chan-arity")) << v.report.to_string("spec");
}

TEST(CommVolume, PayloadDisagreementIsFlagged) {
  occam::CommSpec spec{1};
  spec.node(0).send(1, 3, 8);
  spec.node(1).recv(0, 3, 4);
  const VolumeAnalysis v = analyze_volume(spec);
  EXPECT_TRUE(v.report.has("payload-mismatch")) << v.report.to_string("spec");
  EXPECT_GE(v.report.count(Severity::kError, DiagClass::kValidity), 1u);
}

TEST(CommVolume, EdgeBudgetOverflowIsPerformanceClass) {
  occam::CommSpec spec{1};
  spec.set_edge_budget(256);
  spec.node(0).send(1, 2, 64);  // 512 payload bytes over edge 0-1
  spec.node(1).recv(0, 2, 64);
  const VolumeAnalysis v = analyze_volume(spec);
  EXPECT_TRUE(v.report.has("edge-overload")) << v.report.to_string("spec");
  EXPECT_GE(v.report.count(Severity::kError, DiagClass::kPerformance), 1u);
  EXPECT_EQ(v.report.count(Severity::kError, DiagClass::kValidity), 0u);
}

TEST(CommVolume, CollectiveLoweringContributesVolume) {
  occam::CommSpec spec{2};
  for (net::NodeId id = 0; id < spec.size(); ++id) {
    spec.node(id).barrier();
  }
  const VolumeAnalysis v = analyze_volume(spec);
  EXPECT_FALSE(v.report.has_errors()) << v.report.to_string("spec");
  EXPECT_GT(v.messages, 0u);
  EXPECT_GT(v.total_hops, 0u);
}

// --------------------------------------------------------- .comm parser --

TEST(CommParse, RoundTripsOpsAndCollectives) {
  const occam::CommSpec spec = occam::parse_comm_spec(R"(
# a comment
dim 2
0: send 1 7 ; recvany 9 ; barrier
3: reduce 0 ; bcast 2 ; allreduce
)");
  EXPECT_EQ(spec.dimension(), 2);
  ASSERT_EQ(spec.ops(0).size(), 3u);
  EXPECT_EQ(spec.ops(0)[0].kind, occam::CommKind::kSend);
  EXPECT_EQ(spec.ops(0)[1].kind, occam::CommKind::kRecvAny);
  EXPECT_EQ(spec.ops(0)[2].kind, occam::CommKind::kBarrier);
  ASSERT_EQ(spec.ops(3).size(), 3u);
  EXPECT_EQ(spec.ops(3)[0].kind, occam::CommKind::kReduce);
  EXPECT_TRUE(spec.ops(1).empty());
}

TEST(CommParse, RejectsMalformedInput) {
  EXPECT_THROW(occam::parse_comm_spec("0: send 1 2\n"),
               occam::CommSpecError);
  EXPECT_THROW(occam::parse_comm_spec("dim 1\n9: barrier\n"),
               occam::CommSpecError);
  EXPECT_THROW(occam::parse_comm_spec("dim 1\n0: frobnicate\n"),
               occam::CommSpecError);
  EXPECT_THROW(occam::parse_comm_spec("dim 1\n0: send 1\n"),
               occam::CommSpecError);
}

TEST(CommParse, RefusesCollectiveTags) {
  // Tags from 0x8000 up are the collectives'. A user message tagged there
  // would escape the channel checks and could be consumed by a barrier.
  for (const char* text : {"dim 1\n0: send 1 32768 ; send 1 32768\n"
                           "1: recv 0 32768\n",
                           "dim 1\n0: send 1 32768 ; barrier\n"
                           "1: barrier ; recv 0 32768\n",
                           "dim 1\n0: recvany 65535\n"}) {
    try {
      occam::parse_comm_spec(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const occam::CommSpecError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("line 2: ", 0), 0u) << e.what();
    }
  }
  occam::CommSpec spec{1};
  EXPECT_THROW(spec.node(0).send(1, occam::kCollectiveTagBase),
               occam::CommSpecError);
  EXPECT_THROW(spec.node(1).recv(0, 0xFFFF), occam::CommSpecError);
  EXPECT_NO_THROW(spec.node(0).send(1, 0x7FFF).recv_any(0));
}

// ------------------------------------ static verdicts match the runtime --

TEST(ChanGraphVsRuntime, StaticDeadlockReproducesDynamically) {
  sim::Simulator sim;
  core::TSeries machine{sim, 1};
  occam::Runtime rt{machine};
  std::vector<occam::Runtime::Body> bodies;
  for (net::NodeId id = 0; id < 2; ++id) {
    bodies.push_back([id](occam::Ctx& ctx) -> sim::Proc {
      const net::NodeId peer = id ^ 1u;
      std::vector<double> in;
      co_await ctx.recv(peer, 5, &in);        // both receive first...
      std::vector<double> out(1, 1.0);
      co_await ctx.send(peer, 5, std::move(out));  // ...so neither sends
    });
  }
  EXPECT_THROW(rt.run(bodies), occam::DeadlockError);
}

TEST(ChanGraphVsRuntime, StaticCleanRingRunsDynamically) {
  sim::Simulator sim;
  core::TSeries machine{sim, 2};
  occam::Runtime rt{machine};
  // Same program as RingOfBufferedSendsIsClean.
  const net::NodeId next[] = {1, 3, 0, 2};  // 0->1->3->2->0
  const net::NodeId prev[] = {2, 0, 3, 1};
  std::vector<occam::Runtime::Body> bodies;
  for (net::NodeId id = 0; id < 4; ++id) {
    bodies.push_back([id, &next, &prev](occam::Ctx& ctx) -> sim::Proc {
      std::vector<double> in;
      if (id == 0) {
        std::vector<double> seed(1, 42.0);
        co_await ctx.send(next[id], 1, std::move(seed));
        co_await ctx.recv(prev[id], 1, &in);
      } else {
        co_await ctx.recv(prev[id], 1, &in);
        co_await ctx.send(next[id], 1, std::move(in));
      }
    });
  }
  EXPECT_NO_THROW(rt.run(bodies));
}

// ------------------------------------------------------- on-disk corpus --

struct CorpusCase {
  const char* file;
  const char* expected_code;
};

class CorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorpusTest, ProducesExpectedDiagnostic) {
  const CorpusCase& c = GetParam();
  const std::string path =
      std::string(FPST_SOURCE_DIR) + "/tests/corpus/" + c.file;
  const std::string text = read_file(path);
  // Run every analysis tcheck runs for the file kind; the expected code
  // may come from any of them.
  std::vector<Report> reports;
  const std::string name{c.file};
  if (name.size() > 5 && name.substr(name.size() - 5) == ".comm") {
    const occam::CommSpec spec = occam::parse_comm_spec(text);
    reports.push_back(analyze_comm(spec).report);
    reports.push_back(analyze_volume(spec).report);
  } else {
    const cp::Program prog = cp::assemble(text);
    const VerifyResult verified = verify(prog);
    reports.push_back(verified.report);
    reports.push_back(predict_cost(prog, verified.cfg).report);
  }
  bool found = false;
  std::string all;
  for (const Report& rep : reports) {
    found = found || rep.has(c.expected_code);
    all += rep.to_string(c.file);
  }
  EXPECT_TRUE(found)
      << c.file << " should produce [" << c.expected_code << "]; got:\n"
      << all;
}

INSTANTIATE_TEST_SUITE_P(
    BrokenPrograms, CorpusTest,
    ::testing::Values(CorpusCase{"bad_jump.tisa", "bad-jump"},
                      CorpusCase{"mid_instruction.tisa", "mid-instruction"},
                      CorpusCase{"stack_underflow.tisa", "stack-underflow"},
                      CorpusCase{"stack_overflow.tisa", "stack-overflow"},
                      CorpusCase{"oob_store.tisa", "bad-address"},
                      CorpusCase{"bad_vform.tisa", "bad-vform-desc"},
                      CorpusCase{"bad_hardchan.tisa", "bad-hard-chan"},
                      CorpusCase{"unreachable.tisa", "unreachable-code"},
                      CorpusCase{"deadlock_pair.comm", "deadlock"},
                      CorpusCase{"mismatched_barrier.comm", "stuck-recv"},
                      CorpusCase{"unbounded_hot_loop.tisa",
                                 "unbounded-hot-loop"},
                      CorpusCase{"cost_overflow.tisa", "cost-overflow"},
                      CorpusCase{"vform_overrun.tisa", "vform-overrun"},
                      CorpusCase{"chan_arity.comm", "chan-arity"},
                      CorpusCase{"payload_mismatch.comm", "payload-mismatch"},
                      CorpusCase{"edge_overload.comm", "edge-overload"}),
    [](const ::testing::TestParamInfo<CorpusCase>& param) {
      std::string n = param.param.file;
      for (char& ch : n) {
        if (ch == '.' || ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

TEST(Examples, AllShippedProgramsVerifyClean) {
  const CorpusCase clean[] = {
      {"examples/tisa/hello.tisa", ""},
      {"examples/tisa/soft_channel.tisa", ""},
      {"examples/tisa/hardchan_echo.tisa", ""},
      {"examples/tisa/vform_saxpy.tisa", ""},
  };
  for (const CorpusCase& c : clean) {
    const std::string text =
        read_file(std::string(FPST_SOURCE_DIR) + "/" + c.file);
    const cp::Program prog = cp::assemble(text);
    const auto res = verify(prog);
    EXPECT_FALSE(res.report.has_errors())
        << c.file << ":\n" << res.report.to_string(c.file);
    // The cost model must not raise performance errors on shipped code
    // either (tcheck exits 0 over every example).
    const CostPrediction pred = predict_cost(prog, res.cfg);
    EXPECT_FALSE(pred.report.has_errors())
        << c.file << ":\n" << pred.report.to_string(c.file);
  }
  const char* comms[] = {"examples/comm/ring.comm",
                         "examples/comm/collectives.comm",
                         "examples/comm/alltoall.comm"};
  for (const char* f : comms) {
    const std::string text =
        read_file(std::string(FPST_SOURCE_DIR) + "/" + f);
    const occam::CommSpec spec = occam::parse_comm_spec(text);
    const CommAnalysis a = analyze_comm(spec);
    EXPECT_FALSE(a.report.has_errors())
        << f << ":\n" << a.report.to_string(f);
    const VolumeAnalysis v = analyze_volume(spec);
    EXPECT_FALSE(v.report.has_errors())
        << f << ":\n" << v.report.to_string(f);
  }
}

TEST(Examples, AllToAllCommFileMatchesTheBuiltSpec) {
  // The on-disk .comm twin and the C++-built spec predict the same volume.
  const std::string text = read_file(std::string(FPST_SOURCE_DIR) +
                                     "/examples/comm/alltoall.comm");
  const VolumeAnalysis file = analyze_volume(occam::parse_comm_spec(text));
  const VolumeAnalysis built = analyze_volume(alltoall_spec());
  EXPECT_EQ(file.messages, built.messages);
  EXPECT_EQ(file.payload_bytes, built.payload_bytes);
  EXPECT_EQ(file.total_hops, built.total_hops);
  ASSERT_EQ(file.edges.size(), built.edges.size());
  for (std::size_t i = 0; i < file.edges.size(); ++i) {
    EXPECT_EQ(file.edges[i].crossings, built.edges[i].crossings);
    EXPECT_EQ(file.edges[i].bytes, built.edges[i].bytes);
  }
}

}  // namespace
}  // namespace fpst::check
