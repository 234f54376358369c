// Static cycle-cost prediction for assembled TISA programs (DESIGN.md §4.4).
//
// predict_cost() symbolically executes a program over the recovered CFG
// with the exact cost accounting of the interpreter in cp/cpu.cpp. The
// timing constants are the simulator's own (cp::CpuParams, mem::MemParams,
// vpu::VectorUnit::duration_of, link::LinkParams), and so are the rules:
// the integer ALU and its mul/div cost (cp::alu, lifted by abs_alu), the
// memory map (cp::in_dram), the vector unit's refusal of a vform
// (vpu::refusal) and its flop count (vpu::flops_for). So for a program
// whose control flow is statically decidable the predicted elapsed time
// equals the simulator's measurement bit-for-bit.
//
// The executor is an abstract interpreter over the same constant lattice
// the verifier uses (check/tisa_verify.hpp), with its own instruction
// switch (it tracks memory and time too), extended with:
//   * a concrete workspace pointer (CostOptions::wptr, matching the value
//     passed to Cpu::start_process),
//   * a word-granular memory overlay seeded from the program image
//     (unwritten RAM reads as 0, exactly like the zero-initialised
//     mem::NodeMemory), so counted loops, call/ret through the workspace
//     and vform descriptors built with stl/stnl stay fully constant,
//   * the CP clock, the vector-unit completion time and link occupancy.
//
// Honesty rules — the model never guesses control flow:
//   * a cj whose condition is not a compile-time constant stops the
//     prediction (complete = false, stop_reason says why) and marks every
//     natural loop containing it `unbounded`;
//   * statically-unbounded loops whose body contains communication or
//     vector work raise the `unbounded-hot-loop` diagnostic (performance
//     class); cold ones get an `unbounded-loop` note;
//   * a bounded prediction whose instruction count exceeds
//     CostOptions::max_steps raises `cost-overflow` and stops;
//   * a constant vform descriptor the vector unit refuses (vpu::refusal:
//     an element count outside the row, an f32 conversion, a row out of
//     range) raises `vform-overrun` — the static twin of the
//     std::invalid_argument VectorUnit::execute throws — and is predicted
//     as the fault the CP takes. A form no enumerator names raises it too,
//     though the unit runs that form (timed, computing nothing), and is
//     predicted as that run.
//
// Modelling assumptions, stated rather than hidden: hard-channel partners
// are assumed ready (a transfer costs link::LinkParams::transfer_time and
// the process resumes after it plus one switch time), and data accesses
// through statically-unknown pointers are charged the off-chip (DRAM)
// penalty, the common case. Multi-process programs (startp/endp/runp) and
// soft-channel rendezvous stop the prediction honestly instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/cfg.hpp"
#include "check/diagnostics.hpp"
#include "cp/assembler.hpp"
#include "sim/time.hpp"

namespace fpst::check {

struct CostOptions {
  /// Initial workspace pointer, as passed to Cpu::start_process.
  std::uint32_t wptr = 0x8000;
  /// Abort a (bounded but huge) prediction after this many executed
  /// instruction bytes and raise `cost-overflow`.
  std::uint64_t max_steps = 2'000'000;
};

/// What the analyzer decided about one natural loop.
enum class LoopVerdict {
  kBounded,    ///< the executor ran it to exit; `iterations` is exact
  kUnbounded,  ///< no exit edge, or the bound is not statically decidable
  kUnknown,    ///< the prediction stopped before reaching this loop's exit
};

struct LoopInfo {
  std::uint32_t head = 0;       ///< block start address of the loop header
  std::uint32_t back_edge = 0;  ///< address of the jump that closes it
  LoopVerdict verdict = LoopVerdict::kUnknown;
  bool hot = false;             ///< body does channel/vector/block-move work
  std::uint64_t iterations = 0;  ///< header entries observed (kBounded only)
};

struct CostPrediction {
  Report report;
  bool complete = false;     ///< reached halt with all costs accounted
  std::string stop_reason;   ///< why the prediction ended early
  std::uint32_t stop_addr = 0;

  /// Counters; `instructions` counts fetched bytes including prefixes,
  /// matching Cpu::instructions_executed().
  std::uint64_t instructions = 0;
  std::uint64_t flops = 0;
  std::uint64_t vforms = 0;

  sim::SimTime elapsed{};   ///< predicted simulator time at event drain
  sim::SimTime cp_busy{};   ///< control-processor execution time
  sim::SimTime vpu_busy{};  ///< vector-pipe occupancy
  sim::SimTime link_busy{}; ///< hard-channel wire + DMA occupancy

  std::vector<LoopInfo> loops;
};

/// Predict the cost of running `p` as a single process from `cfg.start`,
/// over the CFG verify() recovered for it (VerifyResult::cfg), so the image
/// is decoded once. Performance diagnostics land in `report` with
/// DiagClass::kPerformance; structural problems are the verifier's job and
/// are not re-reported here.
CostPrediction predict_cost(const cp::Program& p, const Cfg& cfg,
                            const CostOptions& opts = {});

}  // namespace fpst::check
