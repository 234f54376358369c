// Static verifier for assembled TISA programs (DESIGN.md §6.1).
//
// Recovers the control-flow graph (check/cfg.hpp) and abstractly interprets
// every basic block to a fixpoint. The abstract state is the three-register
// evaluation stack: a depth in {0..3, unknown} plus a constant/unknown
// lattice value per register. On top of the structural CFG diagnostics this
// flags, at build time, the classes of fault the interpreter in cp/cpu.cpp
// only reports dynamically:
//
//   * eval-stack underflow (reading operands that were never pushed) and
//     overflow (pushing a fourth value silently drops the C register),
//   * ldnl/stnl/lb/sb/move/gather/scatter addresses provably outside the
//     DRAM / on-chip / hard-channel memory map of cp/isa.hpp,
//   * vform descriptor addresses that are unaligned, or whose 48-byte
//     descriptor block does not lie within one RAM region,
//   * in/out on malformed hard-channel addresses: port or sublink out of
//     range for a 4-link node, reserved bits set, or a direction bit that
//     contradicts the operation,
//   * division by a constant zero, or of a constant 0x80000000 by -1
//     (cp::alu's faulting cases),
//   * unreachable code (gaps the CFG walk never reached that are neither
//     zero-filled padding nor labelled data).
//
// `startp` targets found constant are added as extra program entry points
// and analysed with a fresh stack, exactly as the scheduler would run them.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "check/cfg.hpp"
#include "check/diagnostics.hpp"
#include "cp/assembler.hpp"

namespace fpst::check {

// ---- the abstract-interpretation lattice ------------------------------
//
// Exported so the cost model (check/cost_model.hpp) lifts the ALU the same
// way the verifier does (abs_alu), and so property tests can check the
// lattice laws (join commutativity/associativity/idempotence, transfer
// monotonicity) directly.

/// One abstract register: a known 32-bit constant or top (unknown).
struct AbsVal {
  bool known = false;
  std::uint32_t v = 0;
};

inline AbsVal abs_const(std::uint32_t v) { return AbsVal{true, v}; }
inline AbsVal abs_unknown() { return AbsVal{}; }

inline bool operator==(const AbsVal& x, const AbsVal& y) {
  return x.known == y.known && (!x.known || x.v == y.v);
}
inline bool operator!=(const AbsVal& x, const AbsVal& y) { return !(x == y); }

/// Abstract machine state: the A/B/C evaluation stack. `depth` is the
/// number of live values (-1 once control paths joined with different
/// depths — both depth checks are then suppressed, matching programs like
/// the cj idiom where the taken path keeps A and the fall-through pops it).
struct AbsStack {
  int depth = 0;  // -1 = unknown
  AbsVal a, b, c;
};

inline bool operator==(const AbsStack& x, const AbsStack& y) {
  return x.depth == y.depth && x.a == y.a && x.b == y.b && x.c == y.c;
}
inline bool operator!=(const AbsStack& x, const AbsStack& y) {
  return !(x == y);
}

/// Lattice join: widen `into` until it also covers `from`. Returns true
/// when `into` changed (the fixpoint loop's convergence signal).
bool abs_join(AbsStack& into, const AbsStack& from);

/// Partial order: x ⊑ y iff every concrete state x describes, y describes
/// too (y is at least as abstract as x).
bool abs_leq(const AbsStack& x, const AbsStack& y);

/// cp::alu over the lattice. A is known afterwards when A was and B was
/// too, or when the result does not depend on B: a `not`, or a zero
/// divisor, which faults and leaves A = 0 whatever B holds. `fault` is set
/// only when the op certainly faults. nullopt for a non-ALU op.
struct AbsAlu {
  AbsVal value;
  bool pops = true;
  int extra_instrs = 0;
  const char* fault = nullptr;
};
std::optional<AbsAlu> abs_alu(cp::SecOp op, const AbsVal& b,
                               const AbsVal& a);

/// Diagnostic-free transfer function: the stack effect of one decoded
/// instruction, byte-identical to what the verifier applies while it also
/// emits diagnostics. Depth underflow is clamped to the operand count the
/// instruction reads (the verifier reports it; pure callers just keep a
/// total function). Edge-specific effects of cj/call are NOT applied here
/// — they belong to CFG edges, not instructions.
void abs_step(const Insn& in, AbsStack& st);

struct VerifyOptions {
  /// Physical links per node (hard-channel port range).
  int ports = 4;
  /// Sublinks multiplexed onto each link.
  int sublinks = 4;
  /// Extra entry points (absolute addresses) beside the default one.
  /// When empty, the entry is the `main` symbol if defined, else the org.
  std::set<std::uint32_t> entries;
};

/// One constant hard-channel endpoint referenced by an `in`/`out`, for
/// cross-program wiring summaries.
struct HardChanUse {
  std::uint32_t addr = 0;  ///< instruction address of the in/out
  int port = 0;
  int sublink = 0;
  int dir = 0;  ///< 0 = output, 1 = input (address convention)
  bool is_input = false;  ///< the operation was `in`
};

struct VerifyResult {
  Report report;
  Cfg cfg;
  std::vector<HardChanUse> hard_chans;
};

/// Run every analysis over `p`. Diagnostics are line-annotated from
/// `p.lines` when the assembler recorded source lines.
VerifyResult verify(const cp::Program& p, const VerifyOptions& opts = {});

}  // namespace fpst::check
