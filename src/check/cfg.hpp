// Control-flow graph recovery for assembled TISA programs.
//
// TISA instructions are variable length (pfix/nfix chains), so a linear
// sweep cannot tell code from data. The builder instead decodes
// recursively from the program entry points, following static jump/call
// targets and fall-through edges — exactly the addresses the control
// processor can reach — and reports, while it walks:
//
//   * control transfers landing outside the program image,
//   * transfers landing mid-instruction (two decodes overlap),
//   * truncated instructions (a prefix chain running off the image),
//   * execution falling off the end of the image.
//
// The resulting basic blocks feed the abstract interpreter in
// tisa_verify.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "check/diagnostics.hpp"
#include "cp/assembler.hpp"

namespace fpst::check {

/// How an instruction ends a basic block.
enum class Flow {
  kFall,      ///< falls through to the next instruction
  kJump,      ///< unconditional `j`
  kCondJump,  ///< `cj`: target when A == 0, fall-through (popping A) else
  kCall,      ///< `call`: target plus fall-through at the return point
  kStop,      ///< ret / halt / endp — no static successor
};

struct Insn {
  std::uint32_t addr = 0;  ///< absolute address of the first (prefix) byte
  cp::Decoded d{};
  std::uint32_t next() const { return addr + d.size; }
  Flow flow() const;
  /// Absolute target for j/cj/call (relative to the next instruction).
  std::optional<std::uint32_t> static_target() const;
  bool is_secondary(cp::SecOp s) const {
    return d.op == cp::Op::opr &&
           static_cast<cp::SecOp>(d.operand) == s;
  }
};

struct BasicBlock {
  std::uint32_t start = 0;
  std::vector<Insn> insns;
  std::vector<std::uint32_t> succs;  ///< successor block start addresses
  const Insn& terminator() const { return insns.back(); }
};

struct Cfg {
  std::uint32_t lo = 0;  ///< image start (Program::org)
  std::uint32_t hi = 0;  ///< one past the last image byte
  std::map<std::uint32_t, Insn> insns;        ///< every decoded instruction
  std::map<std::uint32_t, BasicBlock> blocks;  ///< keyed by start address
  std::set<std::uint32_t> entries;             ///< block starts that are roots
  /// Where a lone process starts: verify() sets it to the first entry it
  /// was given (or defaulted to), never to a startp target it found, which
  /// may lie below it. It may lie outside the image.
  std::uint32_t start = 0;

  bool in_image(std::uint32_t a) const { return a >= lo && a < hi; }
};

/// Decode `p` from `entries` (absolute addresses; each must lie in the
/// image) and partition into basic blocks. Structural problems are appended
/// to `rep`; the walk continues best-effort past them.
Cfg build_cfg(const cp::Program& p, const std::set<std::uint32_t>& entries,
              Report& rep);

}  // namespace fpst::check
