// Two-pass assembler for TISA (see isa.hpp).
//
// Syntax, one statement per line:
//   ; comment                       anything after ';' is ignored
//   label:                          define `label` at the current address
//   ldc 42                          primary op, numeric operand
//   ldc buffer                      primary op, label operand (absolute)
//   j loop / cj done / call fn      control transfer, label operand
//                                   (assembled relative to the next
//                                   instruction, as the hardware executes)
//   add / halt / out ...            secondary op (opr is implied)
//   .org 0x1000                     set load address (before any code)
//   .word 42 / .word label          emit a literal 32-bit word
//   .space 16                       reserve zeroed bytes
//   .align                          pad to a 4-byte boundary
//
// Numeric operands get the minimal pfix/nfix chain ("variable operand
// sizes", §II); label operands use a fixed six-byte encoding so that two
// passes suffice.
//
// assemble() throws a line-numbered AsmError for any text the machine
// cannot take: a number outside [-2^31, 2^32 - 1], a label operand the
// six bytes cannot hold, and an image that leaves the RAM region of the
// memory map (cp/isa.hpp) its `.org` lies in, which it refuses before
// allocating the image.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cp/isa.hpp"

namespace fpst::cp {

class AsmError : public std::runtime_error {
 public:
  AsmError(std::size_t line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_{line} {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

struct Program {
  std::uint32_t org = 0;
  std::vector<std::uint8_t> bytes;
  std::map<std::string, std::uint32_t> symbols;
  /// (address, source line) per emitted statement, ascending by address —
  /// lets tools (disassembler, tcheck) map a program offset back to the
  /// assembly line that produced it.
  std::vector<std::pair<std::uint32_t, std::size_t>> lines;

  std::uint32_t entry() const { return org; }
  std::uint32_t symbol(const std::string& name) const;
  /// Source line of the statement covering `addr` (0 when unknown).
  std::size_t line_at(std::uint32_t addr) const;
};

/// Assemble TISA source text.
Program assemble(const std::string& source);

/// Minimal pfix/nfix encoding of (op, operand) — exposed for tests and for
/// the disassembler's round-trip checks.
std::vector<std::uint8_t> encode(Op op, std::int32_t operand);
/// Fixed-width (6-byte) encoding used for label operands.
std::vector<std::uint8_t> encode_fixed(Op op, std::int32_t operand);

/// One decoded instruction (for tracing/debugging).
struct Decoded {
  Op op;
  std::int32_t operand;
  std::uint32_t size;  // bytes consumed including prefixes
};
/// Decode the instruction starting at bytes[pos].
Decoded decode(const std::vector<std::uint8_t>& bytes, std::size_t pos);

/// Human-readable disassembly of a whole program (one instruction per line).
std::string disassemble(const Program& p);

}  // namespace fpst::cp
