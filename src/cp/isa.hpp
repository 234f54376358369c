// Instruction set of the T Series control processor.
//
// The paper (§II "Control") describes the node controller: a 32-bit CMOS
// microprocessor at 7.5 MIPS with byte addressability, 2 KB of single-cycle
// on-chip RAM, four serial links, a stack-oriented instruction set with
// variable operand sizes, and two-level process priority — i.e. an
// Inmos-transputer-class device programmed in Occam. This module defines
// TISA, a transputer-inspired ISA that reproduces those properties:
//
//   * one-byte instructions: 4-bit opcode, 4-bit operand nibble;
//   * an operand register O built up by pfix/nfix, giving variable operand
//     sizes exactly as the paper says;
//   * a three-register evaluation stack (A, B, C) plus workspace pointer;
//   * secondary operations selected by `opr`, including process control
//     (startp/endp/stopp/runp), CSP channels (in/out) over both memory
//     words (soft channels between processes on one node) and link
//     addresses (hard channels between nodes), timers, and the T Series
//     extension ops that drive the vector unit (vform/vwait).
//
// The memory map (see kOnChipBase etc. below) places the node's 1 MB DRAM
// at address 0, the 2 KB on-chip RAM in its own region, and hard channel
// words in a reserved high region, one per (port, sublink, direction).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace fpst::cp {

/// Primary (direct) 4-bit opcodes.
enum class Op : std::uint8_t {
  j = 0x0,     ///< jump relative to next instruction
  ldlp = 0x1,  ///< push Wptr + 4*O
  pfix = 0x2,  ///< O = (O | nibble) << 4
  ldnl = 0x3,  ///< A = mem[A + 4*O]
  ldc = 0x4,   ///< push O
  ldnlp = 0x5, ///< A = A + 4*O
  nfix = 0x6,  ///< O = (~(O | nibble)) << 4
  ldl = 0x7,   ///< push mem[Wptr + 4*O]
  adc = 0x8,   ///< A = A + O
  call = 0x9,  ///< push return address to new workspace word; jump
  cj = 0xA,    ///< if A == 0 jump else pop
  ajw = 0xB,   ///< Wptr = Wptr + 4*O
  eqc = 0xC,   ///< A = (A == O) ? 1 : 0
  stl = 0xD,   ///< mem[Wptr + 4*O] = A; pop
  stnl = 0xE,  ///< mem[A + 4*O] = B; pop two
  opr = 0xF,   ///< secondary operation O
};

/// Secondary opcodes (operand of opr).
enum class SecOp : std::uint16_t {
  rev = 0x00,    ///< swap A and B
  add = 0x01,    ///< A = B + A; pop
  sub = 0x02,    ///< A = B - A; pop
  mul = 0x03,    ///< A = B * A, low 32 bits; pop (slow: kMulDivCostFactor)
  divi = 0x04,   ///< A = B / A signed, rounded toward zero; pop (slow). A
                 ///< zero divisor, and 0x80000000 / -1 (a quotient of 2^31),
                 ///< set the error flag and leave A = 0
  rem = 0x05,    ///< A = B % A signed; pop (slow). A zero divisor sets the
                 ///< error flag and leaves A = 0; 0x80000000 % -1 is 0
  land = 0x06,   ///< A = B & A; pop
  lor = 0x07,    ///< A = B | A; pop
  lxor = 0x08,   ///< A = B ^ A; pop
  lnot = 0x09,   ///< A = ~A
  shl = 0x0A,    ///< A = B << A (0 once A >= 32); pop
  shr = 0x0B,    ///< A = B >> A (logical; 0 once A >= 32); pop
  gt = 0x0C,     ///< A = (B > A) signed; pop
  mint = 0x0D,   ///< push 0x80000000 (NotProcess)
  ldpi = 0x0E,   ///< A = Iptr(next) + A  (address of code-relative data)
  wsub = 0x0F,   ///< A = A + 4*B; pop     (word subscript)
  bsub = 0x10,   ///< A = A + B; pop       (byte subscript)
  lb = 0x11,     ///< A = zero-extended byte mem[A]
  sb = 0x12,     ///< byte mem[A] = B; pop two
  move = 0x13,   ///< block move: C=src, B=dst, A=count bytes; pop three
  in = 0x14,     ///< channel input:  C=dst ptr, B=chan addr, A=count; pop 3
  out = 0x15,    ///< channel output: C=src ptr, B=chan addr, A=count; pop 3
  startp = 0x16, ///< spawn process: A=child Wdesc, B=code address; pop two
  endp = 0x17,   ///< end of PAR branch: A=sync block addr
  stopp = 0x18,  ///< deschedule self, do not requeue
  runp = 0x19,   ///< enqueue process descriptor A; pop
  ldtimer = 0x1A,///< push current time (microsecond ticks)
  tin = 0x1B,    ///< wait until timer >= A; pop
  ret = 0x1C,    ///< return: Iptr = mem[Wptr]; Wptr += 4
  vform = 0x1D,  ///< start vector form, A = descriptor address; pop
  vwait = 0x1E,  ///< block until the vector unit raises completion
  gather = 0x1F, ///< gather: C=index table, B=dst vector, A=count64; pop 3
  scatter = 0x20,///< scatter: C=index table, B=src vector, A=count64; pop 3
  halt = 0x21,   ///< stop the whole processor (end of program)
  testerr = 0x22,///< push and clear the error flag
};

/// Multiply, divide and remainder are microcoded multi-cycle operations:
/// each takes this many instruction times.
inline constexpr int kMulDivCostFactor = 5;

/// What the integer ALU makes of one secondary op (see alu()).
struct AluResult {
  std::uint32_t value = 0;      ///< A's new value
  bool pops = true;             ///< B and A give way to `value`; false: A does
  int extra_instrs = 0;         ///< instruction times beyond the first
  const char* fault = nullptr;  ///< why the op sets the error flag, if it does
};

/// The integer ALU, the one definition of the arithmetic and logic ops
/// add ... bsub (all but mint, a constant push, and ldpi, which reads
/// Iptr): what A becomes from B and A, whether the op faults, and what it
/// costs; nullopt for any other op. The interpreter, the verifier and the
/// cost model each keep their own stack, memory and time, and call this
/// for the arithmetic.
constexpr std::optional<AluResult> alu(SecOp op, std::uint32_t b,
                                       std::uint32_t a) {
  const auto sb = static_cast<std::int32_t>(b);
  const auto sa = static_cast<std::int32_t>(a);
  AluResult r;
  switch (op) {
    case SecOp::add: r.value = b + a; break;
    case SecOp::sub: r.value = b - a; break;
    case SecOp::mul:
      r.value = b * a;  // the low 32 bits of the signed product too
      r.extra_instrs = kMulDivCostFactor - 1;
      break;
    case SecOp::divi:
    case SecOp::rem:
      r.extra_instrs = kMulDivCostFactor - 1;
      if (a == 0) {
        r.fault = "division by zero";
      } else if (sb == INT32_MIN && sa == -1) {
        r.fault = op == SecOp::divi ? "division overflow" : nullptr;
      } else {
        r.value = static_cast<std::uint32_t>(op == SecOp::divi ? sb / sa
                                                               : sb % sa);
      }
      break;
    case SecOp::land: r.value = b & a; break;
    case SecOp::lor: r.value = b | a; break;
    case SecOp::lxor: r.value = b ^ a; break;
    case SecOp::lnot:
      r.value = ~a;
      r.pops = false;
      break;
    case SecOp::shl: r.value = a >= 32 ? 0 : b << a; break;
    case SecOp::shr: r.value = a >= 32 ? 0 : b >> a; break;
    case SecOp::gt: r.value = sb > sa ? 1 : 0; break;
    case SecOp::wsub: r.value = a + 4 * b; break;
    case SecOp::bsub: r.value = a + b; break;
    default: return std::nullopt;
  }
  return r;
}

/// Memory map.
inline constexpr std::uint32_t kDramBase = 0x0000'0000;     // 1 MB DRAM
inline constexpr std::uint32_t kDramBytes = 1u << 20;
inline constexpr std::uint32_t kOnChipBase = 0x1000'0000;   // 2 KB fast RAM
inline constexpr std::uint32_t kOnChipBytes = 2048;
inline constexpr std::uint32_t kHardChanBase = 0xF000'0000;

/// Which addresses are RAM. A word access ignores its address's two low
/// bits, so a word is RAM exactly when its address is.
inline constexpr bool in_dram(std::uint32_t addr) {
  return addr - kDramBase < kDramBytes;
}
inline constexpr bool on_chip(std::uint32_t addr) {
  return addr - kOnChipBase < kOnChipBytes;
}
inline constexpr bool in_ram(std::uint32_t addr) {
  return in_dram(addr) || on_chip(addr);
}
/// One past the last byte of the RAM region holding `addr` (0 when `addr`
/// is no RAM). A program image must lie within one region.
inline constexpr std::uint64_t ram_end(std::uint32_t addr) {
  return in_dram(addr)   ? std::uint64_t{kDramBase} + kDramBytes
         : on_chip(addr) ? std::uint64_t{kOnChipBase} + kOnChipBytes
                         : 0;
}

/// Hard channel word: kHardChanBase | port<<3 | sublink<<1 | dir.
/// dir 0 = output (this node transmits), 1 = input.
inline constexpr std::uint32_t hard_chan_addr(int port, int sublink, int dir) {
  return kHardChanBase | (static_cast<std::uint32_t>(port) << 3) |
         (static_cast<std::uint32_t>(sublink) << 1) |
         static_cast<std::uint32_t>(dir);
}
inline constexpr bool is_hard_chan(std::uint32_t addr) {
  return (addr & 0xF000'0000) == kHardChanBase;
}
/// The fields of a hard channel word, hard_chan_addr's inverse.
struct HardChan {
  int port = 0;
  int sublink = 0;
  int dir = 0;
  bool reserved_bits = false;  ///< bits outside the three fields are set
};
inline constexpr HardChan decode_hard_chan(std::uint32_t addr) {
  return HardChan{static_cast<int>((addr >> 3) & 0xF),
                  static_cast<int>((addr >> 1) & 0x3),
                  static_cast<int>(addr & 1u), (addr & 0x0FFF'FF80u) != 0};
}

/// The "not a process" marker stored in empty channel words.
inline constexpr std::uint32_t kNotProcess = 0x8000'0000;

/// Descriptor block layout for `vform` (word offsets from the descriptor
/// address; the whole block must lie within one RAM region):
///   +0 form (vpu::VectorForm)   +4 precision (0=f32, 1=f64)
///   +8 n                        +12 row_x
///   +16 row_y                   +20 row_z
///   +24 scalar lo32             +28 scalar hi32
///   +32 result lo32 (written)   +36 result hi32 (written)
///   +40 result index (written)  +44 flags (written; bit0 invalid,
///        bit1 overflow, bit2 underflow, bit3 inexact)
inline constexpr std::uint32_t kVformDescWords = 12;

std::string to_string(Op op);
std::optional<SecOp> secop_by_name(const std::string& name);
std::string to_string(SecOp op);

}  // namespace fpst::cp
