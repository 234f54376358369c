#include "cp/assembler.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <optional>
#include <sstream>

namespace fpst::cp {

namespace {

struct Mnemonic {
  const char* name;
  Op op;
};

constexpr std::array<Mnemonic, 15> kPrimaries{{
    {"j", Op::j}, {"ldlp", Op::ldlp}, {"pfix", Op::pfix}, {"ldnl", Op::ldnl},
    {"ldc", Op::ldc}, {"ldnlp", Op::ldnlp}, {"nfix", Op::nfix},
    {"ldl", Op::ldl}, {"adc", Op::adc}, {"call", Op::call}, {"cj", Op::cj},
    {"ajw", Op::ajw}, {"eqc", Op::eqc}, {"stl", Op::stl}, {"stnl", Op::stnl},
}};

struct SecMnemonic {
  const char* name;
  SecOp op;
};

constexpr std::array<SecMnemonic, 35> kSecondaries{{
    {"rev", SecOp::rev}, {"add", SecOp::add}, {"sub", SecOp::sub},
    {"mul", SecOp::mul}, {"div", SecOp::divi}, {"rem", SecOp::rem},
    {"and", SecOp::land}, {"or", SecOp::lor}, {"xor", SecOp::lxor},
    {"not", SecOp::lnot}, {"shl", SecOp::shl}, {"shr", SecOp::shr},
    {"gt", SecOp::gt}, {"mint", SecOp::mint}, {"ldpi", SecOp::ldpi},
    {"wsub", SecOp::wsub}, {"bsub", SecOp::bsub}, {"lb", SecOp::lb},
    {"sb", SecOp::sb}, {"move", SecOp::move}, {"in", SecOp::in},
    {"out", SecOp::out}, {"startp", SecOp::startp}, {"endp", SecOp::endp},
    {"stopp", SecOp::stopp}, {"runp", SecOp::runp},
    {"ldtimer", SecOp::ldtimer}, {"tin", SecOp::tin}, {"ret", SecOp::ret},
    {"vform", SecOp::vform}, {"vwait", SecOp::vwait},
    {"gather", SecOp::gather}, {"scatter", SecOp::scatter},
    {"halt", SecOp::halt}, {"testerr", SecOp::testerr},
}};

std::optional<Op> primary_by_name(const std::string& s) {
  for (const Mnemonic& m : kPrimaries) {
    if (s == m.name) {
      return m.op;
    }
  }
  return std::nullopt;
}

constexpr std::size_t kLabelEncodedBytes = 6;

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  std::size_t e = s.find_last_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  return s.substr(b, e - b + 1);
}

struct Statement {
  std::size_t line;
  std::string mnemonic;  // empty for pure-label / directive lines
  std::string operand;   // raw text; may be empty
  std::vector<std::string> labels;
  // directives
  bool is_word = false;
  bool is_space = false;
  bool is_align = false;
  bool is_org = false;
};

/// Read a number (decimal, 0x hex, 0 octal, negative). False when `text`
/// is no number (a label, say); a number outside [-2^31, 2^32 - 1] fits no
/// 32-bit word and is refused.
bool parse_int(const std::string& text, std::size_t line, std::int64_t& out) {
  if (text.empty()) {
    return false;
  }
  const auto too_wide = [&] {
    return AsmError(line, "number " + text + " does not fit in 32 bits");
  };
  std::size_t pos = 0;
  try {
    out = std::stoll(text, &pos, 0);
  } catch (const std::out_of_range&) {
    throw too_wide();
  } catch (...) {
    return false;
  }
  if (pos != text.size()) {
    return false;
  }
  if (out < INT32_MIN || out > UINT32_MAX) {
    throw too_wide();
  }
  return true;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

std::size_t Program::line_at(std::uint32_t addr) const {
  if (lines.empty() || addr < lines.front().first ||
      addr >= org + bytes.size()) {
    return 0;
  }
  // Last entry at or below addr.
  auto it = std::upper_bound(
      lines.begin(), lines.end(), addr,
      [](std::uint32_t a, const auto& e) { return a < e.first; });
  return std::prev(it)->second;
}

std::uint32_t Program::symbol(const std::string& name) const {
  auto it = symbols.find(name);
  if (it == symbols.end()) {
    throw std::out_of_range("Program::symbol: unknown symbol " + name);
  }
  return it->second;
}

std::vector<std::uint8_t> encode(Op op, std::int32_t operand) {
  std::vector<std::uint8_t> out;
  // Recursive minimal prefix encoding (the transputer scheme).
  auto rec = [&out](auto&& self, Op final_op, std::int32_t v) -> void {
    if (v >= 0 && v < 16) {
      out.push_back(static_cast<std::uint8_t>(
          (static_cast<unsigned>(final_op) << 4) | static_cast<unsigned>(v)));
      return;
    }
    if (v >= 16) {
      self(self, Op::pfix, v >> 4);
    } else {  // v < 0
      self(self, Op::nfix, (~v) >> 4);
    }
    out.push_back(static_cast<std::uint8_t>(
        (static_cast<unsigned>(final_op) << 4) |
        (static_cast<unsigned>(v) & 0xFu)));
  };
  // The outer call must emit prefixes for `operand` then the final byte.
  if (operand >= 0 && operand < 16) {
    out.push_back(static_cast<std::uint8_t>(
        (static_cast<unsigned>(op) << 4) | static_cast<unsigned>(operand)));
  } else if (operand >= 16) {
    rec(rec, Op::pfix, operand >> 4);
    out.push_back(static_cast<std::uint8_t>(
        (static_cast<unsigned>(op) << 4) |
        (static_cast<unsigned>(operand) & 0xFu)));
  } else {
    rec(rec, Op::nfix, (~operand) >> 4);
    out.push_back(static_cast<std::uint8_t>(
        (static_cast<unsigned>(op) << 4) |
        (static_cast<unsigned>(operand) & 0xFu)));
  }
  return out;
}

std::vector<std::uint8_t> encode_fixed(Op op, std::int32_t operand) {
  std::vector<std::uint8_t> minimal = encode(op, operand);
  if (minimal.size() > kLabelEncodedBytes) {
    throw std::runtime_error("encode_fixed: operand needs > 6 bytes");
  }
  // Leading `pfix 0` bytes leave the operand register unchanged (O starts
  // at zero), so padding in front preserves the value.
  std::vector<std::uint8_t> out(
      kLabelEncodedBytes - minimal.size(),
      static_cast<std::uint8_t>(static_cast<unsigned>(Op::pfix) << 4));
  out.insert(out.end(), minimal.begin(), minimal.end());
  return out;
}

Decoded decode(const std::vector<std::uint8_t>& bytes, std::size_t pos) {
  std::uint32_t oreg = 0;
  std::uint32_t size = 0;
  while (pos + size < bytes.size()) {
    const std::uint8_t b = bytes[pos + size];
    ++size;
    const Op op = static_cast<Op>(b >> 4);
    const std::uint32_t nib = b & 0xFu;
    if (op == Op::pfix) {
      oreg = (oreg | nib) << 4;
    } else if (op == Op::nfix) {
      oreg = (~(oreg | nib)) << 4;
    } else {
      return Decoded{op, static_cast<std::int32_t>(oreg | nib), size};
    }
  }
  throw std::runtime_error("decode: ran off the end inside prefixes");
}

Program assemble(const std::string& source) {
  // ---- parse ----
  std::vector<Statement> stmts;
  std::istringstream in(source);
  std::string raw;
  std::size_t lineno = 0;
  std::vector<std::string> pending_labels;
  std::uint32_t org = 0x1000;  // default load address in DRAM
  bool org_set = false;
  bool any_code = false;

  while (std::getline(in, raw)) {
    ++lineno;
    std::string text = raw;
    if (const std::size_t c = text.find(';'); c != std::string::npos) {
      text = text.substr(0, c);
    }
    text = trim(text);
    while (!text.empty()) {
      // Leading labels, possibly several on one line.
      const std::size_t colon = text.find(':');
      const std::size_t ws = text.find_first_of(" \t");
      if (colon != std::string::npos && (ws == std::string::npos || colon < ws)) {
        const std::string label = trim(text.substr(0, colon));
        if (label.empty()) {
          throw AsmError(lineno, "empty label");
        }
        pending_labels.push_back(label);
        text = trim(text.substr(colon + 1));
        continue;
      }
      break;
    }
    if (text.empty()) {
      continue;  // labels (if any) stay pending for the next statement
    }
    Statement st;
    st.line = lineno;
    st.labels = std::move(pending_labels);
    pending_labels.clear();
    const std::size_t sp = text.find_first_of(" \t");
    st.mnemonic = text.substr(0, sp);
    st.operand = sp == std::string::npos ? "" : trim(text.substr(sp + 1));
    if (st.mnemonic == ".word") {
      st.is_word = true;
    } else if (st.mnemonic == ".space") {
      st.is_space = true;
    } else if (st.mnemonic == ".align") {
      st.is_align = true;
    } else if (st.mnemonic == ".org") {
      if (any_code || org_set) {
        throw AsmError(lineno, ".org must appear once, before any code");
      }
      std::int64_t v = 0;
      if (!parse_int(st.operand, lineno, v)) {
        throw AsmError(lineno, "bad .org operand");
      }
      org = static_cast<std::uint32_t>(v);
      if (!in_ram(org)) {
        throw AsmError(lineno, ".org " + hex(org) + " is not RAM");
      }
      org_set = true;
      continue;
    }
    any_code = true;
    stmts.push_back(std::move(st));
  }
  if (!pending_labels.empty()) {
    // Trailing labels bind to the end address.
    Statement st;
    st.line = lineno;
    st.labels = std::move(pending_labels);
    st.mnemonic = "";
    st.is_align = true;  // zero-size statement
    st.is_space = false;
    stmts.push_back(std::move(st));
  }

  // ---- pass 1: sizes and symbol table ----
  auto statement_size = [&](const Statement& st,
                            std::uint32_t addr) -> std::uint32_t {
    if (st.mnemonic.empty()) {
      return 0;
    }
    if (st.is_align) {
      return (4 - (addr & 3u)) & 3u;
    }
    if (st.is_word) {
      return 4;
    }
    if (st.is_space) {
      std::int64_t v = 0;
      if (!parse_int(st.operand, st.line, v) || v < 0) {
        throw AsmError(st.line, "bad .space operand");
      }
      return static_cast<std::uint32_t>(v);
    }
    std::int64_t num = 0;
    const bool numeric = parse_int(st.operand, st.line, num);
    if (const auto prim = primary_by_name(st.mnemonic)) {
      if (st.operand.empty()) {
        throw AsmError(st.line, st.mnemonic + " needs an operand");
      }
      if (numeric) {
        return static_cast<std::uint32_t>(
            encode(*prim, static_cast<std::int32_t>(num)).size());
      }
      return kLabelEncodedBytes;  // label operand: fixed width
    }
    if (const auto sec = secop_by_name(st.mnemonic)) {
      if (!st.operand.empty()) {
        throw AsmError(st.line, st.mnemonic + " takes no operand");
      }
      return static_cast<std::uint32_t>(
          encode(Op::opr, static_cast<std::int32_t>(*sec)).size());
    }
    throw AsmError(st.line, "unknown mnemonic '" + st.mnemonic + "'");
  };

  // `.word` statements self-align to a 4-byte boundary; the padding is
  // inserted before any labels on the statement so a label always names the
  // word itself.
  auto word_pad = [](const Statement& st, std::uint32_t a) -> std::uint32_t {
    return st.is_word ? ((4 - (a & 3u)) & 3u) : 0u;
  };

  // The image must lie within the RAM region it starts in; refuse it
  // before pass 2 allocates it.
  Program prog;
  prog.org = org;
  const std::uint64_t end = ram_end(org);
  std::uint64_t pc = org;
  for (const Statement& st : stmts) {
    pc += word_pad(st, static_cast<std::uint32_t>(pc));
    for (const std::string& l : st.labels) {
      if (!prog.symbols.emplace(l, static_cast<std::uint32_t>(pc)).second) {
        throw AsmError(st.line, "duplicate label '" + l + "'");
      }
    }
    pc += statement_size(st, static_cast<std::uint32_t>(pc));
    if (pc > end) {
      throw AsmError(st.line, "the image runs past the end of its RAM "
                              "region at " + hex(end));
    }
  }

  // ---- pass 2: emit ----
  auto resolve = [&](const Statement& st) -> std::int32_t {
    std::int64_t num = 0;
    if (parse_int(st.operand, st.line, num)) {
      return static_cast<std::int32_t>(num);
    }
    auto it = prog.symbols.find(st.operand);
    if (it == prog.symbols.end()) {
      throw AsmError(st.line, "undefined label '" + st.operand + "'");
    }
    return static_cast<std::int32_t>(it->second);
  };

  std::uint32_t addr = org;
  for (const Statement& st : stmts) {
    const std::uint32_t pad = word_pad(st, addr);
    prog.bytes.insert(prog.bytes.end(), pad, 0);
    addr += pad;
    const std::uint32_t size = statement_size(st, addr);
    if (st.mnemonic.empty()) {
      continue;
    }
    if (size > 0) {
      prog.lines.emplace_back(addr, st.line);
    }
    if (st.is_align || st.is_space) {
      prog.bytes.insert(prog.bytes.end(), size, 0);
      addr += size;
      continue;
    }
    if (st.is_word) {
      const std::uint32_t v = static_cast<std::uint32_t>(resolve(st));
      prog.bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
      prog.bytes.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
      prog.bytes.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
      prog.bytes.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
      addr += 4;
      continue;
    }
    std::int64_t num = 0;
    const bool numeric = parse_int(st.operand, st.line, num);
    if (const auto prim = primary_by_name(st.mnemonic)) {
      std::vector<std::uint8_t> enc;
      if (numeric) {
        enc = encode(*prim, static_cast<std::int32_t>(num));
      } else {
        std::int32_t value = resolve(st);
        if (*prim == Op::j || *prim == Op::cj || *prim == Op::call) {
          // Relative to the next instruction.
          value -= static_cast<std::int32_t>(addr + size);
        }
        if (encode(*prim, value).size() > kLabelEncodedBytes) {
          throw AsmError(st.line, "label operand " + st.operand +
                                      " does not fit the fixed " +
                                      std::to_string(kLabelEncodedBytes) +
                                      "-byte label encoding");
        }
        enc = encode_fixed(*prim, value);
      }
      prog.bytes.insert(prog.bytes.end(), enc.begin(), enc.end());
      addr += static_cast<std::uint32_t>(enc.size());
      continue;
    }
    const auto sec = secop_by_name(st.mnemonic);
    const std::vector<std::uint8_t> enc =
        encode(Op::opr, static_cast<std::int32_t>(*sec));
    prog.bytes.insert(prog.bytes.end(), enc.begin(), enc.end());
    addr += static_cast<std::uint32_t>(enc.size());
  }
  return prog;
}

std::string to_string(Op op) {
  for (const Mnemonic& m : kPrimaries) {
    if (m.op == op) {
      return m.name;
    }
  }
  return op == Op::opr ? "opr" : "?";
}

std::optional<SecOp> secop_by_name(const std::string& name) {
  for (const SecMnemonic& m : kSecondaries) {
    if (name == m.name) {
      return m.op;
    }
  }
  return std::nullopt;
}

std::string to_string(SecOp op) {
  for (const SecMnemonic& m : kSecondaries) {
    if (m.op == op) {
      return m.name;
    }
  }
  return "?";
}

std::string disassemble(const Program& p) {
  std::ostringstream out;
  std::size_t pos = 0;
  while (pos < p.bytes.size()) {
    Decoded d{};
    try {
      d = decode(p.bytes, pos);
    } catch (const std::runtime_error&) {
      break;
    }
    out << std::hex << (p.org + pos) << std::dec << ": ";
    if (d.op == Op::opr) {
      out << to_string(static_cast<SecOp>(d.operand));
    } else {
      out << to_string(d.op) << " " << d.operand;
    }
    out << "\n";
    pos += d.size;
  }
  return out.str();
}

}  // namespace fpst::cp
