#include "check/tisa_verify.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <utility>

#include "cp/isa.hpp"

namespace fpst::check {

bool abs_join(AbsStack& into, const AbsStack& from) {
  bool changed = false;
  if (into.depth != from.depth && into.depth != -1) {
    into.depth = -1;
    changed = true;
  }
  for (auto [dst, src] : {std::pair{&into.a, &from.a},
                          std::pair{&into.b, &from.b},
                          std::pair{&into.c, &from.c}}) {
    if (*dst != *src && dst->known) {
      *dst = abs_unknown();
      changed = true;
    }
  }
  return changed;
}

std::optional<AbsAlu> abs_alu(cp::SecOp op, const AbsVal& b,
                              const AbsVal& a) {
  // An unknown B reads as 0: the only fault B = 0 raises, a zero divisor,
  // is raised whatever B holds.
  const std::optional<cp::AluResult> r = cp::alu(op, b.known ? b.v : 0, a.v);
  if (!r) {
    return std::nullopt;
  }
  AbsAlu out{abs_unknown(), r->pops, r->extra_instrs, nullptr};
  if (a.known && (b.known || !r->pops || r->fault != nullptr)) {
    out.value = abs_const(r->value);
    out.fault = r->fault;
  }
  return out;
}

bool abs_leq(const AbsStack& x, const AbsStack& y) {
  const auto val_leq = [](const AbsVal& a, const AbsVal& b) {
    return !b.known || (a.known && a.v == b.v);
  };
  return (y.depth == -1 || x.depth == y.depth) && val_leq(x.a, y.a) &&
         val_leq(x.b, y.b) && val_leq(x.c, y.c);
}

namespace {

std::string hex(std::uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

constexpr int kMaxDepth = 3;

class Verifier;

// The single transfer function of the verifier (v != nullptr: diagnostics
// and hard-channel discovery fire) and of pure abstract stepping via
// abs_step (v == nullptr: stack effect only), which the property tests
// check. The cost model keeps its own switch, because it also tracks
// memory and time; it shares the arithmetic through abs_alu.
void step(const Insn& in, AbsStack& st, Verifier* v);

class Verifier {
 public:
  Verifier(const cp::Program& p, const VerifyOptions& opts)
      : prog_{p}, opts_{opts} {}

  VerifyResult run() {
    std::set<std::uint32_t> entries = opts_.entries;
    if (entries.empty()) {
      const auto it = prog_.symbols.find("main");
      entries.insert(it != prog_.symbols.end() ? it->second : prog_.entry());
    }
    const std::uint32_t start = *entries.begin();
    // startp targets discovered constant become entry points of their own;
    // iterate until the entry set stabilises (bounded: entries only grow).
    VerifyResult result;
    for (int iter = 0; iter < 8; ++iter) {
      result = analyze(entries);
      std::set<std::uint32_t> next = entries;
      next.insert(discovered_.begin(), discovered_.end());
      if (next == entries) {
        break;
      }
      entries = std::move(next);
    }
    result.cfg.start = start;
    annotate_lines(result.report);
    return result;
  }

  // ---- deduplicated diagnostics (fixpoint visits blocks repeatedly) ----
  void diag(Severity sev, const char* code, std::uint32_t addr,
            std::string msg) {
    if (seen_.insert({code, addr}).second) {
      rep_->add(sev, code, addr, std::move(msg));
    }
  }

  // ---- memory-map checks (cp/isa.hpp) ----
  void check_word_addr(std::uint32_t at, const AbsVal& a, const char* what) {
    if (!a.known) {
      return;
    }
    if (cp::is_hard_chan(a.v)) {
      diag(Severity::kError, "bad-address", at,
           std::string(what) + " address " + hex(a.v) +
               " is in the hard-channel region — not data memory");
      return;
    }
    if (!cp::in_ram(a.v)) {
      diag(Severity::kError, "bad-address", at,
           std::string(what) + " address " + hex(a.v) +
               " is outside the DRAM / on-chip memory map");
      return;
    }
    if ((a.v & 3u) != 0) {
      diag(Severity::kWarning, "unaligned-word", at,
           std::string(what) + " address " + hex(a.v) +
               " is not word-aligned");
    }
  }

  void check_byte_addr(std::uint32_t at, const AbsVal& a, const char* what) {
    if (!a.known) {
      return;
    }
    if (!cp::in_ram(a.v)) {
      diag(Severity::kError, "bad-address", at,
           std::string(what) + " address " + hex(a.v) +
               " is outside the DRAM / on-chip memory map");
    }
  }

  void check_channel(std::uint32_t at, const AbsVal& chan, bool is_input) {
    if (!chan.known) {
      return;
    }
    const std::uint32_t c = chan.v;
    if (cp::is_hard_chan(c)) {
      const auto [port, sublink, dir, reserved_bits] = cp::decode_hard_chan(c);
      if (reserved_bits) {
        diag(Severity::kError, "bad-hard-chan", at,
             "hard-channel address " + hex(c) +
                 " has reserved bits set — not a valid (port, sublink, dir) "
                 "encoding");
        return;
      }
      if (port >= opts_.ports) {
        std::ostringstream os;
        os << "hard-channel address " << hex(c) << " names port " << port
           << " but the node has only " << opts_.ports << " links";
        diag(Severity::kError, "bad-hard-chan", at, os.str());
        return;
      }
      if (sublink >= opts_.sublinks) {
        std::ostringstream os;
        os << "hard-channel address " << hex(c) << " names sublink "
           << sublink << " but each link has only " << opts_.sublinks
           << " sublinks";
        diag(Severity::kError, "bad-hard-chan", at, os.str());
        return;
      }
      if ((dir == 1) != is_input) {
        diag(Severity::kWarning, "hard-chan-direction", at,
             std::string(is_input ? "`in`" : "`out`") +
                 " on hard channel " + hex(c) +
                 " whose direction bit says " +
                 (dir == 1 ? "input" : "output") +
                 " — by convention dir 0 transmits, dir 1 receives");
      }
      hard_chans_.push_back(HardChanUse{at, port, sublink, dir, is_input});
      return;
    }
    // Soft channel: a word in ordinary memory.
    check_word_addr(at, chan, "soft-channel word");
  }

  void check_vform(std::uint32_t at, const AbsVal& desc) {
    if (!desc.known) {
      return;
    }
    const std::uint32_t d = desc.v;
    const std::uint32_t bytes = cp::kVformDescWords * 4;
    if (d + std::uint64_t{bytes} > cp::ram_end(d)) {
      diag(Severity::kError, "bad-vform-desc", at,
           "vform descriptor at " + hex(d) + " does not fit in RAM (its " +
               std::to_string(bytes) +
               "-byte block must lie within one RAM region)");
      return;
    }
    if ((d & 3u) != 0) {
      diag(Severity::kError, "bad-vform-desc", at,
           "vform descriptor address " + hex(d) + " is not word-aligned");
    }
  }

  /// Record a constant startp target: an extra entry point if it lands in
  /// the image, an error otherwise.
  void note_startp(std::uint32_t at, std::uint32_t target) {
    const std::uint32_t lo = prog_.org;
    const std::uint32_t hi =
        prog_.org + static_cast<std::uint32_t>(prog_.bytes.size());
    if (target < lo || target >= hi) {
      diag(Severity::kError, "bad-startp-target", at,
           "startp spawns code at " + hex(target) +
               ", outside the program image");
    } else {
      discovered_.insert(target);
    }
  }

 private:
  VerifyResult analyze(const std::set<std::uint32_t>& entries) {
    VerifyResult res;
    seen_.clear();
    discovered_.clear();
    hard_chans_.clear();
    rep_ = &res.report;

    if (prog_.bytes.empty()) {
      res.report.note("empty-program", 0, "program image is empty");
      return res;
    }
    std::set<std::uint32_t> valid_entries;
    for (const std::uint32_t e : entries) {
      if (e >= prog_.org &&
          e < prog_.org + static_cast<std::uint32_t>(prog_.bytes.size())) {
        valid_entries.insert(e);
      } else {
        res.report.error("bad-entry", e,
                         "entry point " + hex(e) +
                             " is outside the program image");
      }
    }
    res.cfg = build_cfg(prog_, valid_entries, res.report);
    interpret(res.cfg);
    report_unreachable(res.cfg);
    res.hard_chans = hard_chans_;
    return res;
  }

  void interpret(const Cfg& cfg) {
    std::map<std::uint32_t, AbsStack> in_states;
    std::deque<std::uint32_t> work;
    for (const std::uint32_t e : cfg.entries) {
      if (cfg.blocks.count(e) != 0) {
        AbsStack fresh;  // depth 0, regs unknown
        in_states.emplace(e, fresh);
        work.push_back(e);
      }
    }

    const auto propagate = [&](std::uint32_t succ, const AbsStack& st) {
      const auto [it, inserted] = in_states.emplace(succ, st);
      if (inserted || abs_join(it->second, st)) {
        work.push_back(succ);
      }
    };

    while (!work.empty()) {
      const std::uint32_t start = work.front();
      work.pop_front();
      const auto bit = cfg.blocks.find(start);
      if (bit == cfg.blocks.end()) {
        continue;
      }
      const BasicBlock& bb = bit->second;
      AbsStack st = in_states.at(start);
      for (const Insn& in : bb.insns) {
        step(in, st, this);
      }
      // Edge-specific effects of the terminator.
      const Insn& term = bb.terminator();
      const auto target = term.static_target();
      switch (term.flow()) {
        case Flow::kCondJump: {
          AbsStack taken = st;
          taken.a = abs_const(0);  // cj branches exactly when A == 0
          AbsStack fall = st;
          fall.a = fall.b;
          fall.b = fall.c;
          fall.c = abs_unknown();
          if (fall.depth > 0) {
            --fall.depth;
          }
          if (target && cfg.blocks.count(*target) != 0) {
            propagate(*target, taken);
          }
          if (cfg.blocks.count(term.next()) != 0) {
            propagate(term.next(), fall);
          }
          break;
        }
        case Flow::kCall: {
          if (target && cfg.blocks.count(*target) != 0) {
            propagate(*target, st);  // callee sees the caller's stack
          }
          // At the return point assume the callee preserved the depth
          // (result in A by convention) but trust no register values.
          AbsStack ret = st;
          ret.a = ret.b = ret.c = abs_unknown();
          if (cfg.blocks.count(term.next()) != 0) {
            propagate(term.next(), ret);
          }
          break;
        }
        default:
          for (const std::uint32_t s : bb.succs) {
            propagate(s, st);
          }
          break;
      }
    }
  }

  void report_unreachable(const Cfg& cfg) {
    if (cfg.hi <= cfg.lo) {
      return;
    }
    std::vector<bool> covered(prog_.bytes.size(), false);
    for (const auto& [addr, in] : cfg.insns) {
      for (std::uint32_t b = addr; b < in.next() && b < cfg.hi; ++b) {
        covered[b - cfg.lo] = true;
      }
    }
    std::size_t i = 0;
    while (i < covered.size()) {
      if (covered[i]) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < covered.size() && !covered[j]) {
        ++j;
      }
      const std::uint32_t g0 = cfg.lo + static_cast<std::uint32_t>(i);
      const std::uint32_t g1 = cfg.lo + static_cast<std::uint32_t>(j);
      const bool all_zero = std::all_of(
          prog_.bytes.begin() + static_cast<std::ptrdiff_t>(i),
          prog_.bytes.begin() + static_cast<std::ptrdiff_t>(j),
          [](std::uint8_t b) { return b == 0; });
      const bool labelled = std::any_of(
          prog_.symbols.begin(), prog_.symbols.end(),
          [&](const auto& kv) { return kv.second >= g0 && kv.second < g1; });
      // Zero-filled gaps are .space/.align padding; labelled gaps are data.
      if (!all_zero && !labelled) {
        diag(Severity::kWarning, "unreachable-code", g0,
             "bytes [" + hex(g0) + ", " + hex(g1) +
                 ") are never reached from any entry point");
      }
      i = j;
    }
  }

  void annotate_lines(Report& rep) {
    for (Diagnostic& d : rep.mutable_diagnostics()) {
      if (d.line == 0) {
        d.line = prog_.line_at(d.addr);
      }
    }
  }

  const cp::Program& prog_;
  VerifyOptions opts_;
  Report* rep_ = nullptr;
  std::set<std::pair<std::string, std::uint32_t>> seen_;
  std::set<std::uint32_t> discovered_;
  std::vector<HardChanUse> hard_chans_;
};

// ---- stack helpers shared by both stepping modes ----

void do_push(AbsStack& st, std::uint32_t at, AbsVal v, Verifier* ver) {
  if (st.depth == kMaxDepth) {
    if (ver != nullptr) {
      ver->diag(Severity::kWarning, "stack-overflow", at,
                "push onto a full evaluation stack silently drops the C "
                "register");
    }
  } else if (st.depth >= 0) {
    ++st.depth;
  }
  st.c = st.b;
  st.b = st.a;
  st.a = v;
}

/// Check that `n` operands are live before an op reads them. The depth
/// clamp applies in both modes so the transfer function stays total.
void do_need(AbsStack& st, std::uint32_t at, int n, const char* what,
             Verifier* ver) {
  if (st.depth >= 0 && st.depth < n) {
    if (ver != nullptr) {
      std::ostringstream os;
      os << what << " needs " << n << " stack operand" << (n > 1 ? "s" : "")
         << " but only " << st.depth << (st.depth == 1 ? " is" : " are")
         << " live — evaluation-stack underflow";
      ver->diag(Severity::kError, "stack-underflow", at, os.str());
    }
    st.depth = n;  // assume satisfied to avoid cascading reports
  }
}

void do_pop(AbsStack& st) {
  st.a = st.b;
  st.b = st.c;
  st.c = abs_unknown();
  if (st.depth > 0) {
    --st.depth;
  }
}

void step_secondary(const Insn& in, AbsStack& st, Verifier* v) {
  using cp::SecOp;
  const std::uint32_t at = in.addr;
  const auto op = static_cast<SecOp>(in.d.operand);

  if (const std::optional<AbsAlu> r = abs_alu(op, st.b, st.a)) {
    const std::string name = cp::to_string(op);
    do_need(st, at, r->pops ? 2 : 1, name.c_str(), v);
    if (r->fault != nullptr && v != nullptr) {
      if (st.a.v == 0) {
        v->diag(Severity::kError, "div-by-zero", at,
                "division by a constant zero traps at run time");
      } else {
        v->diag(Severity::kError, "div-overflow", at,
                name + " of constant " + hex(st.b.v) + " by " + hex(st.a.v) +
                    " overflows 32 bits and traps at run time");
      }
    }
    if (r->pops) {
      const AbsVal saved_c = st.c;
      do_pop(st);
      st.b = saved_c;
    }
    st.a = r->value;
    return;
  }

  switch (op) {
    case SecOp::rev:
      do_need(st, at, 2, "rev", v);
      std::swap(st.a, st.b);
      break;
    case SecOp::mint:
      do_push(st, at, abs_const(cp::kNotProcess), v);
      break;
    case SecOp::ldpi:
      do_need(st, at, 1, "ldpi", v);
      st.a = st.a.known ? abs_const(in.next() + st.a.v) : abs_unknown();
      break;
    case SecOp::lb:
      do_need(st, at, 1, "lb", v);
      if (v != nullptr) {
        v->check_byte_addr(at, st.a, "byte load");
      }
      st.a = abs_unknown();
      break;
    case SecOp::sb:
      do_need(st, at, 2, "sb", v);
      if (v != nullptr) {
        v->check_byte_addr(at, st.a, "byte store");
      }
      do_pop(st);
      do_pop(st);
      break;
    case SecOp::move:
      do_need(st, at, 3, "move", v);
      if (v != nullptr) {
        v->check_byte_addr(at, st.c, "move source");
        v->check_byte_addr(at, st.b, "move destination");
      }
      do_pop(st);
      do_pop(st);
      do_pop(st);
      break;
    case SecOp::in:
    case SecOp::out:
      do_need(st, at, 3, op == SecOp::in ? "in" : "out", v);
      if (v != nullptr) {
        v->check_channel(at, st.b, op == SecOp::in);
        v->check_byte_addr(at, st.c, op == SecOp::in ? "channel destination"
                                                     : "channel source");
      }
      do_pop(st);
      do_pop(st);
      do_pop(st);
      // The process deschedules; registers are not preserved across the
      // reschedule in this machine.
      st.a = st.b = st.c = abs_unknown();
      break;
    case SecOp::startp: {
      do_need(st, at, 2, "startp", v);
      if (st.b.known && v != nullptr) {  // B carries the child's address
        v->note_startp(at, st.b.v);
      }
      do_pop(st);
      do_pop(st);
      break;
    }
    case SecOp::endp:
      do_need(st, at, 1, "endp", v);
      do_pop(st);
      break;
    case SecOp::stopp:
      st.a = st.b = st.c = abs_unknown();
      break;
    case SecOp::runp:
      do_need(st, at, 1, "runp", v);
      do_pop(st);
      break;
    case SecOp::ldtimer:
      do_push(st, at, abs_unknown(), v);
      break;
    case SecOp::tin:
      do_need(st, at, 1, "tin", v);
      do_pop(st);
      st.a = st.b = st.c = abs_unknown();
      break;
    case SecOp::ret:
      break;  // block terminator
    case SecOp::vform:
      do_need(st, at, 1, "vform", v);
      if (v != nullptr) {
        v->check_vform(at, st.a);
      }
      do_pop(st);
      break;
    case SecOp::vwait:
      st.a = st.b = st.c = abs_unknown();
      break;
    case SecOp::gather:
    case SecOp::scatter:
      do_need(st, at, 3, op == SecOp::gather ? "gather" : "scatter", v);
      if (v != nullptr) {
        v->check_word_addr(at, st.b, "vector base");
        v->check_word_addr(at, st.c, "index table");
      }
      do_pop(st);
      do_pop(st);
      do_pop(st);
      break;
    case SecOp::halt:
      break;
    case SecOp::testerr:
      do_push(st, at, abs_unknown(), v);
      break;
    default:
      if (v != nullptr) {
        v->diag(Severity::kError, "bad-opcode", at,
                "undefined secondary opcode " +
                    std::to_string(in.d.operand) + " faults at run time");
      }
      break;
  }
}

void step(const Insn& in, AbsStack& st, Verifier* v) {
  using cp::Op;
  const std::uint32_t at = in.addr;
  const std::uint32_t operand = static_cast<std::uint32_t>(in.d.operand);
  switch (in.d.op) {
    case Op::j:
      break;
    case Op::ldlp:
      do_push(st, at, abs_unknown(), v);  // Wptr is dynamic
      break;
    case Op::ldnl:
      do_need(st, at, 1, "ldnl", v);
      if (st.a.known && v != nullptr) {
        v->check_word_addr(at, abs_const(st.a.v + 4 * operand), "ldnl");
      }
      st.a = abs_unknown();
      break;
    case Op::ldc:
      do_push(st, at, abs_const(operand), v);
      break;
    case Op::ldnlp:
      do_need(st, at, 1, "ldnlp", v);
      st.a = st.a.known ? abs_const(st.a.v + 4 * operand) : abs_unknown();
      break;
    case Op::ldl:
      do_push(st, at, abs_unknown(), v);
      break;
    case Op::adc:
      do_need(st, at, 1, "adc", v);
      st.a = st.a.known ? abs_const(st.a.v + operand) : abs_unknown();
      break;
    case Op::call:
      break;  // workspace push only; eval stack carries arguments
    case Op::cj:
      do_need(st, at, 1, "cj", v);
      break;  // stack effect is per-edge
    case Op::ajw:
      break;
    case Op::eqc:
      do_need(st, at, 1, "eqc", v);
      st.a = st.a.known ? abs_const(st.a.v == operand ? 1u : 0u)
                        : abs_unknown();
      break;
    case Op::stl:
      do_need(st, at, 1, "stl", v);
      do_pop(st);
      break;
    case Op::stnl:
      do_need(st, at, 2, "stnl", v);
      if (st.a.known && v != nullptr) {
        v->check_word_addr(at, abs_const(st.a.v + 4 * operand), "stnl");
      }
      do_pop(st);
      do_pop(st);
      break;
    case Op::opr:
      step_secondary(in, st, v);
      break;
    case Op::pfix:
    case Op::nfix:
      break;  // folded into the decode; never appear as full insns
  }
}

}  // namespace

void abs_step(const Insn& in, AbsStack& st) { step(in, st, nullptr); }

VerifyResult verify(const cp::Program& p, const VerifyOptions& opts) {
  Verifier v{p, opts};
  return v.run();
}

}  // namespace fpst::check
