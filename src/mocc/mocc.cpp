#include "mocc/mocc.hpp"

#include "cp/isa.hpp"

#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

namespace fpst::mocc {

namespace {

// ================================ lexer ====================================

enum class Tok : std::uint8_t {
  ident, number, punct, kw_proc, kw_var, kw_chan, kw_global, kw_while,
  kw_if, kw_else, kw_par, kw_send, kw_recv, kw_alt, kw_poke, kw_peek,
  kw_return, kw_halt, kw_timer, kw_wait, kw_vform, kw_vwait,
  kw_array, kw_linkout, kw_linkin, eof,
};

struct Token {
  Tok kind = Tok::eof;
  std::string text;
  std::int64_t value = 0;
  std::size_t line = 0;
};

const std::map<std::string, Tok>& keywords() {
  static const std::map<std::string, Tok> kw{
      {"proc", Tok::kw_proc},     {"var", Tok::kw_var},
      {"chan", Tok::kw_chan},     {"global", Tok::kw_global},
      {"while", Tok::kw_while},   {"if", Tok::kw_if},
      {"else", Tok::kw_else},     {"par", Tok::kw_par},
      {"send", Tok::kw_send},     {"recv", Tok::kw_recv},
      {"alt", Tok::kw_alt},       {"poke", Tok::kw_poke},
      {"peek", Tok::kw_peek},     {"return", Tok::kw_return},
      {"halt", Tok::kw_halt},     {"timer", Tok::kw_timer},
      {"wait", Tok::kw_wait},     {"vform", Tok::kw_vform},
      {"vwait", Tok::kw_vwait},   {"array", Tok::kw_array},
      {"linkout", Tok::kw_linkout}, {"linkin", Tok::kw_linkin},
  };
  return kw;
}

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') {
        ++i;
      }
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t b = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                       src[i] == '_')) {
        ++i;
      }
      const std::string word = src.substr(b, i - b);
      const auto it = keywords().find(word);
      out.push_back(Token{it == keywords().end() ? Tok::ident : it->second,
                          word, 0, line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t pos = 0;
      const std::int64_t v = std::stoll(src.substr(i), &pos, 0);
      out.push_back(Token{Tok::number, src.substr(i, pos), v, line});
      i += pos;
      continue;
    }
    // Multi-char operators first.
    static const char* two[] = {"==", "!=", "<=", ">="};
    bool matched = false;
    for (const char* op : two) {
      if (src.compare(i, 2, op) == 0) {
        out.push_back(Token{Tok::punct, op, 0, line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) {
      continue;
    }
    if (std::string("(){};,=+-*/%<>[]").find(c) != std::string::npos) {
      out.push_back(Token{Tok::punct, std::string(1, c), 0, line});
      ++i;
      continue;
    }
    throw CompileError(line, std::string("unexpected character '") + c + "'");
  }
  out.push_back(Token{Tok::eof, "", 0, line});
  return out;
}

// ================================= AST =====================================

struct Expr {
  enum class Kind : std::uint8_t { num, var, neg, bin, call, peek, timer,
                                   index };
  Kind kind = Kind::num;
  std::int64_t value = 0;
  std::string name;  // var / call / binary operator text
  std::vector<Expr> kids;
  std::size_t line = 0;
};

struct Stmt;
struct AltCase {
  std::string chan;
  std::string var;
  std::vector<Stmt> body;
};

struct Stmt {
  enum class Kind : std::uint8_t {
    decl_var, assign, call, while_s, if_s, par_s, send_s, recv_s, alt_s,
    poke_s, wait_s, vform_s, vwait_s, return_s, halt_s, block,
    index_assign, linkout_s, linkin_s,
  };
  Kind kind = Kind::halt_s;
  std::string name;          // variable / channel / callee
  std::vector<Expr> exprs;   // operands
  std::vector<Stmt> body;    // block / then / loop body
  std::vector<Stmt> orelse;  // else branch
  std::vector<AltCase> cases;
  std::vector<std::string> par_calls;
  std::size_t line = 0;
};

struct ProcDef {
  std::string name;
  std::vector<std::string> params;
  std::vector<Stmt> body;
  std::size_t line = 0;
};

struct ArrayDef {
  std::string name;
  std::size_t size = 0;
};

struct Unit {
  std::vector<ProcDef> procs;
  std::vector<std::string> chans;
  std::vector<std::string> globals;
  std::vector<ArrayDef> arrays;
};

// ================================ parser ===================================

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_{std::move(toks)} {}

  Unit parse() {
    Unit u;
    while (peek().kind != Tok::eof) {
      const Token& t = peek();
      if (t.kind == Tok::kw_proc) {
        u.procs.push_back(parse_proc());
      } else if (t.kind == Tok::kw_chan) {
        next();
        u.chans.push_back(expect_ident());
        expect(";");
      } else if (t.kind == Tok::kw_global) {
        next();
        u.globals.push_back(expect_ident());
        expect(";");
      } else if (t.kind == Tok::kw_array) {
        next();
        ArrayDef a;
        a.name = expect_ident();
        expect("[");
        if (peek().kind != Tok::number || peek().value <= 0) {
          throw CompileError(peek().line, "array size must be positive");
        }
        a.size = static_cast<std::size_t>(next().value);
        expect("]");
        expect(";");
        u.arrays.push_back(std::move(a));
      } else {
        throw CompileError(t.line, "expected proc/chan/global declaration");
      }
    }
    return u;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    return toks_[std::min(pos_ + ahead, toks_.size() - 1)];
  }
  const Token& next() { return toks_[pos_++]; }
  bool accept(const std::string& p) {
    if (peek().kind == Tok::punct && peek().text == p) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(const std::string& p) {
    if (!accept(p)) {
      throw CompileError(peek().line,
                         "expected '" + p + "', found '" + peek().text + "'");
    }
  }
  std::string expect_ident() {
    if (peek().kind != Tok::ident) {
      throw CompileError(peek().line, "expected identifier");
    }
    return next().text;
  }

  ProcDef parse_proc() {
    ProcDef p;
    p.line = peek().line;
    next();  // proc
    p.name = expect_ident();
    expect("(");
    if (!accept(")")) {
      do {
        p.params.push_back(expect_ident());
      } while (accept(","));
      expect(")");
    }
    if (p.params.size() > 3) {
      throw CompileError(p.line, "at most 3 parameters");
    }
    p.body = parse_block();
    return p;
  }

  std::vector<Stmt> parse_block() {
    expect("{");
    std::vector<Stmt> body;
    while (!accept("}")) {
      body.push_back(parse_stmt());
    }
    return body;
  }

  Stmt parse_stmt() {
    Stmt s;
    s.line = peek().line;
    const Token& t = peek();
    switch (t.kind) {
      case Tok::kw_var: {
        next();
        s.kind = Stmt::Kind::decl_var;
        s.name = expect_ident();
        if (accept("=")) {
          s.exprs.push_back(parse_expr());
        }
        expect(";");
        return s;
      }
      case Tok::kw_while: {
        next();
        s.kind = Stmt::Kind::while_s;
        expect("(");
        s.exprs.push_back(parse_expr());
        expect(")");
        s.body = parse_block();
        return s;
      }
      case Tok::kw_if: {
        next();
        s.kind = Stmt::Kind::if_s;
        expect("(");
        s.exprs.push_back(parse_expr());
        expect(")");
        s.body = parse_block();
        if (peek().kind == Tok::kw_else) {
          next();
          s.orelse = parse_block();
        }
        return s;
      }
      case Tok::kw_par: {
        next();
        s.kind = Stmt::Kind::par_s;
        expect("{");
        while (!accept("}")) {
          const std::string callee = expect_ident();
          expect("(");
          expect(")");
          expect(";");
          s.par_calls.push_back(callee);
        }
        if (s.par_calls.empty()) {
          throw CompileError(s.line, "empty par");
        }
        return s;
      }
      case Tok::kw_send: {
        next();
        s.kind = Stmt::Kind::send_s;
        expect("(");
        s.name = expect_ident();
        expect(",");
        s.exprs.push_back(parse_expr());
        expect(")");
        expect(";");
        return s;
      }
      case Tok::kw_recv: {
        next();
        s.kind = Stmt::Kind::recv_s;
        expect("(");
        s.name = expect_ident();
        expect(",");
        s.exprs.push_back(Expr{Expr::Kind::var, 0, expect_ident(), {},
                               s.line});
        expect(")");
        expect(";");
        return s;
      }
      case Tok::kw_alt: {
        next();
        s.kind = Stmt::Kind::alt_s;
        expect("{");
        while (!accept("}")) {
          if (peek().kind != Tok::kw_recv) {
            throw CompileError(peek().line, "alt cases must be recv guards");
          }
          next();
          AltCase c;
          expect("(");
          c.chan = expect_ident();
          expect(",");
          c.var = expect_ident();
          expect(")");
          c.body = parse_block();
          s.cases.push_back(std::move(c));
        }
        if (s.cases.empty()) {
          throw CompileError(s.line, "empty alt");
        }
        return s;
      }
      case Tok::kw_poke: {
        next();
        s.kind = Stmt::Kind::poke_s;
        expect("(");
        s.exprs.push_back(parse_expr());
        expect(",");
        s.exprs.push_back(parse_expr());
        expect(")");
        expect(";");
        return s;
      }
      case Tok::kw_wait: {
        next();
        s.kind = Stmt::Kind::wait_s;
        expect("(");
        s.exprs.push_back(parse_expr());
        expect(")");
        expect(";");
        return s;
      }
      case Tok::kw_linkout: {
        next();
        s.kind = Stmt::Kind::linkout_s;
        expect("(");
        s.exprs.push_back(parse_expr());  // port (constant)
        expect(",");
        s.exprs.push_back(parse_expr());  // sublink (constant)
        expect(",");
        s.exprs.push_back(parse_expr());  // value
        expect(")");
        expect(";");
        return s;
      }
      case Tok::kw_linkin: {
        next();
        s.kind = Stmt::Kind::linkin_s;
        expect("(");
        s.exprs.push_back(parse_expr());
        expect(",");
        s.exprs.push_back(parse_expr());
        expect(",");
        s.exprs.push_back(Expr{Expr::Kind::var, 0, expect_ident(), {},
                               s.line});
        expect(")");
        expect(";");
        return s;
      }
      case Tok::kw_vform: {
        next();
        s.kind = Stmt::Kind::vform_s;
        expect("(");
        s.exprs.push_back(parse_expr());
        expect(")");
        expect(";");
        return s;
      }
      case Tok::kw_vwait: {
        next();
        s.kind = Stmt::Kind::vwait_s;
        expect(";");
        return s;
      }
      case Tok::kw_return: {
        next();
        s.kind = Stmt::Kind::return_s;
        if (!(peek().kind == Tok::punct && peek().text == ";")) {
          s.exprs.push_back(parse_expr());
        }
        expect(";");
        return s;
      }
      case Tok::kw_halt: {
        next();
        s.kind = Stmt::Kind::halt_s;
        expect(";");
        return s;
      }
      case Tok::ident: {
        if (peek(1).kind == Tok::punct && peek(1).text == "[") {
          s.kind = Stmt::Kind::index_assign;
          s.name = next().text;
          expect("[");
          s.exprs.push_back(parse_expr());  // index
          expect("]");
          expect("=");
          s.exprs.push_back(parse_expr());  // value
          expect(";");
          return s;
        }
        if (peek(1).kind == Tok::punct && peek(1).text == "=") {
          s.kind = Stmt::Kind::assign;
          s.name = next().text;
          next();  // '='
          s.exprs.push_back(parse_expr());
          expect(";");
          return s;
        }
        if (peek(1).kind == Tok::punct && peek(1).text == "(") {
          s.kind = Stmt::Kind::call;
          Expr e = parse_primary();  // parses the whole call
          s.exprs.push_back(std::move(e));
          expect(";");
          return s;
        }
        throw CompileError(t.line, "expected '=' or '(' after identifier");
      }
      default:
        if (t.kind == Tok::punct && t.text == "{") {
          s.kind = Stmt::Kind::block;
          s.body = parse_block();
          return s;
        }
        throw CompileError(t.line, "unexpected token '" + t.text + "'");
    }
  }

  // expr := cmp; cmp := addsub (op addsub)?; addsub := term ((+|-) term)*;
  // term := unary ((*|/|%) unary)*; unary := -unary | primary
  Expr parse_expr() { return parse_cmp(); }

  Expr make_bin(const std::string& op, Expr lhs, Expr rhs, std::size_t line) {
    Expr e;
    e.kind = Expr::Kind::bin;
    e.name = op;
    e.kids.push_back(std::move(lhs));
    e.kids.push_back(std::move(rhs));
    e.line = line;
    return e;
  }

  Expr parse_cmp() {
    Expr lhs = parse_addsub();
    static const char* cmps[] = {"==", "!=", "<=", ">=", "<", ">"};
    for (const char* op : cmps) {
      if (peek().kind == Tok::punct && peek().text == op) {
        const std::size_t line = next().line;
        return make_bin(op, std::move(lhs), parse_addsub(), line);
      }
    }
    return lhs;
  }

  Expr parse_addsub() {
    Expr lhs = parse_term();
    for (;;) {
      if (peek().kind == Tok::punct &&
          (peek().text == "+" || peek().text == "-")) {
        const std::string op = peek().text;
        const std::size_t line = next().line;
        lhs = make_bin(op, std::move(lhs), parse_term(), line);
      } else {
        return lhs;
      }
    }
  }

  Expr parse_term() {
    Expr lhs = parse_unary();
    for (;;) {
      if (peek().kind == Tok::punct &&
          (peek().text == "*" || peek().text == "/" || peek().text == "%")) {
        const std::string op = peek().text;
        const std::size_t line = next().line;
        lhs = make_bin(op, std::move(lhs), parse_unary(), line);
      } else {
        return lhs;
      }
    }
  }

  Expr parse_unary() {
    if (peek().kind == Tok::punct && peek().text == "-") {
      Expr e;
      e.line = next().line;
      e.kind = Expr::Kind::neg;
      e.kids.push_back(parse_unary());
      return e;
    }
    return parse_primary();
  }

  Expr parse_primary() {
    Expr e;
    const Token& t = peek();
    e.line = t.line;
    if (t.kind == Tok::number) {
      e.kind = Expr::Kind::num;
      e.value = next().value;
      return e;
    }
    if (t.kind == Tok::kw_peek) {
      next();
      expect("(");
      e.kind = Expr::Kind::peek;
      e.kids.push_back(parse_expr());
      expect(")");
      return e;
    }
    if (t.kind == Tok::kw_timer) {
      next();
      expect("(");
      expect(")");
      e.kind = Expr::Kind::timer;
      return e;
    }
    if (t.kind == Tok::ident) {
      e.name = next().text;
      if (accept("(")) {
        e.kind = Expr::Kind::call;
        if (!accept(")")) {
          do {
            e.kids.push_back(parse_expr());
          } while (accept(","));
          expect(")");
        }
        if (e.kids.size() > 3) {
          throw CompileError(e.line, "at most 3 call arguments");
        }
        return e;
      }
      if (accept("[")) {
        e.kind = Expr::Kind::index;
        e.kids.push_back(parse_expr());
        expect("]");
        return e;
      }
      e.kind = Expr::Kind::var;
      return e;
    }
    if (accept("(")) {
      Expr inner = parse_expr();
      expect(")");
      return inner;
    }
    throw CompileError(t.line, "expected expression, found '" + t.text + "'");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

// =============================== codegen ===================================

constexpr int kTempSlots = 10;

class Codegen {
 public:
  Codegen(const Unit& unit, const Options& opt) : unit_{unit}, opt_{opt} {}

  std::string emit() {
    out_ << ".org " << opt_.org << "\n";
    for (const std::string& g : unit_.globals) {
      globals_.insert(g);
    }
    for (const std::string& c : unit_.chans) {
      chans_.insert(c);
    }
    for (const ArrayDef& a : unit_.arrays) {
      arrays_[a.name] = a.size;
    }
    for (const ProcDef& p : unit_.procs) {
      proc_names_.insert(p.name);
    }
    for (const ProcDef& p : unit_.procs) {
      emit_proc(p);
    }
    // PAR wrappers, then data: sync blocks, channels, globals.
    out_ << aux_.str();
    for (const std::string& c : unit_.chans) {
      out_ << "C_" << c << ":\n   .word 0x80000000\n";  // kNotProcess
    }
    for (const std::string& g : unit_.globals) {
      out_ << "G_" << g << ":\n   .word 0\n";
    }
    for (const ArrayDef& a : unit_.arrays) {
      // Align FIRST so the label names the word-aligned base.
      out_ << "   .align\nA_" << a.name << ":\n   .space "
           << 4 * a.size << "\n";
    }
    return out_.str();
  }

 private:
  struct Frame {
    std::map<std::string, int> slots;  // params + locals
    int nslots = 0;                    // params + locals (excl. temps)
    int tdepth = 0;
    std::string ret_label;
    bool is_main = false;
  };

  static void count_vars(const std::vector<Stmt>& body, int& n) {
    for (const Stmt& s : body) {
      if (s.kind == Stmt::Kind::decl_var) {
        ++n;
      }
      count_vars(s.body, n);
      count_vars(s.orelse, n);
      for (const AltCase& c : s.cases) {
        count_vars(c.body, n);
      }
    }
  }

  std::string label(const std::string& stem) {
    return "L" + std::to_string(label_counter_++) + "_" + stem;
  }

  void ins(const std::string& text) { out_ << "   " << text << "\n"; }
  void def(const std::string& l) { out_ << l << ":\n"; }

  int frame_size() const { return frame_.nslots + kTempSlots; }

  /// Hard (link) channel word address from constant port/sublink operands.
  std::uint32_t hard_addr(const Stmt& s, int dir) const {
    const Expr& port = s.exprs[0];
    const Expr& sub = s.exprs[1];
    if (port.kind != Expr::Kind::num || sub.kind != Expr::Kind::num ||
        port.value < 0 || port.value > 3 || sub.value < 0 || sub.value > 3) {
      throw CompileError(s.line,
                         "linkout/linkin need constant port and sublink 0-3");
    }
    return cp::hard_chan_addr(static_cast<int>(port.value),
                              static_cast<int>(sub.value), dir);
  }

  int alloc_temp(std::size_t line) {
    if (frame_.tdepth >= kTempSlots) {
      throw CompileError(line, "expression too deep (temp slots exhausted)");
    }
    return frame_.nslots + frame_.tdepth++;
  }
  void free_temp() { --frame_.tdepth; }

  void emit_proc(const ProcDef& p) {
    frame_ = Frame{};
    frame_.is_main = p.name == "main";
    frame_.ret_label = label(p.name + "_ret");
    int nvars = 0;
    count_vars(p.body, nvars);
    frame_.nslots = static_cast<int>(p.params.size()) + nvars;
    int slot = 0;
    for (const std::string& prm : p.params) {
      if (!frame_.slots.emplace(prm, slot++).second) {
        throw CompileError(p.line, "duplicate parameter " + prm);
      }
    }
    next_var_slot_ = slot;

    def(p.name);
    ins("ajw -" + std::to_string(frame_size()));
    // Arguments arrive A=last .. C=first; store back to front.
    for (std::size_t i = p.params.size(); i-- > 0;) {
      ins("stl " + std::to_string(i));
    }
    emit_body(p.body);
    if (frame_.is_main) {
      ins("halt");
    } else {
      ins("ldc 0");
    }
    def(frame_.ret_label);
    ins("ajw " + std::to_string(frame_size()));
    ins("ret");
  }

  void emit_body(const std::vector<Stmt>& body) {
    for (const Stmt& s : body) {
      emit_stmt(s);
    }
  }

  int var_slot(const std::string& name, std::size_t line) const {
    const auto it = frame_.slots.find(name);
    if (it == frame_.slots.end()) {
      return -1;
    }
    (void)line;
    return it->second;
  }

  void emit_store(const std::string& name, std::size_t line) {
    // Value is in A.
    const int slot = var_slot(name, line);
    if (slot >= 0) {
      ins("stl " + std::to_string(slot));
      return;
    }
    if (globals_.count(name)) {
      ins("ldc G_" + name);  // A=addr, B=value
      ins("stnl 0");
      return;
    }
    throw CompileError(line, "unknown variable " + name);
  }

  void chan_check(const std::string& name, std::size_t line) const {
    if (!chans_.count(name)) {
      throw CompileError(line, "unknown channel " + name);
    }
  }

  void emit_stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::decl_var: {
        if (frame_.slots.count(s.name) || globals_.count(s.name)) {
          throw CompileError(s.line, "duplicate variable " + s.name);
        }
        frame_.slots[s.name] = next_var_slot_++;
        if (!s.exprs.empty()) {
          emit_expr(s.exprs[0]);
          ins("stl " + std::to_string(frame_.slots[s.name]));
        }
        return;
      }
      case Stmt::Kind::assign:
        emit_expr(s.exprs[0]);
        emit_store(s.name, s.line);
        return;
      case Stmt::Kind::call:
        emit_expr(s.exprs[0]);  // result left in A, harmlessly dropped
        return;
      case Stmt::Kind::while_s: {
        const std::string lcond = label("while");
        const std::string lend = label("wend");
        def(lcond);
        emit_expr(s.exprs[0]);
        ins("cj " + lend);
        emit_body(s.body);
        ins("j " + lcond);
        def(lend);
        return;
      }
      case Stmt::Kind::if_s: {
        const std::string lelse = label("else");
        const std::string lend = label("fi");
        emit_expr(s.exprs[0]);
        ins("cj " + lelse);
        emit_body(s.body);
        ins("j " + lend);
        def(lelse);
        emit_body(s.orelse);
        def(lend);
        return;
      }
      case Stmt::Kind::send_s: {
        chan_check(s.name, s.line);
        emit_expr(s.exprs[0]);
        const int t = alloc_temp(s.line);
        ins("stl " + std::to_string(t));
        ins("ldlp " + std::to_string(t));
        ins("ldc C_" + s.name);
        ins("ldc 4");
        ins("out");
        free_temp();
        return;
      }
      case Stmt::Kind::recv_s: {
        chan_check(s.name, s.line);
        const std::string& var = s.exprs[0].name;
        const int slot = var_slot(var, s.line);
        if (slot >= 0) {
          ins("ldlp " + std::to_string(slot));
        } else if (globals_.count(var)) {
          ins("ldc G_" + var);
        } else {
          throw CompileError(s.line, "unknown variable " + var);
        }
        ins("ldc C_" + s.name);
        ins("ldc 4");
        ins("in");
        return;
      }
      case Stmt::Kind::alt_s: {
        const std::string ltop = label("alt");
        const std::string lend = label("altend");
        def(ltop);
        for (std::size_t i = 0; i < s.cases.size(); ++i) {
          const AltCase& c = s.cases[i];
          chan_check(c.chan, s.line);
          const std::string lnext = label("altnext");
          // Guard: a non-NotProcess channel word means a sender waits.
          ins("ldc C_" + c.chan);
          ins("ldnl 0");
          ins("mint");
          ins("xor");
          ins("cj " + lnext);  // empty -> try the next guard
          const int slot = var_slot(c.var, s.line);
          if (slot >= 0) {
            ins("ldlp " + std::to_string(slot));
          } else if (globals_.count(c.var)) {
            ins("ldc G_" + c.var);
          } else {
            throw CompileError(s.line, "unknown variable " + c.var);
          }
          ins("ldc C_" + c.chan);
          ins("ldc 4");
          ins("in");
          emit_body(c.body);
          ins("j " + lend);
          def(lnext);
        }
        // Nothing ready: one-tick timer backoff, then poll again.
        ins("ldtimer");
        ins("adc 1");
        ins("tin");
        ins("j " + ltop);
        def(lend);
        return;
      }
      case Stmt::Kind::par_s: {
        const int site = par_counter_++;
        const std::string sync = "PS" + std::to_string(site);
        const std::string resume = label("parjoin");
        ins("ldc " + std::to_string(s.par_calls.size() + 1));
        ins("ldc " + sync);
        ins("stnl 0");
        ins("ldlp 0");  // our own Wptr
        ins("adc 1");   // low priority descriptor
        ins("ldc " + sync);
        ins("stnl 1");
        ins("ldc " + resume);
        ins("ldc " + sync);
        ins("stnl 2");
        for (std::size_t i = 0; i < s.par_calls.size(); ++i) {
          if (!proc_names_.count(s.par_calls[i])) {
            throw CompileError(s.line, "unknown proc " + s.par_calls[i]);
          }
          const std::string wrap =
              "PW" + std::to_string(site) + "_" + std::to_string(i);
          const std::uint32_t ws =
              opt_.par_ws_base -
              static_cast<std::uint32_t>(par_branch_counter_++ + 1) *
                  opt_.par_ws_bytes;
          aux_ << wrap << ":\n   call " << s.par_calls[i] << "\n   ldc "
               << sync << "\n   endp\n";
          ins("ldc " + wrap);
          ins("ldc " + std::to_string(ws | 1u));
          ins("startp");
        }
        ins("ldc " + sync);
        ins("endp");
        def(resume);
        aux_ << sync << ":\n   .word 0\n   .word 0\n   .word 0\n";
        return;
      }
      case Stmt::Kind::poke_s: {
        emit_expr(s.exprs[1]);  // value
        const int t = alloc_temp(s.line);
        ins("stl " + std::to_string(t));
        emit_expr(s.exprs[0]);  // address in A
        ins("ldl " + std::to_string(t));
        ins("rev");  // A=addr, B=value
        ins("stnl 0");
        free_temp();
        return;
      }
      case Stmt::Kind::wait_s: {
        emit_expr(s.exprs[0]);
        const int t = alloc_temp(s.line);
        ins("stl " + std::to_string(t));
        ins("ldtimer");
        ins("ldl " + std::to_string(t));
        ins("add");
        ins("tin");
        free_temp();
        return;
      }
      case Stmt::Kind::index_assign: {
        if (!arrays_.count(s.name)) {
          throw CompileError(s.line, "unknown array " + s.name);
        }
        emit_expr(s.exprs[1]);  // value
        const int t = alloc_temp(s.line);
        ins("stl " + std::to_string(t));
        emit_expr(s.exprs[0]);  // index
        ins("ldc A_" + s.name);
        ins("wsub");            // A = base + 4*index
        ins("ldl " + std::to_string(t));
        ins("rev");             // A = addr, B = value
        ins("stnl 0");
        free_temp();
        return;
      }
      case Stmt::Kind::linkout_s: {
        const std::uint32_t addr = hard_addr(s, 0);
        emit_expr(s.exprs[2]);
        const int t = alloc_temp(s.line);
        ins("stl " + std::to_string(t));
        ins("ldlp " + std::to_string(t));
        ins("ldc " + std::to_string(addr));
        ins("ldc 4");
        ins("out");
        free_temp();
        return;
      }
      case Stmt::Kind::linkin_s: {
        const std::uint32_t addr = hard_addr(s, 1);
        const std::string& var = s.exprs[2].name;
        const int slot = var_slot(var, s.line);
        if (slot >= 0) {
          ins("ldlp " + std::to_string(slot));
        } else if (globals_.count(var)) {
          ins("ldc G_" + var);
        } else {
          throw CompileError(s.line, "unknown variable " + var);
        }
        ins("ldc " + std::to_string(addr));
        ins("ldc 4");
        ins("in");
        return;
      }
      case Stmt::Kind::vform_s:
        emit_expr(s.exprs[0]);  // descriptor address in A
        ins("vform");
        return;
      case Stmt::Kind::vwait_s:
        ins("vwait");
        return;
      case Stmt::Kind::return_s:
        if (!s.exprs.empty()) {
          emit_expr(s.exprs[0]);
        } else {
          ins("ldc 0");
        }
        ins("j " + frame_.ret_label);
        return;
      case Stmt::Kind::halt_s:
        ins("halt");
        return;
      case Stmt::Kind::block:
        emit_body(s.body);
        return;
    }
  }

  void emit_expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::num:
        ins("ldc " + std::to_string(e.value));
        return;
      case Expr::Kind::var: {
        const int slot = var_slot(e.name, e.line);
        if (slot >= 0) {
          ins("ldl " + std::to_string(slot));
          return;
        }
        if (globals_.count(e.name)) {
          ins("ldc G_" + e.name);
          ins("ldnl 0");
          return;
        }
        throw CompileError(e.line, "unknown variable " + e.name);
      }
      case Expr::Kind::neg:
        emit_expr(e.kids[0]);
        ins("not");
        ins("adc 1");
        return;
      case Expr::Kind::peek:
        emit_expr(e.kids[0]);
        ins("ldnl 0");
        return;
      case Expr::Kind::timer:
        ins("ldtimer");
        return;
      case Expr::Kind::index: {
        if (!arrays_.count(e.name)) {
          throw CompileError(e.line, "unknown array " + e.name);
        }
        emit_expr(e.kids[0]);
        ins("ldc A_" + e.name);
        ins("wsub");
        ins("ldnl 0");
        return;
      }
      case Expr::Kind::call: {
        if (!proc_names_.count(e.name)) {
          throw CompileError(e.line, "unknown proc " + e.name);
        }
        std::vector<int> temps;
        for (const Expr& arg : e.kids) {
          emit_expr(arg);
          temps.push_back(alloc_temp(e.line));
          ins("stl " + std::to_string(temps.back()));
        }
        for (int t : temps) {
          ins("ldl " + std::to_string(t));
        }
        ins("call " + e.name);
        for (std::size_t i = 0; i < temps.size(); ++i) {
          free_temp();
        }
        return;
      }
      case Expr::Kind::bin: {
        emit_expr(e.kids[0]);
        const int t = alloc_temp(e.line);
        ins("stl " + std::to_string(t));
        emit_expr(e.kids[1]);
        ins("ldl " + std::to_string(t));  // A=lhs, B=rhs
        free_temp();
        const std::string& op = e.name;
        if (op == "+") {
          ins("add");
        } else if (op == "*") {
          ins("mul");
        } else if (op == "-") {
          ins("rev");
          ins("sub");
        } else if (op == "/") {
          ins("rev");
          ins("div");
        } else if (op == "%") {
          ins("rev");
          ins("rem");
        } else if (op == ">") {
          ins("rev");  // A=rhs, B=lhs: gt = lhs > rhs
          ins("gt");
        } else if (op == "<") {
          ins("gt");   // B > A = rhs > lhs
        } else if (op == ">=") {
          ins("gt");   // lhs < rhs ...
          ins("eqc 0");  // !(lhs < rhs)
        } else if (op == "<=") {
          ins("rev");
          ins("gt");     // lhs > rhs
          ins("eqc 0");  // !(lhs > rhs)
        } else if (op == "==") {
          ins("xor");
          ins("eqc 0");
        } else if (op == "!=") {
          ins("xor");
          ins("eqc 0");
          ins("eqc 0");
        } else {
          throw CompileError(e.line, "bad operator " + op);
        }
        return;
      }
    }
  }

  const Unit& unit_;
  Options opt_;
  std::ostringstream out_;
  std::ostringstream aux_;
  std::set<std::string> globals_;
  std::map<std::string, std::size_t> arrays_;
  std::set<std::string> chans_;
  std::set<std::string> proc_names_;
  Frame frame_{};
  int next_var_slot_ = 0;
  int label_counter_ = 0;
  int par_counter_ = 0;
  int par_branch_counter_ = 0;
};

}  // namespace

std::string compile_to_asm(const std::string& source, const Options& opt) {
  Parser parser{lex(source)};
  const Unit unit = parser.parse();
  bool has_main = false;
  for (const ProcDef& p : unit.procs) {
    has_main |= p.name == "main";
  }
  if (!has_main) {
    throw CompileError(0, "no proc main()");
  }
  Codegen gen{unit, opt};
  return gen.emit();
}

std::string compile_to_asm(const std::string& source) {
  return compile_to_asm(source, Options{});
}

cp::Program compile(const std::string& source, const Options& opt) {
  return cp::assemble(compile_to_asm(source, opt));
}

cp::Program compile(const std::string& source) {
  return compile(source, Options{});
}

}  // namespace fpst::mocc
