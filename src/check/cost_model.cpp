#include "check/cost_model.hpp"

#include "check/tisa_verify.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "cp/cpu.hpp"
#include "cp/isa.hpp"
#include "link/link.hpp"
#include "mem/memory.hpp"
#include "vpu/vpu.hpp"

namespace fpst::check {

namespace {

using sim::SimTime;

std::string hex(std::uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

bool is_hot_insn(const Insn& in) {
  using cp::SecOp;
  return in.is_secondary(SecOp::in) || in.is_secondary(SecOp::out) ||
         in.is_secondary(SecOp::vform) || in.is_secondary(SecOp::gather) ||
         in.is_secondary(SecOp::scatter) || in.is_secondary(SecOp::move);
}

// ---- natural-loop discovery over the CFG ----

struct Loops {
  std::vector<LoopInfo> info;
  /// loop index -> body block starts
  std::vector<std::set<std::uint32_t>> bodies;

  /// Indices of loops whose body contains block `b`.
  std::vector<std::size_t> containing(std::uint32_t b) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      if (bodies[i].count(b) != 0) {
        out.push_back(i);
      }
    }
    return out;
  }
};

Loops find_loops(const Cfg& cfg) {
  Loops loops;
  // Predecessor map for the natural-loop body walk.
  std::map<std::uint32_t, std::vector<std::uint32_t>> preds;
  for (const auto& [start, bb] : cfg.blocks) {
    for (const std::uint32_t s : bb.succs) {
      preds[s].push_back(start);
    }
  }

  // Iterative DFS from the process's start (a process it spawns is not
  // predicted, so neither are its loops); an edge into a block on the
  // current stack is a back edge and its target a loop header.
  std::map<std::uint32_t, int> color;  // 0 white, 1 on stack, 2 done
  std::set<std::pair<std::uint32_t, std::uint32_t>> back_edges;  // (tail, head)
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  if (cfg.blocks.count(cfg.start) != 0) {
    stack.push_back({cfg.start, 0});
    color[cfg.start] = 1;
  }
  while (!stack.empty()) {
    auto& [u, next] = stack.back();
    const auto& succs = cfg.blocks.at(u).succs;
    if (next < succs.size()) {
      const std::uint32_t v = succs[next++];
      if (cfg.blocks.count(v) == 0) {
        continue;
      }
      if (color[v] == 1) {
        back_edges.insert({u, v});
      } else if (color[v] == 0) {
        color[v] = 1;
        stack.push_back({v, 0});
      }
    } else {
      color[u] = 2;
      stack.pop_back();
    }
  }

  for (const auto& [tail, head] : back_edges) {
    // Natural loop body: head plus everything reaching tail without
    // passing through head.
    std::set<std::uint32_t> body{head, tail};
    std::vector<std::uint32_t> work{tail};
    while (!work.empty()) {
      const std::uint32_t b = work.back();
      work.pop_back();
      if (b == head) {
        continue;
      }
      const auto it = preds.find(b);
      if (it == preds.end()) {
        continue;
      }
      for (const std::uint32_t p : it->second) {
        if (body.insert(p).second) {
          work.push_back(p);
        }
      }
    }

    LoopInfo li;
    li.head = head;
    li.back_edge = cfg.blocks.at(tail).terminator().addr;
    bool has_exit = false;
    for (const std::uint32_t b : body) {
      const BasicBlock& bb = cfg.blocks.at(b);
      for (const Insn& in : bb.insns) {
        if (is_hot_insn(in)) {
          li.hot = true;
        }
      }
      if (bb.terminator().flow() == Flow::kStop) {
        has_exit = true;
      }
      for (const std::uint32_t s : bb.succs) {
        if (body.count(s) == 0) {
          has_exit = true;
        }
      }
    }
    if (!has_exit) {
      li.verdict = LoopVerdict::kUnbounded;  // structurally cannot leave
    }
    loops.info.push_back(li);
    loops.bodies.push_back(std::move(body));
  }
  return loops;
}

// ---- the symbolic executor ----

class CostExecutor {
 public:
  CostExecutor(const cp::Program& p, const Cfg& cfg, const CostOptions& opts,
               CostPrediction& out)
      : prog_{p}, cfg_{cfg}, opts_{opts}, out_{&out},
        scratch_mem_{std::make_unique<mem::NodeMemory>()},
        vpu_{*scratch_mem_} {}

  void run(std::uint32_t entry) {
    wptr_ = opts_.wptr;
    iptr_ = entry;
    t_ = cp::CpuParams::switch_time();  // first pick_next dispatch
    for (;;) {
      if (out_->instructions >= opts_.max_steps) {
        diag(Severity::kWarning, "cost-overflow", iptr_,
             "prediction exceeds the " + std::to_string(opts_.max_steps) +
                 "-instruction budget — the program does this much work "
                 "before any communication or halt");
        stop(iptr_, "instruction budget exhausted");
        return;
      }
      if (!cfg_.in_image(iptr_)) {
        stop(iptr_, "instruction fetch outside the program image");
        return;
      }
      const auto it = cfg_.insns.find(iptr_);
      if (it == cfg_.insns.end()) {
        stop(iptr_, "address was not statically decoded");
        return;
      }
      if (heads_.count(iptr_) != 0) {
        ++head_counts_[iptr_];
      }
      if (!exec(it->second)) {
        return;
      }
    }
  }

  void set_loop_heads(std::set<std::uint32_t> heads) {
    heads_ = std::move(heads);
  }
  const std::map<std::uint32_t, std::uint64_t>& head_counts() const {
    return head_counts_;
  }

 private:
  // -- timing constants, straight from the simulator's parameter blocks --
  static SimTime instr_time() { return cp::CpuParams::instr_time(); }
  static SimTime offchip() { return cp::CpuParams::offchip_penalty(); }
  static SimTime switch_time() { return cp::CpuParams::switch_time(); }

  void diag(Severity sev, const char* code, std::uint32_t addr,
            std::string msg) {
    if (seen_.insert({code, addr}).second) {
      out_->report.add(sev, code, addr, 0, std::move(msg),
                       DiagClass::kPerformance);
    }
  }

  void stop(std::uint32_t addr, std::string reason) {
    out_->stop_addr = addr;
    out_->stop_reason = std::move(reason);
    finish();
  }

  void finish() {
    out_->elapsed = std::max(t_, vpu_done_);
  }

  // -- register stack, mirroring Cpu::push/pop (pop refills C with 0) --
  void push(AbsVal v) {
    c_ = b_;
    b_ = a_;
    a_ = v;
  }
  void pop() {
    a_ = b_;
    b_ = c_;
    c_ = abs_const(0);
  }

  // -- memory model: word overlay over image bytes / zeroed RAM --
  AbsVal base_word(std::uint32_t aligned) const {
    if (havoc_) {
      return abs_unknown();
    }
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      const std::uint32_t a = aligned + static_cast<std::uint32_t>(i);
      std::uint8_t byte = 0;
      if (a >= prog_.org &&
          a < prog_.org + static_cast<std::uint32_t>(prog_.bytes.size())) {
        byte = prog_.bytes[a - prog_.org];
      }
      v = (v << 8) | byte;  // unwritten RAM is zero-initialised
    }
    return abs_const(v);
  }

  AbsVal load_word(std::uint32_t addr) const {
    const std::uint32_t aligned = addr & ~3u;
    const auto it = overlay_.find(aligned);
    return it != overlay_.end() ? it->second : base_word(aligned);
  }
  void store_word(std::uint32_t addr, AbsVal v) {
    overlay_[addr & ~3u] = v;
  }
  void store_range_unknown(std::uint32_t addr, std::uint32_t bytes) {
    const std::uint32_t first = addr & ~3u;
    const std::uint32_t last = (addr + bytes + 3) & ~3u;
    for (std::uint32_t a = first; a < last; a += 4) {
      overlay_[a] = abs_unknown();
    }
  }

  AbsVal load_byte(std::uint32_t addr) const {
    const AbsVal w = load_word(addr);
    if (!w.known) {
      return abs_unknown();
    }
    return abs_const((w.v >> (8 * (addr & 3u))) & 0xFFu);
  }
  void store_byte(std::uint32_t addr, AbsVal v) {
    const AbsVal w = load_word(addr);
    if (w.known && v.known) {
      const std::uint32_t shift = 8 * (addr & 3u);
      const std::uint32_t mask = 0xFFu << shift;
      store_word(addr, abs_const((w.v & ~mask) | ((v.v & 0xFFu) << shift)));
    } else {
      store_word(addr, abs_unknown());
    }
  }

  /// Cost of one word/byte data access, matching Cpu::data_read/_write:
  /// DRAM pays the off-chip penalty, on-chip is free. Unknown addresses
  /// are charged as DRAM (documented assumption).
  SimTime access_cost(const AbsVal& addr) const {
    if (!addr.known) {
      return offchip();
    }
    return cp::in_dram(addr.v) ? offchip() : SimTime{};
  }

  AbsVal data_read(const AbsVal& addr, SimTime& cost) {
    cost += access_cost(addr);
    return addr.known ? load_word(addr.v) : abs_unknown();
  }
  void data_write(const AbsVal& addr, AbsVal v, SimTime& cost) {
    cost += access_cost(addr);
    if (addr.known) {
      store_word(addr.v, v);
    } else {
      havoc_ = true;  // could have hit anything; trust nothing cached
      overlay_.clear();
    }
  }

  // -- one instruction; false ends the prediction --
  bool exec(const Insn& in) {
    using cp::Op;
    const SimTime T = t_;  // exec_one entry time: sim->now() for this insn
    SimTime cost = static_cast<std::int64_t>(in.d.size) * instr_time();
    out_->instructions += in.d.size;
    const std::uint32_t operand = static_cast<std::uint32_t>(in.d.operand);
    std::uint32_t next = in.next();

    switch (in.d.op) {
      case Op::j:
        next = *in.static_target();
        break;
      case Op::ldlp:
        push(abs_const(wptr_ + 4 * operand));
        break;
      case Op::ldnl:
        a_ = data_read(a_.known ? abs_const(a_.v + 4 * operand) : abs_unknown(),
                       cost);
        break;
      case Op::ldc:
        push(abs_const(operand));
        break;
      case Op::ldnlp:
        a_ = a_.known ? abs_const(a_.v + 4 * operand) : abs_unknown();
        break;
      case Op::ldl:
        push(data_read(abs_const(wptr_ + 4 * operand), cost));
        break;
      case Op::adc:
        a_ = a_.known ? abs_const(a_.v + operand) : abs_unknown();
        break;
      case Op::call:
        wptr_ -= 4;
        data_write(abs_const(wptr_), abs_const(in.next()), cost);
        next = *in.static_target();
        break;
      case Op::cj:
        if (!a_.known) {
          commit(T, cost);
          unknown_branch(in.addr);
          return false;
        }
        if (a_.v == 0) {
          next = *in.static_target();
        } else {
          pop();
        }
        break;
      case Op::ajw:
        wptr_ += 4 * operand;
        break;
      case Op::eqc:
        a_ = a_.known ? abs_const(a_.v == operand ? 1u : 0u) : abs_unknown();
        break;
      case Op::stl:
        data_write(abs_const(wptr_ + 4 * operand), a_, cost);
        pop();
        break;
      case Op::stnl:
        data_write(a_.known ? abs_const(a_.v + 4 * operand) : abs_unknown(),
                   b_, cost);
        pop();
        pop();
        break;
      case Op::opr:
        return exec_secondary(in, T, cost, next);
      case Op::pfix:
      case Op::nfix:
        break;  // folded into the decode
    }
    commit(T, cost);
    iptr_ = next;
    return true;
  }

  void commit(SimTime T, SimTime cost) {
    t_ = T + cost;
    out_->cp_busy += cost;
  }

  void unknown_branch(std::uint32_t at) {
    // The branch condition is not a compile-time constant: every natural
    // loop whose body contains this block has a statically-unknown bound.
    bool in_loop = false;
    const std::uint32_t block = block_of(at);
    for (const std::size_t li : loops_->containing(block)) {
      LoopInfo& l = loops_->info[li];
      l.verdict = LoopVerdict::kUnbounded;
      in_loop = true;
    }
    if (!in_loop) {
      stop(at, "branch condition is not a compile-time constant");
      return;
    }
    stop(at,
         "loop bound is not a compile-time constant (branch at " + hex(at) +
             ")");
  }

  std::uint32_t block_of(std::uint32_t addr) const {
    auto it = cfg_.blocks.upper_bound(addr);
    if (it == cfg_.blocks.begin()) {
      return addr;
    }
    --it;
    return it->first;
  }

  bool exec_secondary(const Insn& in, SimTime T, SimTime cost,
                      std::uint32_t next) {
    using cp::SecOp;
    const std::uint32_t at = in.addr;
    const auto op = static_cast<SecOp>(in.d.operand);

    if (const std::optional<AbsAlu> r = abs_alu(op, b_, a_)) {
      cost += r->extra_instrs * instr_time();
      if (r->pops) {
        b_ = c_;
        c_ = abs_const(0);
      }
      a_ = r->value;
      commit(T, cost);
      iptr_ = next;
      return true;
    }

    switch (op) {
      case SecOp::rev:
        std::swap(a_, b_);
        break;
      case SecOp::mint:
        push(abs_const(cp::kNotProcess));
        break;
      case SecOp::ldpi:
        a_ = a_.known ? abs_const(in.next() + a_.v) : abs_unknown();
        break;
      case SecOp::lb:
        cost += access_cost(a_);
        a_ = a_.known ? load_byte(a_.v) : abs_unknown();
        break;
      case SecOp::sb:
        cost += access_cost(a_);
        if (a_.known) {
          store_byte(a_.v, b_);
        } else {
          havoc_ = true;
          overlay_.clear();
        }
        pop();
        pop();
        break;
      case SecOp::move: {
        if (!a_.known) {
          commit(T, cost);
          stop(at, "move byte count is not a compile-time constant");
          return false;
        }
        const std::uint32_t count = a_.v;
        const AbsVal dst = b_;
        pop();
        pop();
        pop();
        if (dst.known) {
          store_range_unknown(dst.v, count);
        } else {
          havoc_ = true;
          overlay_.clear();
        }
        cost += static_cast<std::int64_t>((count + 3) / 4) * 2 *
                cp::CpuParams::word_access();
        break;
      }
      case SecOp::in:
      case SecOp::out:
        return exec_channel(in, op, T, cost, next);
      case SecOp::startp:
        commit(T, cost);
        stop(at,
             "startp spawns a second process — multi-process cost "
             "prediction is not modelled");
        return false;
      case SecOp::endp:
        commit(T, cost);
        stop(at, "endp synchronises with a parent process");
        return false;
      case SecOp::stopp:
        commit(T, cost);
        stop(at, "stopp deschedules the only process");
        return false;
      case SecOp::runp:
        commit(T, cost);
        stop(at, "runp resumes another process");
        return false;
      case SecOp::ldtimer:
        push(abs_const(static_cast<std::uint32_t>(
            T.ps() / cp::CpuParams::timer_tick().ps())));
        break;
      case SecOp::tin: {
        const AbsVal target = a_;
        pop();
        if (!target.known) {
          commit(T, cost);
          stop(at, "tin deadline is not a compile-time constant");
          return false;
        }
        const auto now_ticks = static_cast<std::uint32_t>(
            T.ps() / cp::CpuParams::timer_tick().ps());
        if (static_cast<std::int32_t>(target.v - now_ticks) > 0) {
          const SimTime wake =
              T + static_cast<std::int64_t>(target.v - now_ticks) *
                      cp::CpuParams::timer_tick();
          out_->cp_busy += cost;
          t_ = std::max(T + cost, wake) + switch_time();
          iptr_ = next;
          return true;
        }
        break;
      }
      case SecOp::ret: {
        const AbsVal ra = data_read(abs_const(wptr_), cost);
        wptr_ += 4;
        if (!ra.known) {
          commit(T, cost);
          stop(at, "return address is not statically known");
          return false;
        }
        next = ra.v;
        break;
      }
      case SecOp::vform:
        return exec_vform(in, T, cost, next);
      case SecOp::vwait:
        if (vpu_busy_ && vpu_done_ > T) {
          out_->cp_busy += cost;
          t_ = std::max(vpu_done_, T + cost) + switch_time();
          vpu_busy_ = false;
          iptr_ = next;
          return true;
        }
        vpu_busy_ = false;
        break;
      case SecOp::gather:
      case SecOp::scatter: {
        if (!a_.known) {
          commit(T, cost);
          stop(at, "gather/scatter element count is not a compile-time "
                   "constant");
          return false;
        }
        const std::uint32_t count = a_.v;
        const AbsVal vec = b_;
        const AbsVal table = c_;
        pop();
        pop();
        pop();
        if (op == SecOp::gather) {
          if (vec.known) {
            store_range_unknown(vec.v, 8 * count);
          } else {
            havoc_ = true;
            overlay_.clear();
          }
        } else {
          for (std::uint32_t i = 0; i < count; ++i) {
            const AbsVal slot = table.known
                                    ? load_word(table.v + 4 * i)
                                    : abs_unknown();
            if (slot.known) {
              store_range_unknown(slot.v, 8);
            } else {
              havoc_ = true;
              overlay_.clear();
              break;
            }
          }
        }
        cost += static_cast<std::int64_t>(count) *
                mem::MemParams::gather_move64();
        break;
      }
      case SecOp::halt:
        commit(T, cost);
        out_->complete = true;
        finish();
        return false;
      case SecOp::testerr:
        push(abs_unknown());
        break;
      default:
        commit(T, cost);
        stop(at, "undefined secondary opcode");
        return false;
    }
    commit(T, cost);
    iptr_ = next;
    return true;
  }

  bool exec_channel(const Insn& in, cp::SecOp op, SimTime T, SimTime cost,
                    std::uint32_t next) {
    const std::uint32_t at = in.addr;
    const AbsVal count = a_;
    const AbsVal chan = b_;
    const AbsVal ptr = c_;
    pop();
    pop();
    pop();
    if (!chan.known) {
      commit(T, cost);
      stop(at, "channel address is not a compile-time constant");
      return false;
    }
    if (cp::is_hard_chan(chan.v)) {
      if (!count.known) {
        commit(T, cost);
        stop(at, "hard-channel byte count is not a compile-time constant");
        return false;
      }
      // Assumes the link partner is ready (documented): the DMA starts at
      // T, the process resumes after the transfer plus one switch time.
      const SimTime xfer = link::LinkParams::transfer_time(count.v);
      out_->link_busy += xfer;
      if (op == cp::SecOp::in && ptr.known) {
        store_range_unknown(ptr.v, count.v);  // received bytes are data
      }
      out_->cp_busy += cost;
      t_ = std::max(T + xfer, T + cost) + switch_time();
      iptr_ = next;
      return true;
    }
    // Soft channel: with a single process the rendezvous never completes.
    commit(T, cost);
    stop(at, "soft-channel rendezvous needs a partner process");
    return false;
  }

  bool exec_vform(const Insn& in, SimTime T, SimTime cost,
                  std::uint32_t next) {
    const std::uint32_t at = in.addr;
    const AbsVal desc = a_;
    pop();
    if (!desc.known) {
      commit(T, cost);
      stop(at, "vform descriptor address is not a compile-time constant");
      return false;
    }
    // Mirror Cpu::do_vform: a busy vector unit faults and the CP carries
    // on; the descriptor words are read with the usual access cost.
    const bool busy = vpu_busy_ && vpu_done_ > T;
    AbsVal w[8];
    for (int i = 0; i < 8; ++i) {
      w[i] = data_read(abs_const(desc.v + 4 * static_cast<std::uint32_t>(i)),
                       cost);
    }
    if (busy) {
      commit(T, cost);
      iptr_ = next;
      return true;
    }
    if (!w[0].known || !w[1].known || !w[2].known || !w[3].known ||
        !w[4].known || !w[5].known) {
      commit(T, cost);
      stop(at, "vform descriptor contents are not statically known");
      return false;
    }
    // The descriptor as Cpu::do_vform reads it, checked by the vector
    // unit's own rule; a refused op faults and the CP carries on.
    vpu::VectorOp vop;
    vop.form = static_cast<vpu::VectorForm>(w[0].v);
    vop.prec = w[1].v == 0 ? vpu::Precision::f32 : vpu::Precision::f64;
    vop.n = w[2].v;
    vop.row_x = w[3].v;
    vop.row_y = w[4].v;
    vop.row_z = w[5].v;
    if (const std::optional<std::string> why = vpu::refusal(vop)) {
      diag(Severity::kError, "vform-overrun", at, "vform " + *why);
      commit(T, cost);
      iptr_ = next;
      return true;
    }
    if (static_cast<std::size_t>(vop.form) >= vpu::kVectorForms) {
      diag(Severity::kError, "vform-overrun", at,
           "vform descriptor names undefined vector form " +
               std::to_string(static_cast<unsigned>(vop.form)) +
               ", which the vector unit times but computes nothing for");
    }
    const SimTime duration = vpu_.duration_of(vop);
    vpu_busy_ = true;
    vpu_done_ = T + duration;  // scheduled at exec time, before the delay
    out_->vpu_busy += duration;
    ++out_->vforms;
    out_->flops += vpu::flops_for(vop);
    // Completion will overwrite the result words with data we can't know.
    store_range_unknown(desc.v + 32, 16);
    commit(T, cost);
    iptr_ = next;
    return true;
  }

  const cp::Program& prog_;
  const Cfg& cfg_;
  CostOptions opts_;
  CostPrediction* out_;
  std::unique_ptr<mem::NodeMemory> scratch_mem_;
  vpu::VectorUnit vpu_;

 public:
  Loops* loops_ = nullptr;

 private:
  AbsVal a_, b_, c_;
  std::uint32_t wptr_ = 0;
  std::uint32_t iptr_ = 0;
  SimTime t_{};
  bool vpu_busy_ = false;
  SimTime vpu_done_{};
  std::map<std::uint32_t, AbsVal> overlay_;
  bool havoc_ = false;
  std::set<std::uint32_t> heads_;
  std::map<std::uint32_t, std::uint64_t> head_counts_;
  std::set<std::pair<std::string, std::uint32_t>> seen_;
};

}  // namespace

CostPrediction predict_cost(const cp::Program& p, const Cfg& cfg,
                            const CostOptions& opts) {
  CostPrediction out;
  if (p.bytes.empty()) {
    out.stop_reason = "program image is empty";
    return out;
  }

  Loops loops = find_loops(cfg);

  CostExecutor ex{p, cfg, opts, out};
  ex.loops_ = &loops;
  std::set<std::uint32_t> heads;
  for (const LoopInfo& l : loops.info) {
    heads.insert(l.head);
  }
  ex.set_loop_heads(std::move(heads));
  ex.run(cfg.start);

  // Loop verdicts: a completed prediction proves every traversed loop
  // bounded; kUnbounded set during the run (or structurally) stands.
  for (LoopInfo& l : loops.info) {
    if (l.verdict == LoopVerdict::kUnbounded) {
      const std::string what =
          "loop at " + hex(l.head) + " has no statically-known bound";
      if (l.hot) {
        out.report.add(Severity::kWarning, "unbounded-hot-loop", l.back_edge,
                       0,
                       what + " and its body does channel or vector work — "
                              "predicted cost is a lower bound",
                       DiagClass::kPerformance);
      } else {
        out.report.add(Severity::kNote, "unbounded-loop", l.back_edge, 0,
                       what, DiagClass::kPerformance);
      }
      continue;
    }
    const auto cnt = ex.head_counts().find(l.head);
    if (out.complete) {
      l.verdict = LoopVerdict::kBounded;
      l.iterations = cnt != ex.head_counts().end() ? cnt->second : 0;
    } else {
      l.verdict = LoopVerdict::kUnknown;
    }
  }
  out.loops = loops.info;

  // Annotate source lines from the assembler's line map.
  for (Diagnostic& d : out.report.mutable_diagnostics()) {
    if (d.line == 0) {
      d.line = p.line_at(d.addr);
    }
  }
  return out;
}

}  // namespace fpst::check
