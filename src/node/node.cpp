#include "node/node.hpp"

#include "vpu/recip.hpp"

#include <stdexcept>

namespace fpst::node {

namespace {
using mem::MemParams;
using sim::Delay;
using sim::SimTime;
}  // namespace

Node::Node(sim::Simulator& sim, std::uint32_t id)
    : Node(sim, id, NodeConfig{}) {}

Node::Node(sim::Simulator& sim, std::uint32_t id, NodeConfig cfg)
    : sim_{&sim},
      id_{id},
      cfg_{cfg},
      memory_{},
      vpu_{memory_, vpu::VectorUnit::Config{.dual_bank = cfg.dual_bank,
                                            .mode = cfg.vpu_mode}},
      cpu_{sim, memory_, vpu_},
      links_{},
      vpu_sem_{sim, 1},
      cp_sem_{sim, 1} {
  // Bridge the control processor's hard channels onto the link hardware.
  cp::Cpu::Hooks hooks;
  hooks.hard_out = [this](int port, int sublink,
                          std::vector<std::uint8_t> data) -> sim::Proc {
    link::Packet p;
    p.src = id_;
    p.sublink = static_cast<std::uint8_t>(sublink);
    p.payload = std::move(data);
    co_await links_.send(port, std::move(p));
  };
  hooks.hard_in = [this](int port, int sublink, std::vector<std::uint8_t>* out,
                         std::size_t n) -> sim::Proc {
    link::Packet p = co_await links_.inbox(port, sublink).recv();
    p.payload.resize(n);
    *out = std::move(p.payload);
  };
  cpu_.set_hooks(std::move(hooks));
}

std::size_t Node::alloc_rows(mem::Bank bank, std::size_t rows) {
  if (bank == mem::Bank::A) {
    if (next_row_a_ + rows > MemParams::kBankARows) {
      throw std::runtime_error("Node::alloc_rows: bank A full");
    }
    const std::size_t r = next_row_a_;
    next_row_a_ += rows;
    return r;
  }
  if (next_row_b_ + rows > MemParams::kRows) {
    throw std::runtime_error("Node::alloc_rows: bank B full");
  }
  const std::size_t r = next_row_b_;
  next_row_b_ += rows;
  return r;
}

Array64 Node::alloc64(mem::Bank bank, std::size_t elems) {
  Array64 a;
  a.elems = elems;
  a.first_row = alloc_rows(bank, a.rows());
  return a;
}

Array32 Node::alloc32(mem::Bank bank, std::size_t elems) {
  Array32 a;
  a.elems = elems;
  a.first_row = alloc_rows(bank, a.rows());
  return a;
}

void Node::reset_allocator() {
  next_row_a_ = 0;
  next_row_b_ = MemParams::kBankARows;
}

void Node::write64(const Array64& a, std::span<const double> values) {
  if (values.size() > a.elems) {
    throw std::invalid_argument("Node::write64: too many values");
  }
  mem::VectorRegister reg;
  for (std::size_t row = 0; row < a.rows(); ++row) {
    memory_.load_row(a.first_row + row, reg);
    const std::size_t base = row * MemParams::kElems64;
    for (std::size_t i = 0; i < MemParams::kElems64; ++i) {
      const std::size_t idx = base + i;
      if (idx < values.size()) {
        reg.set_f64(i, fp::T64::from_double(values[idx]));
      }
    }
    memory_.store_row(a.first_row + row, reg);
  }
}

std::vector<double> Node::read64(const Array64& a) const {
  std::vector<double> out(a.elems);
  mem::VectorRegister reg;
  auto& m = const_cast<mem::NodeMemory&>(memory_);
  for (std::size_t row = 0; row < a.rows(); ++row) {
    m.load_row(a.first_row + row, reg);
    const std::size_t base = row * MemParams::kElems64;
    for (std::size_t i = 0; i < MemParams::kElems64 && base + i < a.elems;
         ++i) {
      out[base + i] = reg.f64(base + i - base).to_double();
    }
  }
  return out;
}

void Node::write32(const Array32& a, std::span<const float> values) {
  if (values.size() > a.elems) {
    throw std::invalid_argument("Node::write32: too many values");
  }
  mem::VectorRegister reg;
  for (std::size_t row = 0; row < a.rows(); ++row) {
    memory_.load_row(a.first_row + row, reg);
    const std::size_t base = row * MemParams::kElems32;
    for (std::size_t i = 0; i < MemParams::kElems32; ++i) {
      if (base + i < values.size()) {
        reg.set_f32(i, fp::T32::from_float(values[base + i]));
      }
    }
    memory_.store_row(a.first_row + row, reg);
  }
}

std::vector<float> Node::read32(const Array32& a) const {
  std::vector<float> out(a.elems);
  mem::VectorRegister reg;
  auto& m = const_cast<mem::NodeMemory&>(memory_);
  for (std::size_t row = 0; row < a.rows(); ++row) {
    m.load_row(a.first_row + row, reg);
    const std::size_t base = row * MemParams::kElems32;
    for (std::size_t i = 0; i < MemParams::kElems32 && base + i < a.elems;
         ++i) {
      out[base + i] = reg.f32(i).to_float();
    }
  }
  return out;
}

void Node::attach_perf(perf::CounterRegistry& reg) {
  perf_vpu_ = &reg.track(id_, "vpu");
  perf_cp_.attach(&reg.track(id_, "cp"));
  memory_.set_sink(&reg.track(id_, "mem"));
  vpu_.set_sink(perf_vpu_);
  cpu_.set_sink(perf_cp_.sink());
  for (int p = 0; p < link::LinkParams::kPhysicalLinks; ++p) {
    if (links_.attached(p)) {
      perf_link_[static_cast<std::size_t>(p)] =
          &reg.track(id_, "link" + std::to_string(p));
    }
  }
}

vpu::OpResult Node::issue_op(const vpu::VectorOp& op) {
  vpu::OpResult r = vpu_.execute(op);
  if (perf_vpu_ != nullptr) {
    perf_vpu_->record({.start = sim_->now(),
                       .duration = r.duration,
                       .n = op.n,
                       .label = vpu::to_string(op.form),
                       .kind = perf::SpanKind::vector_op});
  }
  return r;
}

void Node::retire_op(const vpu::OpResult& r) {
  if (!cfg_.overlap) {
    cp_busy_ += r.duration;
    if (perf::PerfSink* cp = perf_cp_.sink()) {
      // The stalled controller is occupied for the whole vector op.
      perf_cp_.slots().busy.add(*cp, "busy", r.duration);
    }
    cp_sem_.release();
  }
  vpu_sem_.release();
}

sim::Proc Node::run_op(vpu::VectorOp op, vpu::OpResult* out) {
  co_await vpu_sem_.acquire();
  if (!cfg_.overlap) {
    // Ablation: no CP/VPU overlap — the controller stalls for the whole
    // vector operation.
    co_await cp_sem_.acquire();
  }
  const vpu::OpResult r = issue_op(op);
  co_await Delay{r.duration};
  retire_op(r);
  if (out != nullptr) {
    *out = r;
  }
}

sim::Proc Node::vbinary(vpu::VectorForm form, const Array64& x,
                        const Array64& y, const Array64& z,
                        vpu::OpResult* out) {
  if (x.elems != z.elems ||
      (vpu::is_two_operand(form) && y.elems != x.elems)) {
    throw std::invalid_argument("Node::vbinary: length mismatch");
  }
  vpu::OpResult total;
  for (std::size_t row = 0; row < x.rows(); ++row) {
    const std::size_t done = row * MemParams::kElems64;
    vpu::VectorOp op;
    op.form = form;
    op.prec = vpu::Precision::f64;
    op.n = std::min(MemParams::kElems64, x.elems - done);
    op.row_x = x.first_row + row;
    op.row_y = y.first_row + row;
    op.row_z = z.first_row + row;
    // run_op, inlined: the strip-mine loops are the simulator's hottest
    // path, and awaiting a nested child coroutine would cost two extra
    // event-queue round trips per stripe. Same acquire/delay/release
    // sequence, so simulated timing is identical.
    co_await vpu_sem_.acquire();
    if (!cfg_.overlap) {
      co_await cp_sem_.acquire();
    }
    const vpu::OpResult r = issue_op(op);
    co_await Delay{r.duration};
    retire_op(r);
    total.duration += r.duration;
    total.flops += r.flops;
    total.flags.merge(r.flags);
  }
  if (out != nullptr) {
    *out = total;
  }
}

sim::Proc Node::vscalar(vpu::VectorForm form, double a, const Array64& x,
                        const Array64& y, const Array64& z,
                        vpu::OpResult* out) {
  if (x.elems != z.elems ||
      (vpu::is_two_operand(form) && y.elems != x.elems)) {
    throw std::invalid_argument("Node::vscalar: length mismatch");
  }
  vpu::OpResult total;
  for (std::size_t row = 0; row < x.rows(); ++row) {
    const std::size_t done = row * MemParams::kElems64;
    vpu::VectorOp op;
    op.form = form;
    op.prec = vpu::Precision::f64;
    op.n = std::min(MemParams::kElems64, x.elems - done);
    op.row_x = x.first_row + row;
    op.row_y = y.first_row + row;
    op.row_z = z.first_row + row;
    op.scalar = fp::T64::from_double(a);
    // run_op, inlined: the strip-mine loops are the simulator's hottest
    // path, and awaiting a nested child coroutine would cost two extra
    // event-queue round trips per stripe. Same acquire/delay/release
    // sequence, so simulated timing is identical.
    co_await vpu_sem_.acquire();
    if (!cfg_.overlap) {
      co_await cp_sem_.acquire();
    }
    const vpu::OpResult r = issue_op(op);
    co_await Delay{r.duration};
    retire_op(r);
    total.duration += r.duration;
    total.flops += r.flops;
    total.flags.merge(r.flags);
  }
  if (out != nullptr) {
    *out = total;
  }
}

sim::Proc Node::vreduce(vpu::VectorForm form, const Array64& x,
                        const Array64& y, double* result,
                        std::size_t* arg_index) {
  fp::T64 acc{};
  fp::T64 best{};
  std::size_t best_index = 0;
  bool first = true;
  fp::Flags fl;
  for (std::size_t row = 0; row < x.rows(); ++row) {
    const std::size_t done = row * MemParams::kElems64;
    vpu::VectorOp op;
    op.form = form;
    op.prec = vpu::Precision::f64;
    op.n = std::min(MemParams::kElems64, x.elems - done);
    op.row_x = x.first_row + row;
    op.row_y = y.first_row + row;
    // run_op, inlined: the strip-mine loops are the simulator's hottest
    // path, and awaiting a nested child coroutine would cost two extra
    // event-queue round trips per stripe. Same acquire/delay/release
    // sequence, so simulated timing is identical.
    co_await vpu_sem_.acquire();
    if (!cfg_.overlap) {
      co_await cp_sem_.acquire();
    }
    const vpu::OpResult r = issue_op(op);
    co_await Delay{r.duration};
    retire_op(r);
    if (form == vpu::VectorForm::vmaxval) {
      if (first ||
          compare(r.scalar_result, best, fl) == fp::Ordering::greater) {
        best = r.scalar_result;
        best_index = done + r.reduction_index;
      }
    } else {
      acc = add(acc, r.scalar_result, fl);
    }
    first = false;
  }
  // Combining one partial per stripe is CP work (an add per stripe).
  co_await cp_work(4 * x.rows());
  if (form == vpu::VectorForm::vmaxval) {
    *result = best.to_double();
    if (arg_index != nullptr) {
      *arg_index = best_index;
    }
  } else {
    *result = acc.to_double();
  }
}

sim::Proc Node::vbinary32(vpu::VectorForm form, const Array32& x,
                          const Array32& y, const Array32& z,
                          vpu::OpResult* out) {
  if (x.elems != z.elems ||
      (vpu::is_two_operand(form) && y.elems != x.elems)) {
    throw std::invalid_argument("Node::vbinary32: length mismatch");
  }
  vpu::OpResult total;
  for (std::size_t row = 0; row < x.rows(); ++row) {
    const std::size_t done = row * MemParams::kElems32;
    vpu::VectorOp op;
    op.form = form;
    op.prec = vpu::Precision::f32;
    op.n = std::min(MemParams::kElems32, x.elems - done);
    op.row_x = x.first_row + row;
    op.row_y = y.first_row + row;
    op.row_z = z.first_row + row;
    // run_op, inlined: the strip-mine loops are the simulator's hottest
    // path, and awaiting a nested child coroutine would cost two extra
    // event-queue round trips per stripe. Same acquire/delay/release
    // sequence, so simulated timing is identical.
    co_await vpu_sem_.acquire();
    if (!cfg_.overlap) {
      co_await cp_sem_.acquire();
    }
    const vpu::OpResult r = issue_op(op);
    co_await Delay{r.duration};
    retire_op(r);
    total.duration += r.duration;
    total.flops += r.flops;
    total.flags.merge(r.flags);
  }
  if (out != nullptr) {
    *out = total;
  }
}

sim::Proc Node::vscalar32(vpu::VectorForm form, double a, const Array32& x,
                          const Array32& y, const Array32& z,
                          vpu::OpResult* out) {
  if (x.elems != z.elems ||
      (vpu::is_two_operand(form) && y.elems != x.elems)) {
    throw std::invalid_argument("Node::vscalar32: length mismatch");
  }
  vpu::OpResult total;
  for (std::size_t row = 0; row < x.rows(); ++row) {
    const std::size_t done = row * MemParams::kElems32;
    vpu::VectorOp op;
    op.form = form;
    op.prec = vpu::Precision::f32;
    op.n = std::min(MemParams::kElems32, x.elems - done);
    op.row_x = x.first_row + row;
    op.row_y = y.first_row + row;
    op.row_z = z.first_row + row;
    op.scalar = fp::T64::from_double(a);
    // run_op, inlined: the strip-mine loops are the simulator's hottest
    // path, and awaiting a nested child coroutine would cost two extra
    // event-queue round trips per stripe. Same acquire/delay/release
    // sequence, so simulated timing is identical.
    co_await vpu_sem_.acquire();
    if (!cfg_.overlap) {
      co_await cp_sem_.acquire();
    }
    const vpu::OpResult r = issue_op(op);
    co_await Delay{r.duration};
    retire_op(r);
    total.duration += r.duration;
    total.flops += r.flops;
    total.flags.merge(r.flags);
  }
  if (out != nullptr) {
    *out = total;
  }
}

sim::Proc Node::gather32(std::size_t elems) {
  co_await cp_sem_.acquire();
  const SimTime t = static_cast<std::int64_t>(elems) *
                    MemParams::gather_move32();
  if (perf::PerfSink* cp = perf_cp_.sink()) {
    cp->record({.start = sim_->now(),
                .duration = t,
                .n = elems,
                .kind = perf::SpanKind::gather32});
  }
  co_await Delay{t};
  cp_busy_ += t;
  if (perf::PerfSink* cp = perf_cp_.sink()) {
    CpSlots& s = perf_cp_.slots();
    s.gather_elems.add(*cp, "gather_elems", elems);
    s.busy.add(*cp, "busy", t);
  }
  cp_sem_.release();
}

sim::Proc Node::gather(std::size_t elems) {
  co_await cp_sem_.acquire();
  const SimTime t = static_cast<std::int64_t>(elems) *
                    MemParams::gather_move64();
  if (perf::PerfSink* cp = perf_cp_.sink()) {
    cp->record({.start = sim_->now(),
                .duration = t,
                .n = elems,
                .kind = perf::SpanKind::gather64});
  }
  co_await Delay{t};
  cp_busy_ += t;
  if (perf::PerfSink* cp = perf_cp_.sink()) {
    CpSlots& s = perf_cp_.slots();
    s.gather_elems.add(*cp, "gather_elems", elems);
    s.busy.add(*cp, "busy", t);
  }
  cp_sem_.release();
}

sim::Proc Node::scatter(std::size_t elems) {
  co_await cp_sem_.acquire();
  const SimTime t = static_cast<std::int64_t>(elems) *
                    MemParams::gather_move64();
  if (perf::PerfSink* cp = perf_cp_.sink()) {
    cp->record({.start = sim_->now(),
                .duration = t,
                .n = elems,
                .kind = perf::SpanKind::scatter64});
  }
  co_await Delay{t};
  cp_busy_ += t;
  if (perf::PerfSink* cp = perf_cp_.sink()) {
    CpSlots& s = perf_cp_.slots();
    s.scatter_elems.add(*cp, "scatter_elems", elems);
    s.busy.add(*cp, "busy", t);
  }
  cp_sem_.release();
}

sim::Proc Node::cp_work(std::uint64_t instructions) {
  co_await cp_sem_.acquire();
  const SimTime t =
      static_cast<std::int64_t>(instructions) * cp::CpuParams::instr_time();
  if (perf::PerfSink* cp = perf_cp_.sink()) {
    cp->record({.start = sim_->now(),
                .duration = t,
                .n = instructions,
                .kind = perf::SpanKind::cp_work});
  }
  co_await Delay{t};
  cp_busy_ += t;
  if (perf::PerfSink* cp = perf_cp_.sink()) {
    CpSlots& s = perf_cp_.slots();
    s.instr.add(*cp, "instr", instructions);
    s.busy.add(*cp, "busy", t);
  }
  cp_sem_.release();
}

sim::Proc Node::scalar_recip(double x, double* out) {
  co_await vpu_sem_.acquire();
  // Each Newton step issues two scalar multiplies and a subtract; scalar
  // operations pay full pipeline latency (no streaming to amortise).
  const std::int64_t cycles_per_iter =
      2 * vpu::VpuParams::kMulStages64 + vpu::VpuParams::kAdderStages;
  co_await Delay{vpu::kRecipIterations * cycles_per_iter *
                 vpu::VpuParams::cycle()};
  fp::Flags fl;
  *out = vpu::recip_newton(fp::T64::from_double(x), fl).to_double();
  vpu_sem_.release();
}

sim::Proc Node::row_move(std::size_t rows) {
  co_await vpu_sem_.acquire();
  const SimTime t =
      static_cast<std::int64_t>(2 * rows) * MemParams::row_access();
  if (perf_vpu_ != nullptr) {
    perf_vpu_->record({.start = sim_->now(),
                       .duration = t,
                       .n = rows,
                       .kind = perf::SpanKind::row_move});
  }
  co_await Delay{t};
  vpu_sem_.release();
}

sim::Proc Node::link_send(int port, link::Packet p) {
  p.src = id_;
  if (p.trace != 0 && port >= 0 && port < link::LinkParams::kPhysicalLinks) {
    // tscope enqueue marker for ISA-level link I/O (the machine path
    // records its own in TSeries::send_dim).
    if (perf::PerfSink* sink = perf_link_[static_cast<std::size_t>(port)]) {
      sink->record({.start = sim_->now(),
                    .trace = p.trace,
                    .kind = perf::SpanKind::msg_enqueue});
    }
  }
  co_await links_.send(port, std::move(p));
}

sim::Channel<link::Packet>& Node::link_inbox(int port, int sublink) {
  return links_.inbox(port, sublink);
}

}  // namespace fpst::node
