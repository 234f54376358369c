#include "node/node.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "vpu/recip.hpp"

namespace fpst::node {

namespace {

using mem::MemParams;
using sim::Delay;
using sim::SimTime;

/// True for the 64-bit view (host double), false for the 32-bit one.
template <class Elem>
constexpr bool kWide = std::is_same_v<Elem, double>;

/// Copy host values into the leading elements of `a` (untimed).
template <class Elem>
void stage(mem::NodeMemory& m, const Array<Elem>& a,
           std::span<const Elem> values, const char* call) {
  if (values.size() > a.elems) {
    throw std::invalid_argument(std::string(call) + ": too many values");
  }
  constexpr std::size_t kPerRow = Array<Elem>::kPerRow;
  mem::VectorRegister reg;
  for (std::size_t row = 0; row < a.rows(); ++row) {
    m.load_row(a.first_row + row, reg);
    const std::size_t base = row * kPerRow;
    for (std::size_t i = 0; i < kPerRow && base + i < values.size(); ++i) {
      if constexpr (kWide<Elem>) {
        reg.set_f64(i, fp::T64::from_double(values[base + i]));
      } else {
        reg.set_f32(i, fp::T32::from_float(values[base + i]));
      }
    }
    m.store_row(a.first_row + row, reg);
  }
}

/// Read every element of `a` back to the host (untimed).
template <class Elem>
std::vector<Elem> unstage(mem::NodeMemory& m, const Array<Elem>& a) {
  constexpr std::size_t kPerRow = Array<Elem>::kPerRow;
  std::vector<Elem> out(a.elems);
  mem::VectorRegister reg;
  for (std::size_t row = 0; row < a.rows(); ++row) {
    m.load_row(a.first_row + row, reg);
    const std::size_t base = row * kPerRow;
    for (std::size_t i = 0; i < kPerRow && base + i < a.elems; ++i) {
      if constexpr (kWide<Elem>) {
        out[base + i] = reg.f64(i).to_double();
      } else {
        out[base + i] = reg.f32(i).to_float();
      }
    }
  }
  return out;
}

}  // namespace

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
  stage(memory_, a, values, "Node::write64");
}

void Node::write32(const Array32& a, std::span<const float> values) {
  stage(memory_, a, values, "Node::write32");
}

std::vector<double> Node::read64(const Array64& a) const {
  return unstage(const_cast<mem::NodeMemory&>(memory_), a);
}

std::vector<float> Node::read32(const Array32& a) const {
  return unstage(const_cast<mem::NodeMemory&>(memory_), a);
}

void Node::attach_perf(perf::CounterRegistry& reg) {
  perf_vpu_ = &reg.track(id_, "vpu", vpu::kFields);
  perf_cp_ = &reg.track(id_, "cp", cp::kFields);
  vpu_.attach_perf(*perf_vpu_);
  cpu_.stats().attach(*perf_cp_);
  memory_.attach_perf(reg.track(id_, "mem", mem::kFields));
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
    // The stalled controller is occupied for the whole vector op.
    cpu_.stats().add(cp::kBusy, r.duration);
    cp_sem_.release();
  }
  vpu_sem_.release();
}

template <class Elem>
sim::Proc Node::strip_mine(vpu::VectorForm form, double a, Array<Elem> x,
                           Array<Elem> y, Array<Elem> z, vpu::OpResult* out,
                           const char* call) {
  if (vpu::is_reduction(form)) {
    throw std::invalid_argument(std::string(call) + ": " +
                                vpu::to_string(form) +
                                " is a reduction (use Node::vreduce)");
  }
  if (x.elems != z.elems ||
      (vpu::is_two_operand(form) && y.elems != x.elems)) {
    throw std::invalid_argument(std::string(call) + ": length mismatch");
  }
  constexpr std::size_t kPerRow = Array<Elem>::kPerRow;
  vpu::VectorOp op;
  op.form = form;
  op.prec = kWide<Elem> ? vpu::Precision::f64 : vpu::Precision::f32;
  op.scalar = fp::T64::from_double(a);
  vpu::OpResult total;
  for (std::size_t row = 0; row < x.rows(); ++row) {
    op.n = std::min(kPerRow, x.elems - row * kPerRow);
    op.row_x = x.first_row + row;
    op.row_y = y.first_row + row;
    op.row_z = z.first_row + row;
    // Acquire, delay and release inline: awaiting a child coroutine per
    // stripe would cost two more event-queue round trips each.
    co_await vpu_sem_.acquire();
    if (!cfg_.overlap) {
      // Ablation: no CP/VPU overlap, so the controller stalls for the
      // whole vector operation.
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

sim::Proc Node::vbinary(vpu::VectorForm form, const Array64& x,
                        const Array64& y, const Array64& z,
                        vpu::OpResult* out) {
  return strip_mine(form, 0.0, x, y, z, out, "Node::vbinary");
}

sim::Proc Node::vscalar(vpu::VectorForm form, double a, const Array64& x,
                        const Array64& y, const Array64& z,
                        vpu::OpResult* out) {
  return strip_mine(form, a, x, y, z, out, "Node::vscalar");
}

sim::Proc Node::vbinary32(vpu::VectorForm form, const Array32& x,
                          const Array32& y, const Array32& z,
                          vpu::OpResult* out) {
  return strip_mine(form, 0.0, x, y, z, out, "Node::vbinary32");
}

sim::Proc Node::vscalar32(vpu::VectorForm form, double a, const Array32& x,
                          const Array32& y, const Array32& z,
                          vpu::OpResult* out) {
  return strip_mine(form, a, x, y, z, out, "Node::vscalar32");
}

sim::Proc Node::vreduce(vpu::VectorForm form, const Array64& x,
                        const Array64& y, double* result,
                        std::size_t* arg_index) {
  if (!vpu::is_reduction(form)) {
    throw std::invalid_argument(std::string("Node::vreduce: ") +
                                vpu::to_string(form) +
                                " is not a reduction");
  }
  if (vpu::is_two_operand(form) && y.elems != x.elems) {
    throw std::invalid_argument("Node::vreduce: length mismatch");
  }
  fp::T64 acc{};
  fp::T64 best{};
  std::size_t best_index = 0;
  bool first = true;
  fp::Flags fl;
  vpu::VectorOp op;
  op.form = form;
  for (std::size_t row = 0; row < x.rows(); ++row) {
    const std::size_t done = row * Array64::kPerRow;
    op.n = std::min(Array64::kPerRow, x.elems - done);
    op.row_x = x.first_row + row;
    op.row_y = y.first_row + row;
    // The strip-mine loop's inline acquire, delay and release.
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

sim::Proc Node::hold_cp(std::uint64_t n, SimTime per, perf::SpanKind kind,
                        cp::Stat count) {
  co_await cp_sem_.acquire();
  const SimTime t = static_cast<std::int64_t>(n) * per;
  if (perf_cp_ != nullptr) {
    perf_cp_->record(
        {.start = sim_->now(), .duration = t, .n = n, .kind = kind});
  }
  co_await Delay{t};
  cpu_.stats().add(count, n);
  cpu_.stats().add(cp::kBusy, t);
  cp_sem_.release();
}

sim::Proc Node::gather(std::size_t elems) {
  return hold_cp(elems, MemParams::gather_move64(), perf::SpanKind::gather64,
                 cp::kGatherElems);
}

sim::Proc Node::gather32(std::size_t elems) {
  return hold_cp(elems, MemParams::gather_move32(), perf::SpanKind::gather32,
                 cp::kGatherElems);
}

sim::Proc Node::scatter(std::size_t elems) {
  return hold_cp(elems, MemParams::gather_move64(), perf::SpanKind::scatter64,
                 cp::kScatterElems);
}

sim::Proc Node::cp_work(std::uint64_t instructions) {
  return hold_cp(instructions, cp::CpuParams::instr_time(),
                 perf::SpanKind::cp_work, cp::kInstr);
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

}  // namespace fpst::node
