#include "cp/cpu.hpp"

#include <utility>

namespace fpst::cp {

namespace {
using sim::Delay;
using sim::SimTime;

std::int32_t s32(std::uint32_t v) { return static_cast<std::int32_t>(v); }
}  // namespace

Cpu::Cpu(sim::Simulator& sim, mem::NodeMemory& memory, vpu::VectorUnit& vpu)
    : sim_{&sim}, memory_{&memory}, vpu_{&vpu}, wake_{sim} {}

void Cpu::load(const Program& p) {
  if (p.org + p.bytes.size() > ram_end(p.org)) {
    throw std::invalid_argument("Cpu::load: image outside RAM");
  }
  for (std::size_t i = 0; i < p.bytes.size(); ++i) {
    const std::uint32_t a = p.org + static_cast<std::uint32_t>(i);
    if (in_dram(a)) {
      memory_->poke_byte(a, p.bytes[i]);
    } else {
      onchip()[a - kOnChipBase] = p.bytes[i];
    }
  }
}

void Cpu::start_process(std::uint32_t entry, std::uint32_t wptr, int pri) {
  // Save the initial Iptr in the workspace, as for any descheduled process.
  sim::SimTime ignored{};
  data_write(wptr - kWsIptr, entry, ignored);
  enqueue(wdesc(wptr, pri));
}

std::uint8_t Cpu::fetch_byte(std::uint32_t addr) {
  if (in_dram(addr)) {
    return memory_->peek_byte(addr);
  }
  if (on_chip(addr)) {
    return onchip()[addr - kOnChipBase];
  }
  fault("instruction fetch outside RAM");
  halted_ = true;
  return static_cast<std::uint8_t>((static_cast<unsigned>(Op::opr) << 4) |
                                   (static_cast<unsigned>(SecOp::halt)));
}

std::uint32_t Cpu::data_read(std::uint32_t addr, SimTime& cost) {
  if (in_dram(addr)) {
    cost += CpuParams::offchip_penalty();
    return memory_->read_word(addr);
  }
  if (on_chip(addr)) {
    const std::uint32_t off = (addr - kOnChipBase) & ~3u;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | onchip()[off + static_cast<std::uint32_t>(i)];
    }
    return v;
  }
  fault("word read from unmapped address");
  return 0;
}

void Cpu::data_write(std::uint32_t addr, std::uint32_t v, SimTime& cost) {
  if (in_dram(addr)) {
    cost += CpuParams::offchip_penalty();
    memory_->write_word(addr, v);
    return;
  }
  if (on_chip(addr)) {
    const std::uint32_t off = (addr - kOnChipBase) & ~3u;
    for (std::uint32_t i = 0; i < 4; ++i) {
      onchip()[off + i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
    }
    return;
  }
  fault("word write to unmapped address");
}

std::uint8_t Cpu::data_read_byte(std::uint32_t addr, SimTime& cost) {
  if (in_dram(addr)) {
    cost += CpuParams::offchip_penalty();
    return memory_->read_byte(addr);
  }
  if (on_chip(addr)) {
    return onchip()[addr - kOnChipBase];
  }
  fault("byte read from unmapped address");
  return 0;
}

void Cpu::data_write_byte(std::uint32_t addr, std::uint8_t v, SimTime& cost) {
  if (in_dram(addr)) {
    cost += CpuParams::offchip_penalty();
    memory_->write_byte(addr, v);
    return;
  }
  if (on_chip(addr)) {
    onchip()[addr - kOnChipBase] = v;
    return;
  }
  fault("byte write to unmapped address");
}

std::uint32_t Cpu::read_word(std::uint32_t addr) {
  SimTime ignored{};
  return data_read(addr, ignored);
}

void Cpu::write_word(std::uint32_t addr, std::uint32_t v) {
  SimTime ignored{};
  data_write(addr, v, ignored);
}

void Cpu::enqueue(std::uint32_t desc) {
  runq_[static_cast<std::size_t>(wdesc_pri(desc))].push_back(desc);
  wake_.notify_all();
}

bool Cpu::pick_next() {
  for (std::size_t pri = 0; pri < 2; ++pri) {
    if (!runq_[pri].empty()) {
      const std::uint32_t desc = runq_[pri].pop_front();
      wptr_ = wdesc_wptr(desc);
      cur_pri_ = static_cast<int>(pri);
      SimTime ignored{};
      iptr_ = data_read(wptr_ - kWsIptr, ignored);
      have_process_ = true;
      return true;
    }
  }
  return false;
}

void Cpu::deschedule_current() {
  SimTime ignored{};
  data_write(wptr_ - kWsIptr, iptr_, ignored);
  have_process_ = false;
  stats_.add(kDeschedules, 1);
}

void Cpu::fault(const std::string& what) {
  error_ = true;
  faults_.push_back(what);
}

std::optional<std::string> Cpu::take_fault() {
  if (faults_.empty()) {
    return std::nullopt;
  }
  return faults_.pop_front();
}

sim::Proc Cpu::run() {
  while (!halted_) {
    if (!have_process_) {
      if (!pick_next()) {
        // Idle: wait for a link completion, timer or VPU interrupt.
        co_await wake_.wait();
        continue;
      }
      co_await Delay{CpuParams::switch_time()};
      continue;
    }
    const std::uint64_t instr_before = instr_count_;
    const SimTime cost = exec_one();
    stats_.add(kInstr, instr_count_ - instr_before);
    stats_.add(kBusy, cost);
    co_await Delay{cost};
    // A runnable high-priority process preempts a low-priority one at the
    // next instruction boundary ("two-level process priority", §II).
    if (have_process_ && cur_pri_ == 1 && !runq_[0].empty()) {
      deschedule_current();
      runq_[1].push_front(wdesc(wptr_, 1));
    }
  }
}

sim::SimTime Cpu::exec_one() {
  SimTime cost{};
  // Fetch, accumulating prefixes. Each prefix byte is itself an
  // instruction and costs one instruction time.
  std::uint32_t oreg = 0;
  Op op;
  std::uint32_t operand;
  for (;;) {
    const std::uint8_t b = fetch_byte(iptr_++);
    cost += CpuParams::instr_time();
    ++instr_count_;
    if (halted_) {
      return cost;
    }
    op = static_cast<Op>(b >> 4);
    const std::uint32_t nib = b & 0xFu;
    if (op == Op::pfix) {
      oreg = (oreg | nib) << 4;
    } else if (op == Op::nfix) {
      oreg = (~(oreg | nib)) << 4;
    } else {
      operand = oreg | nib;
      break;
    }
  }

  switch (op) {
    case Op::j:
      iptr_ += operand;
      break;
    case Op::ldlp:
      push(wptr_ + 4 * operand);
      break;
    case Op::ldnl:
      areg_ = data_read(areg_ + 4 * operand, cost);
      break;
    case Op::ldc:
      push(operand);
      break;
    case Op::ldnlp:
      areg_ += 4 * operand;
      break;
    case Op::ldl:
      push(data_read(wptr_ + 4 * operand, cost));
      break;
    case Op::adc:
      areg_ += operand;
      break;
    case Op::call:
      wptr_ -= 4;
      data_write(wptr_, iptr_, cost);
      iptr_ += operand;
      break;
    case Op::cj:
      if (areg_ == 0) {
        iptr_ += operand;
      } else {
        pop();
      }
      break;
    case Op::ajw:
      wptr_ += 4 * operand;
      break;
    case Op::eqc:
      areg_ = (areg_ == operand) ? 1u : 0u;
      break;
    case Op::stl:
      data_write(wptr_ + 4 * operand, areg_, cost);
      pop();
      break;
    case Op::stnl:
      data_write(areg_ + 4 * operand, breg_, cost);
      pop();
      pop();
      break;
    case Op::opr:
      cost += exec_secondary(static_cast<SecOp>(operand));
      break;
    default:
      fault("bad primary opcode");
      break;
  }
  return cost;
}

sim::SimTime Cpu::exec_secondary(SecOp op) {
  SimTime cost{};
  if (const std::optional<AluResult> r = alu(op, breg_, areg_)) {
    cost += r->extra_instrs * CpuParams::instr_time();
    if (r->fault != nullptr) {
      fault(r->fault);
    }
    if (r->pops) {
      breg_ = creg_;
      creg_ = 0;
    }
    areg_ = r->value;
    return cost;
  }

  switch (op) {
    case SecOp::rev:
      std::swap(areg_, breg_);
      break;
    case SecOp::mint:
      push(kNotProcess);
      break;
    case SecOp::ldpi:
      areg_ = iptr_ + areg_;
      break;
    case SecOp::lb:
      areg_ = data_read_byte(areg_, cost);
      break;
    case SecOp::sb:
      data_write_byte(areg_, static_cast<std::uint8_t>(breg_ & 0xFF), cost);
      pop();
      pop();
      break;
    case SecOp::move: {
      const std::uint32_t count = areg_;
      const std::uint32_t dst = breg_;
      const std::uint32_t src = creg_;
      pop();
      pop();
      pop();
      SimTime ignored{};
      for (std::uint32_t i = 0; i < count; ++i) {
        data_write_byte(dst + i, data_read_byte(src + i, ignored), ignored);
      }
      // Block move streams a word read + word write per 4 bytes.
      const std::uint32_t words = (count + 3) / 4;
      cost += static_cast<std::int64_t>(words) * 2 * CpuParams::word_access();
      break;
    }
    case SecOp::in:
    case SecOp::out:
      cost += do_channel(op);
      break;
    case SecOp::startp: {
      const std::uint32_t child = areg_;
      const std::uint32_t code = breg_;
      pop();
      pop();
      SimTime ignored{};
      data_write(wdesc_wptr(child) - kWsIptr, code, ignored);
      enqueue(child);
      cost += CpuParams::switch_time() / 2;  // queue insertion microcode
      break;
    }
    case SecOp::endp: {
      const std::uint32_t sync = areg_;
      pop();
      std::uint32_t cnt = data_read(sync, cost);
      data_write(sync, --cnt, cost);
      if (cnt == 0) {
        const std::uint32_t parent = data_read(sync + 4, cost);
        const std::uint32_t resume = data_read(sync + 8, cost);
        SimTime ignored{};
        data_write(wdesc_wptr(parent) - kWsIptr, resume, ignored);
        enqueue(parent);
      }
      have_process_ = false;  // this branch terminates either way
      break;
    }
    case SecOp::stopp:
      deschedule_current();
      break;
    case SecOp::runp: {
      const std::uint32_t desc = areg_;
      pop();
      enqueue(desc);
      break;
    }
    case SecOp::ldtimer:
      push(static_cast<std::uint32_t>(sim_->now().ps() /
                                      CpuParams::timer_tick().ps()));
      break;
    case SecOp::tin: {
      const std::uint32_t target = areg_;
      pop();
      const std::uint32_t now_ticks = static_cast<std::uint32_t>(
          sim_->now().ps() / CpuParams::timer_tick().ps());
      if (s32(target - now_ticks) > 0) {
        deschedule_current();
        const std::uint32_t desc = wdesc(wptr_, cur_pri_);
        const SimTime when =
            static_cast<std::int64_t>(target - now_ticks) *
            CpuParams::timer_tick();
        sim_->schedule(when, [this, desc] { enqueue(desc); });
      }
      break;
    }
    case SecOp::ret:
      iptr_ = data_read(wptr_, cost);
      wptr_ += 4;
      break;
    case SecOp::vform:
      cost += do_vform();
      break;
    case SecOp::vwait:
      if (vpu_busy_) {
        deschedule_current();
        vpu_waiters_.push_back(wdesc(wptr_, cur_pri_));
      }
      break;
    case SecOp::gather:
    case SecOp::scatter: {
      const std::uint32_t count = areg_;
      const std::uint32_t vec = breg_;   // contiguous vector base
      const std::uint32_t table = creg_;  // word table of byte addresses
      pop();
      pop();
      pop();
      SimTime ignored{};
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t scattered = data_read(table + 4 * i, ignored);
        const std::uint32_t packed = vec + 8 * i;
        const std::uint32_t from = op == SecOp::gather ? scattered : packed;
        const std::uint32_t to = op == SecOp::gather ? packed : scattered;
        data_write(to, data_read(from, ignored), ignored);
        data_write(to + 4, data_read(from + 4, ignored), ignored);
      }
      // 2 reads + 2 writes per 64-bit element: 1.6 us each (§II Memory).
      cost += static_cast<std::int64_t>(count) * mem::MemParams::gather_move64();
      stats_.add(op == SecOp::gather ? kGatherElems : kScatterElems,
                 std::uint64_t{count});
      break;
    }
    case SecOp::halt:
      halted_ = true;
      break;
    case SecOp::testerr:
      push(error_ ? 1u : 0u);
      error_ = false;
      break;
    default:
      fault("bad secondary opcode");
      break;
  }
  return cost;
}

sim::SimTime Cpu::do_channel(SecOp op) {
  SimTime cost{};
  const std::uint32_t count = areg_;
  const std::uint32_t chan = breg_;
  const std::uint32_t ptr = creg_;
  pop();
  pop();
  pop();

  if (is_hard_chan(chan)) {
    const HardChan hc = decode_hard_chan(chan);
    const std::uint32_t desc = wdesc(wptr_, cur_pri_);
    deschedule_current();
    if (op == SecOp::out) {
      if (!hooks_.hard_out) {
        fault("hard channel output with no link hook");
        return cost;
      }
      std::vector<std::uint8_t> data(count);
      SimTime ignored{};
      for (std::uint32_t i = 0; i < count; ++i) {
        data[i] = data_read_byte(ptr + i, ignored);
      }
      sim_->spawn([](Cpu* cpu, int pt, int sl, std::vector<std::uint8_t> d,
                     std::uint32_t dsc) -> sim::Proc {
        co_await cpu->hooks_.hard_out(pt, sl, std::move(d));
        cpu->enqueue(dsc);
      }(this, hc.port, hc.sublink, std::move(data), desc));
    } else {
      if (!hooks_.hard_in) {
        fault("hard channel input with no link hook");
        return cost;
      }
      sim_->spawn([](Cpu* cpu, int pt, int sl, std::uint32_t dst,
                     std::uint32_t n, std::uint32_t dsc) -> sim::Proc {
        std::vector<std::uint8_t> buf;
        co_await cpu->hooks_.hard_in(pt, sl, &buf, n);
        SimTime ignored{};
        for (std::uint32_t i = 0; i < n && i < buf.size(); ++i) {
          cpu->data_write_byte(dst + i, buf[i], ignored);
        }
        cpu->enqueue(dsc);
      }(this, hc.port, hc.sublink, ptr, count, desc));
    }
    return cost;
  }

  // Soft channel: a word in RAM holding kNotProcess or the waiting Wdesc.
  const std::uint32_t word = data_read(chan, cost);
  if (word == kNotProcess) {
    // First to arrive: publish ourselves and block.
    data_write(chan, wdesc(wptr_, cur_pri_), cost);
    SimTime ignored{};
    data_write(wptr_ - kWsChanPtr, ptr, ignored);
    data_write(wptr_ - kWsChanCount, count, ignored);
    deschedule_current();
    return cost;
  }
  // Partner is waiting: transfer and wake it.
  const std::uint32_t partner = word;
  SimTime ignored{};
  const std::uint32_t pptr =
      data_read(wdesc_wptr(partner) - kWsChanPtr, ignored);
  const std::uint32_t from = op == SecOp::out ? ptr : pptr;
  const std::uint32_t to = op == SecOp::out ? pptr : ptr;
  for (std::uint32_t i = 0; i < count; ++i) {
    data_write_byte(to + i, data_read_byte(from + i, ignored), ignored);
  }
  cost += static_cast<std::int64_t>((count + 3) / 4) * 2 *
          CpuParams::word_access();
  data_write(chan, kNotProcess, cost);
  enqueue(partner);
  return cost;
}

sim::SimTime Cpu::do_vform() {
  SimTime cost{};
  const std::uint32_t desc_addr = areg_;
  pop();
  if (vpu_busy_) {
    fault("vform while the vector unit is busy");
    return cost;
  }
  vpu::VectorOp op;
  op.form = static_cast<vpu::VectorForm>(data_read(desc_addr + 0, cost));
  op.prec = data_read(desc_addr + 4, cost) == 0 ? vpu::Precision::f32
                                                : vpu::Precision::f64;
  op.n = data_read(desc_addr + 8, cost);
  op.row_x = data_read(desc_addr + 12, cost);
  op.row_y = data_read(desc_addr + 16, cost);
  op.row_z = data_read(desc_addr + 20, cost);
  const std::uint64_t lo = data_read(desc_addr + 24, cost);
  const std::uint64_t hi = data_read(desc_addr + 28, cost);
  op.scalar = fp::T64::from_bits((hi << 32) | lo);

  vpu::OpResult result;
  try {
    result = vpu_->execute(op);
  } catch (const std::invalid_argument&) {
    fault("vform: bad vector descriptor");
    return cost;
  }
  vpu_busy_ = true;
  vform_desc_addr_ = desc_addr;
  // The arithmetic unit "interrupts the controller when a vector operation
  // has completed": publish results and wake waiters after the pipe time.
  sim_->schedule(result.duration, [this, result] {
    const std::uint64_t bits = result.scalar_result.bits();
    SimTime ignored{};
    data_write(vform_desc_addr_ + 32,
               static_cast<std::uint32_t>(bits & 0xFFFF'FFFF), ignored);
    data_write(vform_desc_addr_ + 36, static_cast<std::uint32_t>(bits >> 32),
               ignored);
    data_write(vform_desc_addr_ + 40,
               static_cast<std::uint32_t>(result.reduction_index), ignored);
    const std::uint32_t flags =
        (result.flags.invalid ? 1u : 0u) | (result.flags.overflow ? 2u : 0u) |
        (result.flags.underflow ? 4u : 0u) |
        (result.flags.inexact ? 8u : 0u);
    data_write(vform_desc_addr_ + 44, flags, ignored);
    vpu_busy_ = false;
    while (!vpu_waiters_.empty()) {
      enqueue(vpu_waiters_.pop_front());
    }
  });
  return cost;
}

}  // namespace fpst::cp
