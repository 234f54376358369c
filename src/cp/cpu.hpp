// The control processor model: a TISA interpreter with the paper's timing
// (7.5 MIPS, 400 ns off-chip word access, single-cycle 2 KB on-chip RAM),
// two-level process priority, CSP channels, timers, and the hooks through
// which channel instructions reach the links and `vform` reaches the vector
// unit.
//
// The interpreter runs as a simulation process: it executes one instruction,
// charges its cost to simulated time, and yields. Blocking instructions
// (channel ops with no partner, tin, vwait, empty run queues) deschedule the
// current TISA process exactly as the hardware scheduler would.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cp/assembler.hpp"
#include "cp/isa.hpp"
#include "mem/memory.hpp"
#include "perf/sink.hpp"
#include "sim/fifo.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"
#include "vpu/vpu.hpp"

namespace fpst::cp {

/// §II control-processor timing.
struct CpuParams {
  /// 7.5 MIPS instruction rate.
  static constexpr sim::SimTime instr_time() {
    return sim::SimTime::picoseconds(133'333);
  }
  /// Off-chip surcharge so a DRAM word reference costs 400 ns in total
  /// ("3-cycle minimum access time for off-chip memory", and §II Memory:
  /// "the control processor can access a 4-byte word in 400 ns").
  static constexpr sim::SimTime offchip_penalty() {
    return sim::SimTime::picoseconds(266'667);
  }
  static constexpr sim::SimTime word_access() {
    return sim::SimTime::nanoseconds(400);
  }
  /// Process switch overhead.
  static constexpr sim::SimTime switch_time() {
    return sim::SimTime::microseconds(1);
  }
  /// Timer resolution: ldtimer/tin tick once per microsecond.
  static constexpr sim::SimTime timer_tick() {
    return sim::SimTime::microseconds(1);
  }
  static constexpr double mips() { return 1.0 / instr_time().us(); }
};

/// Priorities: 0 = high (runs to completion), 1 = low (preemptable).
/// A process descriptor (Wdesc) is Wptr | priority; Wptr is word-aligned.
inline constexpr std::uint32_t wdesc(std::uint32_t wptr, int pri) {
  return wptr | static_cast<std::uint32_t>(pri);
}
inline constexpr std::uint32_t wdesc_wptr(std::uint32_t d) { return d & ~3u; }
inline constexpr int wdesc_pri(std::uint32_t d) {
  return static_cast<int>(d & 1u);
}

/// Workspace slots below Wptr used by the scheduler/channels:
///   Wptr-4  saved Iptr while descheduled
///   Wptr-8  channel data pointer while blocked on a channel
///   Wptr-12 channel byte count while blocked on a channel
inline constexpr std::uint32_t kWsIptr = 4;
inline constexpr std::uint32_t kWsChanPtr = 8;
inline constexpr std::uint32_t kWsChanCount = 12;

/// The control processor's statistics (perf/sink.hpp): instructions and
/// busy time, which the node's timed CP work adds to as well, descheduled
/// processes, and elements gathered and scattered.
inline constexpr perf::FieldTable kFields{
    {"instr"}, {"deschedules"}, {"gather_elems"}, {"scatter_elems"},
    {"busy", perf::Field::time}};
/// kFields' cells.
enum Stat : std::size_t { kInstr, kDeschedules, kGatherElems, kScatterElems,
                          kBusy };

class Cpu {
 public:
  /// External services the node wires in. Hard channel hooks transfer raw
  /// bytes over a (port, sublink); the returned Proc completes when the
  /// transfer does.
  struct Hooks {
    std::function<sim::Proc(int port, int sublink,
                            std::vector<std::uint8_t> data)>
        hard_out;
    std::function<sim::Proc(int port, int sublink,
                            std::vector<std::uint8_t>* out, std::size_t n)>
        hard_in;
  };

  Cpu(sim::Simulator& sim, mem::NodeMemory& memory, vpu::VectorUnit& vpu);

  /// Copy a program image into RAM. Throws std::invalid_argument when the
  /// image does not lie within one RAM region of the memory map.
  void load(const Program& p);

  /// Make (entry, wptr, priority) runnable. Call before run().
  void start_process(std::uint32_t entry, std::uint32_t wptr, int pri = 1);

  /// The interpreter loop; spawn on the simulator. Completes at `halt` (or
  /// immediately-deadlocked empty machine).
  sim::Proc run();

  void set_hooks(Hooks h) { hooks_ = std::move(h); }

  /// The "cp" statistics: the interpreter's, and those of the node's timed
  /// CP operations, which share them.
  perf::Stats<kFields>& stats() { return stats_; }

  // --- state inspection (tests / node services) ---
  bool halted() const { return halted_; }
  bool error_flag() const { return error_; }
  std::uint64_t instructions_executed() const { return instr_count_; }
  std::uint32_t areg() const { return areg_; }
  std::uint32_t read_word(std::uint32_t addr);  // via the memory map
  void write_word(std::uint32_t addr, std::uint32_t v);

  /// Consume the oldest queued diagnostic (bad address, div0...), if any.
  std::optional<std::string> take_fault();

 private:
  struct PendingWake {
    std::uint32_t desc;
  };

  // memory map (cp/isa.hpp)
  std::uint8_t fetch_byte(std::uint32_t addr);
  std::uint32_t data_read(std::uint32_t addr, sim::SimTime& cost);
  void data_write(std::uint32_t addr, std::uint32_t v, sim::SimTime& cost);
  std::uint8_t data_read_byte(std::uint32_t addr, sim::SimTime& cost);
  void data_write_byte(std::uint32_t addr, std::uint8_t v,
                       sim::SimTime& cost);

  // register stack
  void push(std::uint32_t v) {
    creg_ = breg_;
    breg_ = areg_;
    areg_ = v;
  }
  void pop() {
    areg_ = breg_;
    breg_ = creg_;
    creg_ = 0;
  }

  // scheduler
  void enqueue(std::uint32_t desc);
  bool pick_next();          // returns false when nothing is runnable
  void deschedule_current();  // saves Iptr into the workspace
  void fault(const std::string& what);

  // instruction execution; returns the cost of the instruction
  sim::SimTime exec_one();
  sim::SimTime exec_secondary(SecOp op);
  sim::SimTime do_channel(SecOp op);
  sim::SimTime do_vform();

  /// The on-chip RAM, zeroed on first use: no occam program touches it.
  std::uint8_t* onchip() {
    if (!onchip_) {
      onchip_ = std::make_unique<std::uint8_t[]>(kOnChipBytes);
    }
    return onchip_.get();
  }

  sim::Simulator* sim_;
  mem::NodeMemory* memory_;
  vpu::VectorUnit* vpu_;
  perf::Stats<kFields> stats_;
  Hooks hooks_{};
  std::unique_ptr<std::uint8_t[]> onchip_;

  // machine state
  std::uint32_t areg_ = 0;
  std::uint32_t breg_ = 0;
  std::uint32_t creg_ = 0;
  std::uint32_t wptr_ = 0;
  std::uint32_t iptr_ = 0;
  int cur_pri_ = 1;
  bool have_process_ = false;
  bool halted_ = false;
  bool error_ = false;

  std::array<sim::Fifo<std::uint32_t>, 2> runq_{};
  sim::Event wake_;

  // vector unit completion
  bool vpu_busy_ = false;
  sim::Fifo<std::uint32_t> vpu_waiters_;
  std::uint32_t vform_desc_addr_ = 0;

  std::uint64_t instr_count_ = 0;
  sim::Fifo<std::string> faults_;
};

}  // namespace fpst::cp
