// The processor node of Figure 1: control processor, dual-ported memory,
// vector arithmetic unit and four communication links on one board.
//
// Besides composing the substrates, the node exposes the *timed host-level
// API* that the Occam runtime and the scientific kernels program against:
// coroutine operations that hold the proper hardware resource (vector unit,
// CP gather engine, link wire) for exactly the §II durations. TISA programs
// can also be loaded and run on the node's control processor for
// cycle-level studies.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cp/cpu.hpp"
#include "link/link.hpp"
#include "mem/memory.hpp"
#include "vpu/vpu.hpp"
#include "perf/counters.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "vpu/vpu.hpp"

namespace fpst::node {

/// One derived table the paper builds from the §II constants: the relative
/// cost of arithmetic, CP gather and link transfer for 64-bit operands —
/// "1 : 13 : 130".
struct BalanceRatios {
  static constexpr sim::SimTime arithmetic() { return vpu::VpuParams::cycle(); }
  static constexpr sim::SimTime gather() {
    return mem::MemParams::gather_move64();
  }
  static constexpr sim::SimTime link_word() {
    return 8 * link::LinkParams::byte_time();
  }
  static constexpr double gather_over_arith() {
    return gather() / arithmetic();  // 12.8 ~ "13"
  }
  static constexpr double link_over_arith() {
    return link_word() / arithmetic();  // 128 ~ "130"
  }
};

struct NodeConfig {
  /// Disable the dual-bank memory (ablation study).
  bool dual_bank = true;
  /// Disable CP/VPU overlap: vector ops then also hold the CP (ablation for
  /// the gather-overlap claim).
  bool overlap = true;
  /// Which VPU arithmetic arm computes vector results (softfloat oracle,
  /// host-FP batch fast path, or checked cross-validation). Results,
  /// flags and timing are identical in every mode.
  vpu::VpuMode vpu_mode = vpu::VpuMode::softfloat;
};

/// A vector operand resident in node memory: `rows` consecutive rows
/// starting at `first_row`, holding `elems` 64-bit elements.
struct Array64 {
  std::size_t first_row = 0;
  std::size_t elems = 0;

  std::size_t rows() const {
    return (elems + mem::MemParams::kElems64 - 1) / mem::MemParams::kElems64;
  }
};

/// The 32-bit view: vectors of up to 256 single-precision elements per row
/// (§II Memory: "for 32-bit operations, the vectors are 256 elements
/// long").
struct Array32 {
  std::size_t first_row = 0;
  std::size_t elems = 0;

  std::size_t rows() const {
    return (elems + mem::MemParams::kElems32 - 1) / mem::MemParams::kElems32;
  }
};

class Node {
 public:
  Node(sim::Simulator& sim, std::uint32_t id);
  Node(sim::Simulator& sim, std::uint32_t id, NodeConfig cfg);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::uint32_t id() const { return id_; }
  sim::Simulator& simulator() { return *sim_; }
  mem::NodeMemory& memory() { return memory_; }
  vpu::VectorUnit& vector_unit() { return vpu_; }
  cp::Cpu& cpu() { return cpu_; }
  link::NodeLinks& links() { return links_; }
  const NodeConfig& config() const { return cfg_; }

  // ---- row allocation (bank-aware) ----
  /// Allocate `rows` consecutive rows in bank A or B. Throws when full.
  std::size_t alloc_rows(mem::Bank bank, std::size_t rows);
  /// Allocate an Array64 of `elems` elements in `bank`.
  Array64 alloc64(mem::Bank bank, std::size_t elems);
  /// Allocate an Array32 of `elems` single-precision elements in `bank`.
  Array32 alloc32(mem::Bank bank, std::size_t elems);
  /// Release all allocations (arrays become dangling).
  void reset_allocator();

  // ---- host data staging (functional, untimed: experiment setup) ----
  void write64(const Array64& a, std::span<const double> values);
  std::vector<double> read64(const Array64& a) const;
  void write32(const Array32& a, std::span<const float> values);
  std::vector<float> read32(const Array32& a) const;

  // ---- timed operations (the public compute API) ----
  /// Run one vector form over full arrays, strip-mining row by row. For
  /// two-operand forms x and y must be equal length; z receives the result.
  /// The vector unit is held for the whole strip-mined sequence.
  sim::Proc vbinary(vpu::VectorForm form, const Array64& x, const Array64& y,
                    const Array64& z, vpu::OpResult* out = nullptr);
  /// Scalar-register forms (vsadd/vsmul/vsaxpy with scalar a).
  sim::Proc vscalar(vpu::VectorForm form, double a, const Array64& x,
                    const Array64& y, const Array64& z,
                    vpu::OpResult* out = nullptr);
  /// Reductions (vsum/vdot/vmaxval) over full arrays; partial results from
  /// each stripe are combined on the CP (one add per stripe).
  sim::Proc vreduce(vpu::VectorForm form, const Array64& x, const Array64& y,
                    double* result, std::size_t* arg_index = nullptr);

  /// 32-bit variants of the strip-mined forms (256 elements per stripe).
  sim::Proc vbinary32(vpu::VectorForm form, const Array32& x,
                      const Array32& y, const Array32& z,
                      vpu::OpResult* out = nullptr);
  sim::Proc vscalar32(vpu::VectorForm form, double a, const Array32& x,
                      const Array32& y, const Array32& z,
                      vpu::OpResult* out = nullptr);

  /// CP gather: assemble `elems` 64-bit operands from scattered locations
  /// into a contiguous vector (1.6 us per element, §II). Functionally a
  /// no-op here — callers stage data themselves — but it occupies the CP,
  /// so it overlaps vector arithmetic exactly as the paper prescribes.
  sim::Proc gather(std::size_t elems);
  /// CP scatter of results (same cost as gather).
  sim::Proc scatter(std::size_t elems);
  /// 32-bit gather: 0.8 us per element (one read + one write, §II).
  sim::Proc gather32(std::size_t elems);
  /// Generic control-processor work (integer bookkeeping) of a given size,
  /// expressed in CP instructions.
  sim::Proc cp_work(std::uint64_t instructions);
  /// Scalar reciprocal on the pipes (the node has no divide unit): Newton's
  /// method, six iterations of two multiplies + one subtract at scalar
  /// (pipeline-latency) rates. Occupies the vector unit.
  sim::Proc scalar_recip(double x, double* out);
  /// Move `rows` full rows memory<->vector register (400 ns each): the
  /// paper's "moving data physically" idiom (row pivoting, record sort).
  sim::Proc row_move(std::size_t rows);

  // ---- link I/O ----
  sim::Proc link_send(int port, link::Packet p);
  sim::Channel<link::Packet>& link_inbox(int port, int sublink);

  /// Attach perf collection: registers this node's "vpu", "cp" and "mem"
  /// tracks with the registry and wires the substrate sinks. Spans from the
  /// timed API land on the vpu/cp tracks of the registry's timeline. The
  /// registry must outlive the node.
  void attach_perf(perf::CounterRegistry& reg);

  // ---- statistics ----
  sim::SimTime vpu_busy() const { return vpu_.total_busy(); }
  std::uint64_t flops() const { return vpu_.total_flops(); }
  sim::SimTime cp_busy() const { return cp_busy_; }

 private:
  sim::Proc run_op(vpu::VectorOp op, vpu::OpResult* out);
  /// The non-suspending halves of run_op, for the strip-mine loops that
  /// inline its acquire/delay/release sequence.
  vpu::OpResult issue_op(const vpu::VectorOp& op);
  void retire_op(const vpu::OpResult& r);

  sim::Simulator* sim_;
  std::uint32_t id_;
  NodeConfig cfg_;
  mem::NodeMemory memory_;
  vpu::VectorUnit vpu_;
  cp::Cpu cpu_;
  link::NodeLinks links_;
  sim::Semaphore vpu_sem_;
  sim::Semaphore cp_sem_;
  /// The cp-track slots the timed API adds to.
  struct CpSlots {
    perf::BusySlot busy;
    perf::CounterSlot instr, gather_elems, scatter_elems;
  };

  perf::PerfSink* perf_vpu_ = nullptr;
  perf::Probe<CpSlots> perf_cp_;
  /// Per-port link tracks; wired only for ports with an attached cable so
  /// standalone-node dumps don't grow empty link tracks.
  std::array<perf::PerfSink*, link::LinkParams::kPhysicalLinks> perf_link_{};
  std::size_t next_row_a_ = 0;
  std::size_t next_row_b_ = mem::MemParams::kBankARows;
  sim::SimTime cp_busy_{};
};

}  // namespace fpst::node
