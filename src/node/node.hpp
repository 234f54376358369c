// The processor node of Figure 1: control processor, dual-ported memory,
// vector arithmetic unit and four communication links on one board.
//
// Besides composing the substrates, the node exposes the *timed host-level
// API* that the Occam runtime and the scientific kernels program against:
// coroutine operations that hold the proper hardware resource (vector unit
// or CP) for exactly the §II durations; link I/O goes through links().
// TISA programs can also be loaded and run on the node's control processor
// for cycle-level studies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cp/cpu.hpp"
#include "link/link.hpp"
#include "mem/memory.hpp"
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

/// A vector operand resident in node memory: `rows()` consecutive rows
/// starting at `first_row`, holding `elems` elements of host type `Elem`.
/// A 1024-byte row holds 128 64-bit or 256 32-bit elements (§II Memory:
/// "for 32-bit operations, the vectors are 256 elements long").
template <class Elem>
struct Array {
  static constexpr std::size_t kPerRow =
      mem::MemParams::kRowBytes / sizeof(Elem);

  std::size_t first_row = 0;
  std::size_t elems = 0;

  std::size_t rows() const { return (elems + kPerRow - 1) / kPerRow; }
};
using Array64 = Array<double>;
using Array32 = Array<float>;

class Node {
 public:
  Node(sim::Simulator& sim, std::uint32_t id, NodeConfig cfg = {});

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::uint32_t id() const { return id_; }
  sim::Simulator& simulator() { return *sim_; }
  mem::NodeMemory& memory() { return memory_; }
  vpu::VectorUnit& vector_unit() { return vpu_; }
  cp::Cpu& cpu() { return cpu_; }
  link::NodeLinks& links() { return links_; }

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
  // Each returns a lazily started process. Bad geometry or a form of the
  // wrong kind fails that process with std::invalid_argument naming the
  // call, so it surfaces as a sim::ProcError when the process runs.

  /// Run one element-wise vector form over full arrays, strip-mining row by
  /// row (one vector op per row, the vector unit held for each). x and z
  /// must be equal length, and so must y for two-operand forms; z receives
  /// the result. Reduction forms are rejected (use vreduce).
  sim::Proc vbinary(vpu::VectorForm form, const Array64& x, const Array64& y,
                    const Array64& z, vpu::OpResult* out = nullptr);
  /// Scalar-register forms (vsadd/vsmul/vsaxpy with scalar a).
  sim::Proc vscalar(vpu::VectorForm form, double a, const Array64& x,
                    const Array64& y, const Array64& z,
                    vpu::OpResult* out = nullptr);
  /// Reductions (vsum/vdot/vmaxval) over full arrays; partial results from
  /// each stripe are combined on the CP (one add per stripe). vdot needs x
  /// and y of equal length; other forms are rejected.
  sim::Proc vreduce(vpu::VectorForm form, const Array64& x, const Array64& y,
                    double* result, std::size_t* arg_index = nullptr);

  /// 32-bit variants of vbinary and vscalar (256 elements per stripe).
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

  /// Attach perf collection: registers this node's "vpu", "cp" and "mem"
  /// tracks with the registry, and the vector unit, control processor and
  /// memory count into their cells from now on (a machine adds the link
  /// tracks). Spans from the timed API land on the vpu/cp tracks of the
  /// registry's timeline. The registry must outlive the node.
  void attach_perf(perf::CounterRegistry& reg);

  // ---- statistics ----
  std::uint64_t flops() const { return vpu_.total_flops(); }

 private:
  /// The one strip-mine loop behind vbinary, vscalar, vbinary32 and
  /// vscalar32 (`call` names the public call in errors).
  template <class Elem>
  sim::Proc strip_mine(vpu::VectorForm form, double a, Array<Elem> x,
                       Array<Elem> y, Array<Elem> z, vpu::OpResult* out,
                       const char* call);
  /// The one CP hold behind gather, gather32, scatter and cp_work: holds
  /// the controller for `n` items of `per` each, records one `kind` span
  /// and adds `n` to the cp statistic `count`.
  sim::Proc hold_cp(std::uint64_t n, sim::SimTime per, perf::SpanKind kind,
                    cp::Stat count);
  /// The non-suspending halves of one vector op, around the strip-mine
  /// loops' acquire and delay.
  vpu::OpResult issue_op(const vpu::VectorOp& op);
  void retire_op(const vpu::OpResult& r);

  // What the timed API touches comes first, in the node's first 96 bytes:
  // every occam message holds the CP of two nodes, while the memory, vector
  // unit, interpreter and links below are cold for occam traffic.
  sim::Simulator* sim_;
  std::uint32_t id_;
  NodeConfig cfg_;
  sim::Semaphore vpu_sem_;
  sim::Semaphore cp_sem_;
  // The vpu and cp tracks the timed API records spans on; null while perf
  // is off.
  perf::PerfSink* perf_vpu_ = nullptr;
  perf::PerfSink* perf_cp_ = nullptr;
  mem::NodeMemory memory_;
  vpu::VectorUnit vpu_;
  cp::Cpu cpu_;
  link::NodeLinks links_;
  std::size_t next_row_a_ = 0;
  std::size_t next_row_b_ = mem::MemParams::kBankARows;
};

}  // namespace fpst::node
