// The T Series vector arithmetic unit (paper §II "Arithmetic").
//
// Hardware summary from the paper:
//   * a floating-point adder (six-stage pipeline: add/sub, comparisons, data
//     conversions) and a floating-point multiplier (five stages in 32-bit
//     mode, seven in 64-bit mode);
//   * each produces one 32- or 64-bit result every 125 ns, so a node peaks
//     at 16 MFLOPS when both pipes run (e.g. SAXPY);
//   * a preprogrammed micro-sequencer executes "vector forms": the program
//     names input/output vectors and the form; scalars can be held in the
//     pipe input registers; pipe outputs can feed back as inputs to build
//     dot products and sums;
//   * the unit runs in parallel with the control processor and interrupts it
//     only on completion or error.
//
// The model is functional + timed: element arithmetic is bit-exact soft
// float (src/fp), one stripe loop serving both widths, and execute()
// returns the duration the operation would occupy the pipes, which the
// node charges to simulated time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fp/softfloat.hpp"
#include "mem/memory.hpp"
#include "perf/sink.hpp"
#include "sim/time.hpp"

namespace fpst::vpu {

/// §II arithmetic constants.
struct VpuParams {
  /// One result per pipe per cycle.
  static constexpr sim::SimTime cycle() {
    return sim::SimTime::nanoseconds(125);
  }
  static constexpr int kAdderStages = 6;
  static constexpr int kMulStages32 = 5;
  static constexpr int kMulStages64 = 7;
  /// Peak node speed: adder + multiplier both producing each cycle.
  static constexpr double peak_mflops() { return 2.0 / cycle().us(); }

  /// Cycles to collapse the kAdderStages interleaved partial sums that a
  /// feedback reduction leaves in the adder pipeline (pairwise tree through
  /// the same six-stage pipe).
  static constexpr int reduction_drain_cycles() {
    return 3 * kAdderStages;  // ceil(log2(6)) = 3 passes through the pipe
  }
};

enum class Precision : std::uint8_t { f32, f64 };

/// The preprogrammed vector forms. Scalar-register forms hold `scalar` in a
/// pipe input register; reduction forms use output→input feedback.
enum class VectorForm : std::uint8_t {
  vadd,    // z[i] = x[i] + y[i]              (adder)
  vsub,    // z[i] = x[i] - y[i]              (adder)
  vmul,    // z[i] = x[i] * y[i]              (multiplier)
  vsadd,   // z[i] = s + x[i]                 (adder, scalar register)
  vsmul,   // z[i] = s * x[i]                 (multiplier, scalar register)
  vsaxpy,  // z[i] = s * x[i] + y[i]          (both pipes chained)
  vneg,    // z[i] = -x[i]                    (adder)
  vabs,    // z[i] = |x[i]|                   (adder)
  vsum,    // s = sum x[i]                    (adder feedback)
  vdot,    // s = sum x[i]*y[i]               (both pipes + feedback)
  vmaxval, // s = max x[i], index reported    (adder compare feedback)
  vcmp_le, // z[i] = (x[i] <= y[i]) ? 1 : 0   (adder compare)
  vcvt_widen,   // z64[i] = widen(x32[i])     (adder conversion)
  vcvt_narrow,  // z32[i] = narrow(x64[i])    (adder conversion)
};

/// The form's mnemonic ("VSAXPY"), or "?" for a value no enumerator names
/// (a vform descriptor word is cast to VectorForm unchecked).
constexpr const char* to_string(VectorForm f) {
  switch (f) {
    case VectorForm::vadd: return "VADD";
    case VectorForm::vsub: return "VSUB";
    case VectorForm::vmul: return "VMUL";
    case VectorForm::vsadd: return "VSADD";
    case VectorForm::vsmul: return "VSMUL";
    case VectorForm::vsaxpy: return "VSAXPY";
    case VectorForm::vneg: return "VNEG";
    case VectorForm::vabs: return "VABS";
    case VectorForm::vsum: return "VSUM";
    case VectorForm::vdot: return "VDOT";
    case VectorForm::vmaxval: return "VMAXVAL";
    case VectorForm::vcmp_le: return "VCMPLE";
    case VectorForm::vcvt_widen: return "VCVTW";
    case VectorForm::vcvt_narrow: return "VCVTN";
  }
  return "?";
}

/// Number of vector forms: the values 0 .. kVectorForms - 1 are exactly the
/// named ones.
inline constexpr std::size_t kVectorForms =
    static_cast<std::size_t>(VectorForm::vcvt_narrow) + 1;

// to_string's switch names every enumerator (-Wswitch flags a missing
// case), so a form added past vcvt_narrow trips this until the bound moves.
static_assert([] {
  for (std::size_t i = 0; i < kVectorForms; ++i) {
    if (to_string(static_cast<VectorForm>(i))[0] == '?') {
      return false;
    }
  }
  return to_string(static_cast<VectorForm>(kVectorForms))[0] == '?';
}(), "kVectorForms must count every VectorForm");

/// How execute() computes element results. All three modes are bit-for-bit
/// identical in results, flags, memory traffic, event counts and charged
/// duration — the mode only selects which arithmetic arm produces them:
///
///   softfloat  one src/fp softfloat call per element (the oracle; default)
///   batch      whole-form host-FP fast path (fp/host_bridge.hpp), falling
///              back to softfloat per element for NaNs and flush-boundary
///              cases — ~10-30x less host work per form
///   checked    runs both arms on the same operands and throws
///              std::runtime_error naming the form and the diverging bit
///              patterns if they ever disagree (cross-validation harness)
///
/// Batch-arm tie-breaking policy (the cases where host FP could have
/// disagreed with the oracle, audited + pinned by tests/vpu_batch_test):
///   * vmaxval: element 0 always seeds the running best — a NaN at index 0
///     sticks (compares against it are unordered, never `greater`) and is
///     reported with index 0, raw uncanonicalised bits. Comparisons see
///     FTZ'd values but `best` keeps the raw operand bits; +0/-0 compare
///     equal and strict-greater replacement keeps the earliest index of
///     equal maxima. Both arms share fp compare semantics, so host/oracle
///     tie-breaking cannot differ.
///   * vcvt_widen: exact in both arms (shared integer path); a signalling
///     NaN raises `invalid` and is quieted with its payload preserved.
///   * vcvt_narrow: round-to-nearest-even at binary32; results that land
///     exactly on the smallest normal are re-derived through the oracle
///     because the host's denormal-grained rounding can cross the flush
///     boundary on ties that the machine flushes.
enum class VpuMode : std::uint8_t { softfloat, batch, checked };

const char* to_string(VpuMode m);
/// "softfloat" | "batch" | "checked" -> mode; anything else -> nullopt.
std::optional<VpuMode> parse_vpu_mode(std::string_view s);

/// True when the form consumes two memory vectors (x and y).
bool is_two_operand(VectorForm f);
/// True when the form produces a scalar (no output vector).
bool is_reduction(VectorForm f);
/// True when the form chains multiplier into adder (2 flops/element).
bool uses_both_pipes(VectorForm f);

struct VectorOp;
/// Flops charged for one executed form: one per element, two when the form
/// chains both pipes. The single source of the "flops" count, so the
/// softfloat and batch arms cannot drift in accounting.
std::uint64_t flops_for(const VectorOp& op);

/// The vector unit's statistics (perf/sink.hpp): operations, flops, results
/// per pipe, same-bank operand pairs, and busy time in all, for a form no
/// enumerator names ("busy.?"), and per form in VectorForm order.
inline constexpr perf::FieldTable kFields{
    {"ops"}, {"flops"}, {"adder_results"}, {"mul_results"}, {"bank_conflicts"},
    {"busy", perf::Field::time}, {"busy.?", perf::Field::time},
    {"busy.VADD", perf::Field::time}, {"busy.VSUB", perf::Field::time},
    {"busy.VMUL", perf::Field::time}, {"busy.VSADD", perf::Field::time},
    {"busy.VSMUL", perf::Field::time}, {"busy.VSAXPY", perf::Field::time},
    {"busy.VNEG", perf::Field::time}, {"busy.VABS", perf::Field::time},
    {"busy.VSUM", perf::Field::time}, {"busy.VDOT", perf::Field::time},
    {"busy.VMAXVAL", perf::Field::time}, {"busy.VCMPLE", perf::Field::time},
    {"busy.VCVTW", perf::Field::time}, {"busy.VCVTN", perf::Field::time}};
/// kFields' cells; kBusyForm + f is vector form f's busy time.
enum Stat : std::size_t { kOps, kFlops, kAdderResults, kMulResults,
                          kBankConflicts, kBusy, kBusyUnknown, kBusyForm };
static_assert([] {
  for (std::size_t f = 0; f < kVectorForms; ++f) {
    if (kFields[kBusyForm + f].name.substr(5) !=
        to_string(static_cast<VectorForm>(f))) {
      return false;
    }
  }
  return kFields.size() == kBusyForm + kVectorForms;
}(), "kFields must name busy.<FORM> for every form, in VectorForm order");

/// A vector operation as the control processor describes it to the
/// micro-sequencer: the form, precision, element count, and the memory rows
/// holding the operands/result.
struct VectorOp {
  VectorForm form = VectorForm::vadd;
  Precision prec = Precision::f64;
  std::size_t n = 0;          // elements; <=128 (f64) or <=256 (f32)
  std::size_t row_x = 0;      // first input vector (memory row index)
  std::size_t row_y = 0;      // second input (two-operand forms)
  std::size_t row_z = 0;      // output vector (non-reduction forms)
  fp::T64 scalar{};           // scalar-register forms (narrowed for f32)
};

/// Why the vector unit refuses `op`, or nullopt when it runs it: the one
/// check VectorUnit::execute makes before it loads a row, and the static
/// cost model makes on a constant vform descriptor. The element count must
/// be 1 .. the row's length at the op's precision, a conversion runs at
/// f64 only, and every row must exist. A form no enumerator names runs:
/// timed like an adder form, it computes nothing, stores a zeroed result
/// row and is charged to "busy.?".
std::optional<std::string> refusal(const VectorOp& op);

/// What came back from the micro-sequencer with the completion interrupt.
struct OpResult {
  sim::SimTime duration{};       // pipe occupancy, charged by the node
  fp::Flags flags{};             // accumulated IEEE exceptions
  fp::T64 scalar_result{};       // reductions
  std::size_t reduction_index = 0;  // vmaxval: position of the maximum
  std::uint64_t flops = 0;       // floating point operations performed
};

class VectorUnit {
 public:
  struct Config {
    /// When false, models a single-bank memory: the two operand streams of a
    /// two-input form share one port and the element beat doubles. This is
    /// the ablation for the paper's dual-bank design claim.
    bool dual_bank = true;
    /// Which arithmetic arm computes element results (see VpuMode). Timing,
    /// memory traffic and all observable results are mode-independent.
    VpuMode mode = VpuMode::softfloat;
  };

  explicit VectorUnit(mem::NodeMemory& memory);
  VectorUnit(mem::NodeMemory& memory, Config cfg);

  /// Execute one vector form over at most a full row. Throws
  /// std::invalid_argument naming the refusal() reason, before any row
  /// moves. Timing is returned, not charged — the node model owns the
  /// clock.
  OpResult execute(const VectorOp& op);

  /// Count into `track`'s cells from now on (a "vpu" track made with
  /// kFields).
  void attach_perf(perf::PerfSink& track) { stats_.attach(track); }

  /// Statistics for the benches, since construction or the last attach.
  std::uint64_t total_ops() const { return stats_.count(kOps); }
  std::uint64_t total_flops() const { return stats_.count(kFlops); }
  sim::SimTime total_busy() const { return stats_.time(kBusy); }

  /// Timing model only (no data movement) — used for analytic sweeps.
  sim::SimTime duration_of(const VectorOp& op) const;

  /// The configured execution mode (batch/checked selection).
  VpuMode mode() const { return cfg_.mode; }

 private:
  mem::NodeMemory* memory_;
  Config cfg_;
  perf::Stats<kFields> stats_;
};

}  // namespace fpst::vpu
