#include "vpu/vpu.hpp"

#include <array>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include "vpu/batch.hpp"

namespace fpst::vpu {

namespace {

using fp::Flags;
using fp::Ordering;
using fp::T32;
using fp::T64;
using mem::VectorRegister;

int multiplier_stages(Precision p) {
  return p == Precision::f32 ? VpuParams::kMulStages32
                             : VpuParams::kMulStages64;
}

/// Pipeline depth in cycles from first operand pair to first result.
int pipeline_depth(VectorForm f, Precision p) {
  if (uses_both_pipes(f)) {
    return multiplier_stages(p) + VpuParams::kAdderStages;
  }
  switch (f) {
    case VectorForm::vmul:
    case VectorForm::vsmul:
      return multiplier_stages(p);
    default:
      return VpuParams::kAdderStages;  // add/sub/compare/convert forms
  }
}

/// Collapse the six interleaved feedback partials with a pairwise tree
/// through the adder: (p0+p1), (p2+p3), (p4+p5) -> (q0+q1) -> (+q2).
/// This exact order is part of the machine model; reductions are
/// reproducible but need not match left-to-right summation.
template <class T>
T collapse_partials(const std::array<T, VpuParams::kAdderStages>& p,
                    Flags& fl) {
  const T q0 = add(p[0], p[1], fl);
  const T q1 = add(p[2], p[3], fl);
  const T q2 = add(p[4], p[5], fl);
  return add(add(q0, q1, fl), q2, fl);
}

/// One element width of a register row: the 64-bit lanes (T64) or the
/// 32-bit ones (T32).
template <class T>
struct Lane;

template <>
struct Lane<T64> {
  static T64 get(const VectorRegister& r, std::size_t i) { return r.f64(i); }
  static void set(VectorRegister& r, std::size_t i, T64 v) { r.set_f64(i, v); }
  static T64 one() { return T64::from_double(1.0); }
  static T64 scalar(T64 s, Flags&) { return s; }
  static T64 result(T64 v) { return v; }
};

template <>
struct Lane<T32> {
  static T32 get(const VectorRegister& r, std::size_t i) { return r.f32(i); }
  static void set(VectorRegister& r, std::size_t i, T32 v) { r.set_f32(i, v); }
  static T32 one() { return T32::from_float(1.0f); }
  /// The scalar register narrows once per op, raising flags.
  static T32 scalar(T64 s, Flags& fl) { return T32::narrowed(s, fl); }
  /// A reduction result widens for OpResult without raising flags.
  static T64 result(T32 v) { return v.widened(); }
};

/// The softfloat arm (the oracle): one src/fp call per element, at the
/// op's width T. Conversions cross widths and run only at f64 (refusal()).
template <class T>
OpResult execute_soft(const VectorOp& op, const VectorRegister& vx,
                      const VectorRegister& vy, VectorRegister& vz) {
  using L = Lane<T>;
  constexpr bool kWide = std::is_same_v<T, T64>;
  OpResult res;
  Flags& fl = res.flags;
  const T s = L::scalar(op.scalar, fl);

  std::array<T, VpuParams::kAdderStages> partials{};
  T best{};
  std::size_t best_i = 0;

  for (std::size_t i = 0; i < op.n; ++i) {
    const T x = L::get(vx, i);
    switch (op.form) {
      case VectorForm::vadd:
        L::set(vz, i, add(x, L::get(vy, i), fl));
        break;
      case VectorForm::vsub:
        L::set(vz, i, sub(x, L::get(vy, i), fl));
        break;
      case VectorForm::vmul:
        L::set(vz, i, mul(x, L::get(vy, i), fl));
        break;
      case VectorForm::vsadd:
        L::set(vz, i, add(s, x, fl));
        break;
      case VectorForm::vsmul:
        L::set(vz, i, mul(s, x, fl));
        break;
      case VectorForm::vsaxpy:
        L::set(vz, i, add(mul(s, x, fl), L::get(vy, i), fl));
        break;
      case VectorForm::vneg:
        L::set(vz, i, x.negated());
        break;
      case VectorForm::vabs:
        L::set(vz, i, x.abs());
        break;
      case VectorForm::vsum:
        partials[i % partials.size()] =
            add(partials[i % partials.size()], x, fl);
        break;
      case VectorForm::vdot:
        partials[i % partials.size()] = add(
            partials[i % partials.size()], mul(x, L::get(vy, i), fl), fl);
        break;
      case VectorForm::vmaxval: {
        if (i == 0 || compare(x, best, fl) == Ordering::greater) {
          best = x;
          best_i = i;
        }
        break;
      }
      case VectorForm::vcmp_le: {
        const Ordering o = compare(x, L::get(vy, i), fl);
        const bool le = o == Ordering::less || o == Ordering::equal;
        L::set(vz, i, le ? L::one() : T{});
        break;
      }
      case VectorForm::vcvt_widen:
        // x row holds 32-bit elements; output 64-bit. Conversion of a
        // signalling NaN raises invalid (quieted, payload preserved).
        if constexpr (kWide) {
          vz.set_f64(i, T32::from_bits(vx.u32(i)).widened(fl));
        }
        break;
      case VectorForm::vcvt_narrow:
        if constexpr (kWide) {
          vz.set_u32(i, T32::narrowed(x, fl).bits());
        }
        break;
    }
  }

  if (op.form == VectorForm::vsum || op.form == VectorForm::vdot) {
    res.scalar_result = L::result(collapse_partials(partials, fl));
  } else if (op.form == VectorForm::vmaxval) {
    res.scalar_result = L::result(best);
    res.reduction_index = best_i;
  }
  res.flops = flops_for(op);
  return res;
}

/// Checked-mode divergence report: throws naming the op and the first
/// mismatching element / result field, with both arms' bit patterns.
[[noreturn]] void report_divergence(const VectorOp& op, const char* what,
                                    std::size_t index, std::uint64_t soft,
                                    std::uint64_t batch) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "VectorUnit[checked]: %s %s n=%zu diverged at %s[%zu]: "
                "softfloat=0x%016llx batch=0x%016llx",
                to_string(op.form),
                op.prec == Precision::f64 ? "f64" : "f32", op.n, what, index,
                static_cast<unsigned long long>(soft),
                static_cast<unsigned long long>(batch));
  throw std::runtime_error(buf);
}

std::uint64_t flags_bits(const Flags& fl) {
  return (fl.invalid ? 1U : 0U) | (fl.overflow ? 2U : 0U) |
         (fl.underflow ? 4U : 0U) | (fl.inexact ? 8U : 0U);
}

/// Cross-validate the batch arm against the softfloat arm: output register
/// bytes (non-reduction forms write the same element span and both scratch
/// registers start zeroed, so whole-row comparison is exact), flags,
/// scalar result bits, reduction index and flops accounting.
void check_divergence(const VectorOp& op, const OpResult& soft,
                      const VectorRegister& soft_z, const OpResult& bat,
                      const VectorRegister& bat_z) {
  if (!is_reduction(op.form)) {
    if (op.form == VectorForm::vcvt_narrow ||
        (op.prec == Precision::f32 && op.form != VectorForm::vcvt_widen)) {
      for (std::size_t i = 0; i < mem::MemParams::kElems32; ++i) {
        if (soft_z.u32(i) != bat_z.u32(i)) {
          report_divergence(op, "z32", i, soft_z.u32(i), bat_z.u32(i));
        }
      }
    } else {
      for (std::size_t i = 0; i < mem::MemParams::kElems64; ++i) {
        if (soft_z.u64(i) != bat_z.u64(i)) {
          report_divergence(op, "z64", i, soft_z.u64(i), bat_z.u64(i));
        }
      }
    }
  }
  if (soft.scalar_result.bits() != bat.scalar_result.bits()) {
    report_divergence(op, "scalar", 0, soft.scalar_result.bits(),
                      bat.scalar_result.bits());
  }
  if (soft.reduction_index != bat.reduction_index) {
    report_divergence(op, "index", 0, soft.reduction_index,
                      bat.reduction_index);
  }
  if (flags_bits(soft.flags) != flags_bits(bat.flags)) {
    report_divergence(op, "flags", 0, flags_bits(soft.flags),
                      flags_bits(bat.flags));
  }
  if (soft.flops != bat.flops) {
    report_divergence(op, "flops", 0, soft.flops, bat.flops);
  }
}

}  // namespace

bool is_two_operand(VectorForm f) {
  switch (f) {
    case VectorForm::vadd:
    case VectorForm::vsub:
    case VectorForm::vmul:
    case VectorForm::vsaxpy:
    case VectorForm::vdot:
    case VectorForm::vcmp_le:
      return true;
    default:
      return false;
  }
}

bool is_reduction(VectorForm f) {
  return f == VectorForm::vsum || f == VectorForm::vdot ||
         f == VectorForm::vmaxval;
}

bool uses_both_pipes(VectorForm f) {
  return f == VectorForm::vsaxpy || f == VectorForm::vdot;
}

std::optional<std::string> refusal(const VectorOp& op) {
  const bool f64 = op.prec == Precision::f64;
  if (!f64 && (op.form == VectorForm::vcvt_widen ||
               op.form == VectorForm::vcvt_narrow)) {
    return std::string(to_string(op.form)) + " converts at f64 only, not f32";
  }
  const std::size_t limit =
      f64 ? mem::MemParams::kElems64 : mem::MemParams::kElems32;
  if (op.n == 0 || op.n > limit) {
    return "element count " + std::to_string(op.n) + " is outside 1.." +
           std::to_string(limit) + " for an " + (f64 ? "f64" : "f32") +
           " row";
  }
  for (const std::size_t row : {op.row_x, op.row_y, op.row_z}) {
    if (row >= mem::MemParams::kRows) {
      return "row " + std::to_string(row) + " is outside the " +
             std::to_string(mem::MemParams::kRows) + "-row memory";
    }
  }
  return std::nullopt;
}

std::uint64_t flops_for(const VectorOp& op) {
  return static_cast<std::uint64_t>(op.n) *
         (uses_both_pipes(op.form) ? 2U : 1U);
}

const char* to_string(VpuMode m) {
  switch (m) {
    case VpuMode::softfloat: return "softfloat";
    case VpuMode::batch: return "batch";
    case VpuMode::checked: return "checked";
  }
  return "?";
}

std::optional<VpuMode> parse_vpu_mode(std::string_view s) {
  if (s == "softfloat") {
    return VpuMode::softfloat;
  }
  if (s == "batch") {
    return VpuMode::batch;
  }
  if (s == "checked") {
    return VpuMode::checked;
  }
  return std::nullopt;
}

VectorUnit::VectorUnit(mem::NodeMemory& memory)
    : VectorUnit(memory, Config{}) {}

VectorUnit::VectorUnit(mem::NodeMemory& memory, Config cfg)
    : memory_{&memory}, cfg_{cfg} {}

sim::SimTime VectorUnit::duration_of(const VectorOp& op) const {
  using sim::SimTime;
  const SimTime cycle = VpuParams::cycle();
  const bool two_op = is_two_operand(op.form);

  // Operand row loads: with the dual-bank organisation both input vectors
  // arrive in one row-access time (one from each bank); a single-bank
  // machine (ablation) or two operands in the same bank serialise.
  SimTime load = mem::MemParams::row_access();
  if (two_op) {
    const bool parallel_banks =
        cfg_.dual_bank && mem::NodeMemory::bank_of_row(op.row_x) !=
                              mem::NodeMemory::bank_of_row(op.row_y);
    if (!parallel_banks) {
      load = 2 * mem::MemParams::row_access();
    }
  }

  // Element beat: one result per cycle; a single-bank machine halves the
  // operand feed rate of two-input forms.
  const std::int64_t beat_cycles =
      (two_op && !cfg_.dual_bank) ? 2 : 1;
  const SimTime stream =
      static_cast<std::int64_t>(op.n) * beat_cycles * cycle;

  const SimTime fill =
      static_cast<std::int64_t>(pipeline_depth(op.form, op.prec)) * cycle;

  SimTime tail{};
  if (is_reduction(op.form)) {
    tail = static_cast<std::int64_t>(VpuParams::reduction_drain_cycles()) *
           cycle;
  } else {
    tail = mem::MemParams::row_access();  // final result row store
  }
  return load + fill + stream + tail;
}

OpResult VectorUnit::execute(const VectorOp& op) {
  if (const std::optional<std::string> why = refusal(op)) {
    throw std::invalid_argument("VectorUnit: " + *why);
  }
  // Operand rows load once and the result row stores once regardless of
  // mode, so the memory's row_loads/row_stores are mode-independent (the
  // serve-layer byte-identical-dump contract).
  VectorRegister vx;
  VectorRegister vy;
  VectorRegister vz;
  memory_->load_row(op.row_x, vx);
  if (is_two_operand(op.form)) {
    memory_->load_row(op.row_y, vy);
  }
  OpResult r;
  switch (cfg_.mode) {
    case VpuMode::softfloat:
      r = op.prec == Precision::f64 ? execute_soft<T64>(op, vx, vy, vz)
                                    : execute_soft<T32>(op, vx, vy, vz);
      break;
    case VpuMode::batch:
      r = op.prec == Precision::f64 ? batch::execute64(op, vx, vy, vz)
                                    : batch::execute32(op, vx, vy, vz);
      break;
    case VpuMode::checked: {
      VectorRegister bz;
      const OpResult bat = op.prec == Precision::f64
                               ? batch::execute64(op, vx, vy, bz)
                               : batch::execute32(op, vx, vy, bz);
      r = op.prec == Precision::f64 ? execute_soft<T64>(op, vx, vy, vz)
                                    : execute_soft<T32>(op, vx, vy, vz);
      check_divergence(op, r, vz, bat, bz);
      break;
    }
  }
  if (!is_reduction(op.form)) {
    memory_->store_row(op.row_z, vz);
  }
  r.duration = duration_of(op);
  stats_.add(kOps, 1);
  stats_.add(kFlops, r.flops);
  // Pipe result counts: chained forms produce one result per pipe per
  // element; pure multiplier forms keep the adder idle and vice versa.
  const bool both = uses_both_pipes(op.form);
  const bool mul_only =
      op.form == VectorForm::vmul || op.form == VectorForm::vsmul;
  const auto n = static_cast<std::uint64_t>(op.n);
  if (both || !mul_only) {
    stats_.add(kAdderResults, n);
  }
  if (both || mul_only) {
    stats_.add(kMulResults, n);
  }
  if (is_two_operand(op.form) &&
      mem::NodeMemory::bank_of_row(op.row_x) ==
          mem::NodeMemory::bank_of_row(op.row_y)) {
    stats_.add(kBankConflicts, 1);
  }
  stats_.add(kBusy, r.duration);
  const auto f = static_cast<std::size_t>(op.form);
  stats_.add(f < kVectorForms ? kBusyForm + f : kBusyUnknown, r.duration);
  return r;
}

}  // namespace fpst::vpu
