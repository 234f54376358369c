#include "vpu/vpu.hpp"

#include <array>
#include <cstdio>
#include <stdexcept>

#include "vpu/batch.hpp"

namespace fpst::vpu {

namespace {

using fp::Flags;
using fp::Ordering;
using fp::T32;
using fp::T64;

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
T64 collapse_partials64(const std::array<T64, VpuParams::kAdderStages>& p,
                        Flags& fl) {
  const T64 q0 = add(p[0], p[1], fl);
  const T64 q1 = add(p[2], p[3], fl);
  const T64 q2 = add(p[4], p[5], fl);
  return add(add(q0, q1, fl), q2, fl);
}

T32 collapse_partials32(const std::array<T32, VpuParams::kAdderStages>& p,
                        Flags& fl) {
  const T32 q0 = add(p[0], p[1], fl);
  const T32 q1 = add(p[2], p[3], fl);
  const T32 q2 = add(p[4], p[5], fl);
  return add(add(q0, q1, fl), q2, fl);
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
                      const mem::VectorRegister& soft_z, const OpResult& bat,
                      const mem::VectorRegister& bat_z) {
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

/// "busy.<FORM>": the per-form busy accumulator's counter name.
std::string_view form_busy_name(VectorForm f) {
  static const std::array<std::string, kVectorForms> names = [] {
    std::array<std::string, kVectorForms> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = "busy.";
      out[i] += to_string(static_cast<VectorForm>(i));
    }
    return out;
  }();
  return names[static_cast<std::size_t>(f)];
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

void VectorUnit::reset_stats() {
  total_ops_ = 0;
  total_flops_ = 0;
  total_busy_ = sim::SimTime{};
}

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
  const std::size_t max_n = op.prec == Precision::f64
                                ? mem::MemParams::kElems64
                                : mem::MemParams::kElems32;
  // Conversions read/write mixed widths; the 64-bit side bounds them.
  const std::size_t limit = (op.form == VectorForm::vcvt_widen ||
                             op.form == VectorForm::vcvt_narrow)
                                ? mem::MemParams::kElems64
                                : max_n;
  if (op.n == 0 || op.n > limit) {
    throw std::invalid_argument("VectorUnit: bad element count");
  }
  if (op.row_x >= mem::MemParams::kRows ||
      op.row_y >= mem::MemParams::kRows ||
      op.row_z >= mem::MemParams::kRows) {
    throw std::invalid_argument("VectorUnit: row out of range");
  }
  // Operand rows load once and the result row stores once regardless of
  // mode, so row_accesses_ and the perf sink's row_loads/row_stores are
  // mode-independent (the serve-layer byte-identical-dump contract).
  mem::VectorRegister vx;
  mem::VectorRegister vy;
  mem::VectorRegister vz;
  memory_->load_row(op.row_x, vx);
  if (is_two_operand(op.form)) {
    memory_->load_row(op.row_y, vy);
  }
  OpResult r;
  switch (cfg_.mode) {
    case VpuMode::softfloat:
      r = op.prec == Precision::f64 ? execute64(op, vx, vy, vz)
                                    : execute32(op, vx, vy, vz);
      break;
    case VpuMode::batch:
      r = op.prec == Precision::f64 ? batch::execute64(op, vx, vy, vz)
                                    : batch::execute32(op, vx, vy, vz);
      break;
    case VpuMode::checked: {
      mem::VectorRegister bz;
      const OpResult bat = op.prec == Precision::f64
                               ? batch::execute64(op, vx, vy, bz)
                               : batch::execute32(op, vx, vy, bz);
      r = op.prec == Precision::f64 ? execute64(op, vx, vy, vz)
                                    : execute32(op, vx, vy, vz);
      check_divergence(op, r, vz, bat, bz);
      break;
    }
  }
  if (!is_reduction(op.form)) {
    memory_->store_row(op.row_z, vz);
  }
  r.duration = duration_of(op);
  ++total_ops_;
  total_flops_ += r.flops;
  total_busy_ += r.duration;
  if (perf::PerfSink* sink = perf_.sink()) {
    Slots& s = perf_.slots();
    s.ops.add(*sink, "ops", 1);
    s.flops.add(*sink, "flops", r.flops);
    // Pipe result counts: chained forms produce one result per pipe per
    // element; pure multiplier forms keep the adder idle and vice versa.
    const bool both = uses_both_pipes(op.form);
    const bool mul_only =
        op.form == VectorForm::vmul || op.form == VectorForm::vsmul;
    const auto n = static_cast<std::uint64_t>(op.n);
    if (both || !mul_only) {
      s.adder_results.add(*sink, "adder_results", n);
    }
    if (both || mul_only) {
      s.mul_results.add(*sink, "mul_results", n);
    }
    if (is_two_operand(op.form) &&
        mem::NodeMemory::bank_of_row(op.row_x) ==
            mem::NodeMemory::bank_of_row(op.row_y)) {
      s.bank_conflicts.add(*sink, "bank_conflicts", 1);
    }
    s.busy.add(*sink, "busy", r.duration);
    if (const auto f = static_cast<std::size_t>(op.form); f < kVectorForms) {
      s.form_busy[f].add(*sink, form_busy_name(op.form), r.duration);
    } else {
      sink->busy("busy.?") += r.duration;  // a form no enumerator names
    }
  }
  return r;
}

OpResult VectorUnit::execute64(const VectorOp& op,
                               const mem::VectorRegister& vx,
                               const mem::VectorRegister& vy,
                               mem::VectorRegister& vz) const {
  OpResult res;
  Flags& fl = res.flags;
  const T64 s = op.scalar;

  std::array<T64, VpuParams::kAdderStages> partials{};
  T64 best{};
  std::size_t best_i = 0;

  for (std::size_t i = 0; i < op.n; ++i) {
    const T64 x = vx.f64(i);
    switch (op.form) {
      case VectorForm::vadd:
        vz.set_f64(i, add(x, vy.f64(i), fl));
        break;
      case VectorForm::vsub:
        vz.set_f64(i, sub(x, vy.f64(i), fl));
        break;
      case VectorForm::vmul:
        vz.set_f64(i, mul(x, vy.f64(i), fl));
        break;
      case VectorForm::vsadd:
        vz.set_f64(i, add(s, x, fl));
        break;
      case VectorForm::vsmul:
        vz.set_f64(i, mul(s, x, fl));
        break;
      case VectorForm::vsaxpy:
        vz.set_f64(i, add(mul(s, x, fl), vy.f64(i), fl));
        break;
      case VectorForm::vneg:
        vz.set_f64(i, x.negated());
        break;
      case VectorForm::vabs:
        vz.set_f64(i, x.abs());
        break;
      case VectorForm::vsum:
        partials[i % partials.size()] =
            add(partials[i % partials.size()], x, fl);
        break;
      case VectorForm::vdot:
        partials[i % partials.size()] = add(
            partials[i % partials.size()], mul(x, vy.f64(i), fl), fl);
        break;
      case VectorForm::vmaxval: {
        if (i == 0 || compare(x, best, fl) == Ordering::greater) {
          best = x;
          best_i = i;
        }
        break;
      }
      case VectorForm::vcmp_le: {
        const Ordering o = compare(x, vy.f64(i), fl);
        const bool le = o == Ordering::less || o == Ordering::equal;
        vz.set_f64(i, T64::from_double(le ? 1.0 : 0.0));
        break;
      }
      case VectorForm::vcvt_widen: {
        // x row holds 32-bit elements; output 64-bit. Conversion of a
        // signalling NaN raises invalid (quieted, payload preserved).
        vz.set_f64(i, fp::T32::from_bits(vx.u32(i)).widened(fl));
        break;
      }
      case VectorForm::vcvt_narrow: {
        vz.set_u32(i, fp::T32::narrowed(x, fl).bits());
        break;
      }
    }
  }

  if (op.form == VectorForm::vsum || op.form == VectorForm::vdot) {
    res.scalar_result = collapse_partials64(partials, fl);
  } else if (op.form == VectorForm::vmaxval) {
    res.scalar_result = best;
    res.reduction_index = best_i;
  }
  res.flops = flops_for(op);
  return res;
}

OpResult VectorUnit::execute32(const VectorOp& op,
                               const mem::VectorRegister& vx,
                               const mem::VectorRegister& vy,
                               mem::VectorRegister& vz) const {
  OpResult res;
  Flags& fl = res.flags;
  T32 s = T32::narrowed(op.scalar, fl);

  std::array<T32, VpuParams::kAdderStages> partials{};
  T32 best{};
  std::size_t best_i = 0;

  for (std::size_t i = 0; i < op.n; ++i) {
    const T32 x = vx.f32(i);
    switch (op.form) {
      case VectorForm::vadd:
        vz.set_f32(i, add(x, vy.f32(i), fl));
        break;
      case VectorForm::vsub:
        vz.set_f32(i, sub(x, vy.f32(i), fl));
        break;
      case VectorForm::vmul:
        vz.set_f32(i, mul(x, vy.f32(i), fl));
        break;
      case VectorForm::vsadd:
        vz.set_f32(i, add(s, x, fl));
        break;
      case VectorForm::vsmul:
        vz.set_f32(i, mul(s, x, fl));
        break;
      case VectorForm::vsaxpy:
        vz.set_f32(i, add(mul(s, x, fl), vy.f32(i), fl));
        break;
      case VectorForm::vneg:
        vz.set_f32(i, x.negated());
        break;
      case VectorForm::vabs:
        vz.set_f32(i, x.abs());
        break;
      case VectorForm::vsum:
        partials[i % partials.size()] =
            add(partials[i % partials.size()], x, fl);
        break;
      case VectorForm::vdot:
        partials[i % partials.size()] = add(
            partials[i % partials.size()], mul(x, vy.f32(i), fl), fl);
        break;
      case VectorForm::vmaxval: {
        if (i == 0 || compare(x, best, fl) == Ordering::greater) {
          best = x;
          best_i = i;
        }
        break;
      }
      case VectorForm::vcmp_le: {
        const Ordering o = compare(x, vy.f32(i), fl);
        const bool le = o == Ordering::less || o == Ordering::equal;
        vz.set_f32(i, T32::from_float(le ? 1.0f : 0.0f));
        break;
      }
      case VectorForm::vcvt_widen:
      case VectorForm::vcvt_narrow:
        // Conversions are precision-crossing; dispatched via the f64 path.
        throw std::invalid_argument(
            "VectorUnit: conversions dispatch with prec=f64");
    }
  }

  if (op.form == VectorForm::vsum || op.form == VectorForm::vdot) {
    res.scalar_result = collapse_partials32(partials, fl).widened();
  } else if (op.form == VectorForm::vmaxval) {
    res.scalar_result = best.widened();
    res.reduction_index = best_i;
  }
  res.flops = flops_for(op);
  return res;
}

}  // namespace fpst::vpu
