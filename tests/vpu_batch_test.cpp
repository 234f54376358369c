// The VPU batch execution arm: cross-validation against the softfloat
// oracle, the fp/host_bridge boundary-case regressions (each pinned to the
// exact bit patterns that provoked it), and the mode-plumbing contract
// (results, flags, timing and flops are identical in every VpuMode).
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "fp/host_bridge.hpp"
#include "fp/softfloat.hpp"
#include "kernels/kernels.hpp"
#include "mem/memory.hpp"
#include "sim/bits.hpp"
#include "vpu/batch.hpp"
#include "vpu/vpu.hpp"

namespace {

using namespace fpst;
using fp::Flags;
using fp::kBinary32;
using fp::kBinary64;
using vpu::Precision;
using vpu::VectorForm;
using vpu::VectorOp;
using vpu::VectorUnit;
using vpu::VpuMode;

/// Adversarial binary64 operand: heavy weighting of the divergence classes
/// the bridge routes to the oracle (NaNs, signed zeros, denormals, the
/// flush boundary, overflow territory) plus fully random normals.
std::uint64_t fuzz_operand64(std::uint64_t& rng) {
  const std::uint64_t r = bits::splitmix64_next(rng);
  const std::uint64_t sign = (r & 1) ? fp::host::kSign64 : 0;
  const std::uint64_t mant = bits::splitmix64_next(rng) & 0x000fffffffffffffULL;
  switch ((r >> 1) % 12) {
    case 0: return sign;                                // +/- 0
    case 1: return sign | (mant | 1);                   // denormal
    case 2: return sign | 0x0010000000000000ULL;        // smallest normal
    case 3: return sign | 0x7ff0000000000000ULL;        // +/- inf
    case 4: return sign | 0x7ff8000000000000ULL | mant; // quiet NaN
    case 5:                                             // signalling NaN
      return sign | 0x7ff0000000000000ULL |
             ((mant & 0x0007ffffffffffffULL) | 1);
    case 6: {  // just above the flush boundary: products land in the
               // oracle-fallback window below 2^-968
      const std::uint64_t biased = 1 + (bits::splitmix64_next(rng) % 120);
      return sign | (biased << 52) | mant;
    }
    case 7: {  // overflow territory
      const std::uint64_t biased = 1950 + (bits::splitmix64_next(rng) % 96);
      return sign | (biased << 52) | mant;
    }
    case 8: {  // near 1.0: exercises exact sums/cancellation
      const std::uint64_t biased = 1020 + (bits::splitmix64_next(rng) % 8);
      return sign | (biased << 52) | (mant & 0xffffULL);
    }
    default: {  // random normal, full exponent range
      const std::uint64_t biased = 1 + (bits::splitmix64_next(rng) % 2046);
      return sign | (biased << 52) | mant;
    }
  }
}

std::uint32_t fuzz_operand32(std::uint64_t& rng) {
  const std::uint64_t r = bits::splitmix64_next(rng);
  const std::uint32_t sign = (r & 1) ? fp::host::kSign32 : 0;
  const std::uint32_t mant =
      static_cast<std::uint32_t>(bits::splitmix64_next(rng)) & 0x007fffffU;
  switch ((r >> 1) % 12) {
    case 0: return sign;
    case 1: return sign | (mant | 1);
    case 2: return sign | 0x00800000U;
    case 3: return sign | 0x7f800000U;
    case 4: return sign | 0x7fc00000U | mant;
    case 5: return sign | 0x7f800000U | ((mant & 0x003fffffU) | 1);
    case 6: {
      const std::uint32_t biased =
          1 + static_cast<std::uint32_t>(bits::splitmix64_next(rng) % 40);
      return sign | (biased << 23) | mant;
    }
    case 7: {
      const std::uint32_t biased =
          230 + static_cast<std::uint32_t>(bits::splitmix64_next(rng) % 24);
      return sign | (biased << 23) | mant;
    }
    case 8: {
      const std::uint32_t biased =
          124 + static_cast<std::uint32_t>(bits::splitmix64_next(rng) % 8);
      return sign | (biased << 23) | (mant & 0xffU);
    }
    default: {
      const std::uint32_t biased =
          1 + static_cast<std::uint32_t>(bits::splitmix64_next(rng) % 254);
      return sign | (biased << 23) | mant;
    }
  }
}

constexpr VectorForm kAllForms[] = {
    VectorForm::vadd,    VectorForm::vsub,     VectorForm::vmul,
    VectorForm::vsadd,   VectorForm::vsmul,    VectorForm::vsaxpy,
    VectorForm::vneg,    VectorForm::vabs,     VectorForm::vsum,
    VectorForm::vdot,    VectorForm::vmaxval,  VectorForm::vcmp_le,
    VectorForm::vcvt_widen, VectorForm::vcvt_narrow};

int fuzz_cases() {
  if (const char* env = std::getenv("FPST_FUZZ_CASES")) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 10000;
}

// ------------------------------------------------- cross-validation fuzzer

// Every vector form x precision x adversarial operand mix, executed in
// `checked` mode: the VectorUnit itself runs the batch arm and the
// softfloat oracle on identical operands and throws naming the first
// diverging bit pattern. A divergence is always a bug — in the batch arm,
// the bridge's fast-path proofs, or the oracle itself.
TEST(VpuBatchFuzz, CheckedModeNeverDivergesOnAdversarialOperands) {
  mem::NodeMemory memory;
  VectorUnit vu{memory, {.dual_bank = true, .mode = VpuMode::checked}};
  std::uint64_t rng = 0x1986'0704'1234'5678ULL;  // fixed seed: reproducible
  const int cases = fuzz_cases();

  std::uint64_t ops_with_flags = 0;
  std::uint64_t reductions = 0;
  for (int c = 0; c < cases; ++c) {
    const VectorForm form =
        kAllForms[bits::splitmix64_next(rng) % std::size(kAllForms)];
    const bool conversion = form == VectorForm::vcvt_widen ||
                            form == VectorForm::vcvt_narrow;
    const Precision prec = conversion || (bits::splitmix64_next(rng) & 1)
                               ? Precision::f64
                               : Precision::f32;

    VectorOp op;
    op.form = form;
    op.prec = prec;
    const std::size_t limit = prec == Precision::f64 || conversion
                                  ? mem::MemParams::kElems64
                                  : mem::MemParams::kElems32;
    op.n = 1 + bits::splitmix64_next(rng) % limit;
    op.row_x = bits::splitmix64_next(rng) % mem::MemParams::kRows;
    op.row_y = bits::splitmix64_next(rng) % mem::MemParams::kRows;
    op.row_z = bits::splitmix64_next(rng) % mem::MemParams::kRows;
    op.scalar = fp::T64::from_bits(fuzz_operand64(rng));

    // vcvt_widen reads 32-bit elements from row_x; every other f64 form
    // reads 64-bit ones. f32 forms read 32-bit elements from both rows.
    mem::VectorRegister vx;
    mem::VectorRegister vy;
    const bool x32 =
        prec == Precision::f32 || form == VectorForm::vcvt_widen;
    for (std::size_t i = 0; i < mem::MemParams::kElems32; ++i) {
      if (x32) {
        vx.set_u32(i, fuzz_operand32(rng));
      } else if (i < mem::MemParams::kElems64) {
        vx.set_u64(i, fuzz_operand64(rng));
      }
      if (prec == Precision::f32) {
        vy.set_u32(i, fuzz_operand32(rng));
      } else if (i < mem::MemParams::kElems64) {
        vy.set_u64(i, fuzz_operand64(rng));
      }
    }
    memory.store_row(op.row_x, vx);
    if (op.row_y != op.row_x) {
      memory.store_row(op.row_y, vy);
    }

    try {
      const vpu::OpResult r = vu.execute(op);
      if (r.flags.any()) {
        ++ops_with_flags;
      }
      if (vpu::is_reduction(form)) {
        ++reductions;
      }
    } catch (const std::runtime_error& e) {
      FAIL() << "case " << c << ": " << e.what();
    }
  }
  // The generator must actually reach the interesting machinery: most ops
  // see at least one special operand, and reductions exercise the partial
  // collapse. Guards the fuzzer against silently degenerating.
  EXPECT_GT(ops_with_flags, static_cast<std::uint64_t>(cases) / 4);
  EXPECT_GT(reductions, static_cast<std::uint64_t>(cases) / 10);
}

// --------------------------------------- host-bridge boundary regressions

// Exact product 2^-1022 - 2^-1075 (operands found by the fuzzer's ancestor
// during bridge construction): the host rounds the round-to-nearest tie up
// across the flush boundary to DBL_MIN, the machine represents the product
// exactly at full precision and flushes it to +0 with underflow+inexact.
// The bridge must route results landing on the smallest normal to the
// oracle instead of trusting the host.
TEST(HostBridge, Mul64FlushBoundaryTieFollowsOracleNotHost) {
  const std::uint64_t a = 0x200a530d9f000000ULL;
  const std::uint64_t b = 0x1ff3731a10000000ULL;
  const double naive = std::bit_cast<double>(a) * std::bit_cast<double>(b);
  ASSERT_EQ(std::bit_cast<std::uint64_t>(naive), 0x0010000000000000ULL)
      << "host no longer rounds this tie up; pick new operands";

  Flags hf;
  Flags sf;
  const std::uint64_t bridged = fp::host::mul64(a, b, hf);
  const std::uint64_t oracle = fp::detail::mul(kBinary64, a, b, sf);
  EXPECT_EQ(oracle, 0ULL);  // flushed to +0
  EXPECT_EQ(bridged, oracle);
  EXPECT_TRUE(sf.underflow && sf.inexact);
  EXPECT_EQ(hf.underflow, sf.underflow);
  EXPECT_EQ(hf.inexact, sf.inexact);
  EXPECT_EQ(hf.invalid, sf.invalid);
  EXPECT_EQ(hf.overflow, sf.overflow);
}

// The binary32 twin: 0x207fffff * 0x1f800000 has the exact product
// 2^-126 - 2^-150, a host tie that rounds up to FLT_MIN (0x00800000)
// while the machine flushes to +0.
TEST(HostBridge, Mul32FlushBoundaryTieFollowsOracleNotHost) {
  const std::uint32_t a = 0x207fffffU;
  const std::uint32_t b = 0x1f800000U;
  Flags hf;
  Flags sf;
  const std::uint32_t bridged = fp::host::mul32(a, b, hf);
  const std::uint32_t oracle =
      static_cast<std::uint32_t>(fp::detail::mul(kBinary32, a, b, sf));
  EXPECT_EQ(oracle, 0U);
  EXPECT_EQ(bridged, oracle);
  EXPECT_TRUE(sf.underflow && sf.inexact);
  EXPECT_EQ(hf.underflow, sf.underflow);
  EXPECT_EQ(hf.inexact, sf.inexact);
}

// Same window through the narrowing conversion: the double holding exactly
// 2^-126 - 2^-150 (0x1.fffffep-127) narrows to FLT_MIN on the host and
// flushes to +0 on the machine.
TEST(HostBridge, NarrowFlushBoundaryTieFollowsOracleNotHost) {
  const std::uint64_t a = std::bit_cast<std::uint64_t>(0x1.fffffep-127);
  ASSERT_EQ(std::bit_cast<std::uint32_t>(
                static_cast<float>(std::bit_cast<double>(a))),
            0x00800000U);
  Flags hf;
  Flags sf;
  const std::uint32_t bridged = fp::host::narrow(a, hf);
  const std::uint32_t oracle =
      static_cast<std::uint32_t>(fp::detail::narrow(a, sf));
  EXPECT_EQ(oracle, 0U);
  EXPECT_EQ(bridged, oracle);
  EXPECT_TRUE(sf.underflow && sf.inexact);
  EXPECT_EQ(hf.underflow, sf.underflow);
  EXPECT_EQ(hf.inexact, sf.inexact);
}

// The machine never propagates NaN payloads: any NaN result is the
// canonical positive quiet NaN 0x7ff8000000000000, and only signalling
// operands raise invalid. The host would propagate 0x7ff800000000beef.
TEST(HostBridge, NaNResultsAreCanonicalAndPayloadFree) {
  const std::uint64_t payload_qnan = 0x7ff800000000beefULL;
  const std::uint64_t one = 0x3ff0000000000000ULL;
  Flags fl;
  EXPECT_EQ(fp::host::add64(payload_qnan, one, fl), 0x7ff8000000000000ULL);
  EXPECT_FALSE(fl.invalid);

  const std::uint64_t snan = 0x7ff0000000000001ULL;
  EXPECT_EQ(fp::host::mul64(snan, one, fl), 0x7ff8000000000000ULL);
  EXPECT_TRUE(fl.invalid);
}

// Signed-zero rules: -0 + -0 = -0, +0 + -0 = +0, exact cancellation is +0;
// multiplication signs by XOR even when flushing.
TEST(HostBridge, SignedZeroRulesMatchOracle) {
  const std::uint64_t pz = 0;
  const std::uint64_t nz = fp::host::kSign64;
  const std::uint64_t one = 0x3ff0000000000000ULL;
  Flags fl;
  EXPECT_EQ(fp::host::add64(nz, nz, fl), nz);
  EXPECT_EQ(fp::host::add64(pz, nz, fl), pz);
  EXPECT_EQ(fp::host::sub64(one, one, fl), pz);  // exact cancellation
  EXPECT_FALSE(fl.any());

  // -denormal * +denormal: both operands read as signed zero, result -0.
  Flags mf;
  EXPECT_EQ(fp::host::mul64(0x8000000000000001ULL, 1ULL, mf), nz);
  EXPECT_FALSE(mf.any());
}

// Denormal operands flush on read with no flags; a denormal *result*
// flushes with underflow+inexact.
TEST(HostBridge, DenormalInputsFlushSilentlyResultsFlushLoudly) {
  const std::uint64_t denorm = 0x0000000000000001ULL;
  const std::uint64_t one = 0x3ff0000000000000ULL;
  Flags in_fl;
  EXPECT_EQ(fp::host::add64(denorm, one, in_fl), one);
  EXPECT_FALSE(in_fl.any());

  // 2^-1000 * 2^-100 = 2^-1100: below the denormal range entirely.
  const std::uint64_t a = (23ULL) << 52;   // 2^-1000
  const std::uint64_t b = (923ULL) << 52;  // 2^-100
  Flags out_fl;
  EXPECT_EQ(fp::host::mul64(a, b, out_fl), 0ULL);
  EXPECT_TRUE(out_fl.underflow);
  EXPECT_TRUE(out_fl.inexact);
  EXPECT_FALSE(out_fl.invalid);
}

// Found by the fuzzer (seed 0x1986070412345678, case 611, VSUB f32):
// 0x5b998002 (~1.2*2^56) - 0x3f000058 (~0.5). The exact difference needs
// ~80 bits, so even the binary64 intermediate sum rounds (back to the big
// operand) and a naive `double(r) != s` inexact test sees nothing. The
// bridge must take the Fast2Sum residual of the binary64 addition as well.
// The result bits were never wrong — 53 >= 2*24+2 makes the double
// rounding innocuous — only the inexact flag was.
TEST(HostBridge, Add32WideExponentGapStillRaisesInexact) {
  Flags hf;
  Flags sf;
  const std::uint32_t a = 0x5b998002U;
  const std::uint32_t b = 0x3f000058U;
  const std::uint32_t bridged = fp::host::sub32(a, b, hf);
  const std::uint32_t oracle =
      static_cast<std::uint32_t>(fp::detail::sub(kBinary32, a, b, sf));
  EXPECT_EQ(bridged, oracle);
  EXPECT_EQ(oracle, a);  // rounds back to the big operand
  EXPECT_TRUE(sf.inexact);
  EXPECT_TRUE(hf.inexact);
  EXPECT_FALSE(hf.underflow || hf.overflow || hf.invalid);
}

// Fast2Sum inexact detection: 1 + 2^-53 is a tie that rounds to 1.0 and
// must raise inexact; 1 + 2^-52 is exact and must not.
TEST(HostBridge, AdditionInexactViaFast2Sum) {
  const std::uint64_t one = 0x3ff0000000000000ULL;
  const std::uint64_t tiny_tie = (970ULL) << 52;    // 2^-53
  const std::uint64_t tiny_exact = (971ULL) << 52;  // 2^-52
  Flags tie_fl;
  EXPECT_EQ(fp::host::add64(one, tiny_tie, tie_fl), one);
  EXPECT_TRUE(tie_fl.inexact);
  Flags exact_fl;
  EXPECT_EQ(fp::host::add64(one, tiny_exact, exact_fl),
            0x3ff0000000000001ULL);
  EXPECT_FALSE(exact_fl.any());
}

// ---------------------------------------------------- mode plumbing

/// Run one op on a fresh memory/unit pair in the given mode.
vpu::OpResult run_op(VpuMode mode, const VectorOp& op,
                     const mem::VectorRegister& vx,
                     const mem::VectorRegister& vy,
                     mem::VectorRegister* out = nullptr) {
  mem::NodeMemory memory;
  VectorUnit vu{memory, {.dual_bank = true, .mode = mode}};
  memory.store_row(op.row_x, vx);
  memory.store_row(op.row_y, vy);
  const vpu::OpResult r = vu.execute(op);
  if (out != nullptr) {
    memory.load_row(op.row_z, *out);
  }
  return r;
}

TEST(VpuMode, DurationFlagsAndFlopsAreModeIndependent) {
  std::uint64_t rng = 7;
  mem::VectorRegister vx;
  mem::VectorRegister vy;
  for (std::size_t i = 0; i < mem::MemParams::kElems64; ++i) {
    vx.set_u64(i, fuzz_operand64(rng));
    vy.set_u64(i, fuzz_operand64(rng));
  }
  for (const VectorForm form : kAllForms) {
    VectorOp op;
    op.form = form;
    op.prec = Precision::f64;
    op.n = 64;
    op.row_x = 3;
    op.row_y = 300;
    op.row_z = 700;
    op.scalar = fp::T64::from_double(1.5);

    mem::VectorRegister soft_z;
    mem::VectorRegister batch_z;
    const vpu::OpResult soft =
        run_op(VpuMode::softfloat, op, vx, vy, &soft_z);
    const vpu::OpResult batch = run_op(VpuMode::batch, op, vx, vy, &batch_z);
    const vpu::OpResult checked = run_op(VpuMode::checked, op, vx, vy);

    EXPECT_EQ(soft.duration.ps(), batch.duration.ps()) << to_string(form);
    EXPECT_EQ(soft.duration.ps(), checked.duration.ps()) << to_string(form);
    EXPECT_EQ(soft.flops, batch.flops) << to_string(form);
    EXPECT_EQ(soft.scalar_result.bits(), batch.scalar_result.bits())
        << to_string(form);
    EXPECT_EQ(soft.reduction_index, batch.reduction_index)
        << to_string(form);
    EXPECT_EQ(soft_z.raw(), batch_z.raw()) << to_string(form);
  }
}

TEST(VpuMode, ParseAndToStringRoundTrip) {
  EXPECT_EQ(vpu::parse_vpu_mode("softfloat"), VpuMode::softfloat);
  EXPECT_EQ(vpu::parse_vpu_mode("batch"), VpuMode::batch);
  EXPECT_EQ(vpu::parse_vpu_mode("checked"), VpuMode::checked);
  EXPECT_FALSE(vpu::parse_vpu_mode("fast").has_value());
  EXPECT_FALSE(vpu::parse_vpu_mode("").has_value());
  EXPECT_STREQ(vpu::to_string(VpuMode::batch), "batch");
}

// End-to-end: the same SAXPY kernel in all three modes returns identical
// simulated time (the timing model never consults the mode) and identical
// result bytes.
TEST(VpuMode, KernelSaxpyAgreesAcrossModesIncludingTiming) {
  node::NodeConfig soft_cfg;
  node::NodeConfig batch_cfg;
  batch_cfg.vpu_mode = VpuMode::batch;
  node::NodeConfig checked_cfg;
  checked_cfg.vpu_mode = VpuMode::checked;

  const kernels::KernelResult soft =
      kernels::run_saxpy(2, 4096, 2.0, soft_cfg);
  const kernels::KernelResult batch =
      kernels::run_saxpy(2, 4096, 2.0, batch_cfg);
  const kernels::KernelResult checked =
      kernels::run_saxpy(2, 4096, 2.0, checked_cfg);

  EXPECT_EQ(soft.elapsed.ps(), batch.elapsed.ps());
  EXPECT_EQ(soft.elapsed.ps(), checked.elapsed.ps());
  EXPECT_EQ(soft.flops, batch.flops);
  ASSERT_EQ(soft.output.size(), batch.output.size());
  for (std::size_t i = 0; i < soft.output.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soft.output[i]),
              std::bit_cast<std::uint64_t>(batch.output[i]))
        << "element " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(soft.output[i]),
              std::bit_cast<std::uint64_t>(checked.output[i]))
        << "element " << i;
  }
}

// Every shipped kernel, run end-to-end in `checked` mode (which recomputes
// each vector op with both arms and throws on any bit of divergence), must
// reproduce the softfloat run exactly: simulated time, flops, link bytes
// and every output bit. This is the acceptance sweep for the batch arm —
// the kernels between them exercise every vector form, reduction drains,
// physical row moves and the f32 path.
TEST(VpuMode, AllKernelsBitIdenticalInCheckedMode) {
  node::NodeConfig soft_cfg;
  node::NodeConfig checked_cfg;
  checked_cfg.vpu_mode = VpuMode::checked;

  const auto expect_same = [](const char* name,
                              const kernels::KernelResult& soft,
                              const kernels::KernelResult& chk) {
    EXPECT_EQ(soft.elapsed.ps(), chk.elapsed.ps()) << name;
    EXPECT_EQ(soft.flops, chk.flops) << name;
    EXPECT_EQ(soft.link_bytes, chk.link_bytes) << name;
    ASSERT_EQ(soft.output.size(), chk.output.size()) << name;
    for (std::size_t i = 0; i < soft.output.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(soft.output[i]),
                std::bit_cast<std::uint64_t>(chk.output[i]))
          << name << " element " << i;
    }
  };

  expect_same("dot", kernels::run_dot(2, 1 << 12, soft_cfg),
              kernels::run_dot(2, 1 << 12, checked_cfg));
  expect_same("saxpy32", kernels::run_saxpy32(2, 1 << 12, 1.5F, soft_cfg),
              kernels::run_saxpy32(2, 1 << 12, 1.5F, checked_cfg));
  expect_same("matmul", kernels::run_matmul(2, 64, soft_cfg),
              kernels::run_matmul(2, 64, checked_cfg));
  expect_same("fft", kernels::run_fft(2, 256, soft_cfg),
              kernels::run_fft(2, 256, checked_cfg));
  expect_same("gauss", kernels::run_gauss(2, 32, soft_cfg),
              kernels::run_gauss(2, 32, checked_cfg));
  expect_same("laplace", kernels::run_laplace(2, 16, 4, soft_cfg),
              kernels::run_laplace(2, 16, 4, checked_cfg));
  expect_same("sort", kernels::run_distributed_sort(2, 512, soft_cfg),
              kernels::run_distributed_sort(2, 512, checked_cfg));
}

}  // namespace
