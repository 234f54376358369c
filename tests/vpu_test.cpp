// Tests for the vector arithmetic unit: functional results against a host
// reference, the paper's pipeline timing model, flags, reductions, and the
// dual-bank ablation.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "vpu/vpu.hpp"

namespace fpst::vpu {
namespace {

using fp::T64;
using mem::MemParams;
using sim::SimTime;

class VpuTest : public ::testing::Test {
 protected:
  /// Write `v` into row `row` as 64-bit elements.
  void fill_row64(std::size_t row, const std::vector<double>& v) {
    mem::VectorRegister reg;
    for (std::size_t i = 0; i < v.size(); ++i) {
      reg.set_f64(i, T64::from_double(v[i]));
    }
    memory.store_row(row, reg);
  }

  std::vector<double> read_row64(std::size_t row, std::size_t n) {
    mem::VectorRegister reg;
    memory.load_row(row, reg);
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = reg.f64(i).to_double();
    }
    return out;
  }

  static std::vector<double> random_vec(std::size_t n, unsigned seed) {
    std::mt19937_64 rng{seed};
    std::uniform_real_distribution<double> dist(-100.0, 100.0);
    std::vector<double> v(n);
    for (double& x : v) {
      x = dist(rng);
    }
    return v;
  }

  mem::NodeMemory memory;
  VectorUnit vpu{memory};
};

TEST_F(VpuTest, ParamsMatchPaper) {
  EXPECT_EQ(VpuParams::cycle(), SimTime::nanoseconds(125));
  EXPECT_EQ(VpuParams::kAdderStages, 6) << "six-stage adder";
  EXPECT_EQ(VpuParams::kMulStages32, 5) << "five-stage multiplier (32-bit)";
  EXPECT_EQ(VpuParams::kMulStages64, 7) << "seven-stage multiplier (64-bit)";
  EXPECT_DOUBLE_EQ(VpuParams::peak_mflops(), 16.0) << "16 MFLOPS peak";
}

TEST_F(VpuTest, VaddMatchesHost) {
  const std::size_t n = MemParams::kElems64;
  const auto x = random_vec(n, 1);
  const auto y = random_vec(n, 2);
  fill_row64(0, x);    // bank A
  fill_row64(300, y);  // bank B
  const OpResult r = vpu.execute(
      {VectorForm::vadd, Precision::f64, n, 0, 300, 600, T64{}});
  const auto z = read_row64(600, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(z[i], x[i] + y[i]);
  }
  EXPECT_EQ(r.flops, n);
}

TEST_F(VpuTest, SaxpyMatchesHostAndCountsTwoFlopsPerElement) {
  const std::size_t n = 100;
  const auto x = random_vec(n, 3);
  const auto y = random_vec(n, 4);
  const double a = 2.5;
  fill_row64(1, x);
  fill_row64(301, y);
  const OpResult r =
      vpu.execute({VectorForm::vsaxpy, Precision::f64, n, 1, 301, 601,
                   T64::from_double(a)});
  const auto z = read_row64(601, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(z[i], a * x[i] + y[i]) << i;
  }
  EXPECT_EQ(r.flops, 2 * n);
}

TEST_F(VpuTest, ScalarFormsHoldScalarInPipeRegister) {
  const std::size_t n = 16;
  const auto x = random_vec(n, 5);
  fill_row64(2, x);
  const OpResult rm = vpu.execute(
      {VectorForm::vsmul, Precision::f64, n, 2, 0, 602, T64::from_double(3.0)});
  (void)rm;
  auto z = read_row64(602, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(z[i], 3.0 * x[i]);
  }
  vpu.execute({VectorForm::vsadd, Precision::f64, n, 2, 0, 603,
               T64::from_double(-1.5)});
  z = read_row64(603, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(z[i], -1.5 + x[i]);
  }
}

TEST_F(VpuTest, DotProductIsCloseToHostAndReproducible) {
  const std::size_t n = MemParams::kElems64;
  const auto x = random_vec(n, 6);
  const auto y = random_vec(n, 7);
  fill_row64(3, x);
  fill_row64(303, y);
  const VectorOp op{VectorForm::vdot, Precision::f64, n, 3, 303, 0, T64{}};
  const OpResult r1 = vpu.execute(op);
  double host = 0;
  for (std::size_t i = 0; i < n; ++i) {
    host += x[i] * y[i];
  }
  // The feedback reduction uses six interleaved partials, so the result is
  // not bitwise the sequential sum — but it must be close, and identical
  // across runs.
  EXPECT_NEAR(r1.scalar_result.to_double(), host, 1e-9 * std::fabs(host) + 1e-9);
  const OpResult r2 = vpu.execute(op);
  EXPECT_EQ(r1.scalar_result.bits(), r2.scalar_result.bits());
  EXPECT_EQ(r1.flops, 2 * n);
}

TEST_F(VpuTest, SumReductionSmallCasesExact) {
  // With <= 6 elements every element lands in its own partial; the collapse
  // tree is then an exact reassociation of small integers.
  fill_row64(4, {1, 2, 3, 4, 5, 6});
  const OpResult r = vpu.execute(
      {VectorForm::vsum, Precision::f64, 6, 4, 0, 0, T64{}});
  EXPECT_EQ(r.scalar_result.to_double(), 21.0);
}

TEST_F(VpuTest, MaxValReportsValueAndIndex) {
  fill_row64(5, {3.0, -8.0, 12.5, 12.5, 1.0});
  const OpResult r = vpu.execute(
      {VectorForm::vmaxval, Precision::f64, 5, 5, 0, 0, T64{}});
  EXPECT_EQ(r.scalar_result.to_double(), 12.5);
  EXPECT_EQ(r.reduction_index, 2u) << "first maximum wins";
}

TEST_F(VpuTest, CompareProducesMask) {
  fill_row64(6, {1.0, 5.0, 3.0});
  fill_row64(306, {2.0, 2.0, 3.0});
  vpu.execute({VectorForm::vcmp_le, Precision::f64, 3, 6, 306, 606, T64{}});
  const auto z = read_row64(606, 3);
  EXPECT_EQ(z[0], 1.0);
  EXPECT_EQ(z[1], 0.0);
  EXPECT_EQ(z[2], 1.0);
}

TEST_F(VpuTest, NegAbsForms) {
  fill_row64(7, {1.5, -2.5, 0.0});
  vpu.execute({VectorForm::vneg, Precision::f64, 3, 7, 0, 607, T64{}});
  auto z = read_row64(607, 3);
  EXPECT_EQ(z[0], -1.5);
  EXPECT_EQ(z[1], 2.5);
  vpu.execute({VectorForm::vabs, Precision::f64, 3, 7, 0, 608, T64{}});
  z = read_row64(608, 3);
  EXPECT_EQ(z[0], 1.5);
  EXPECT_EQ(z[1], 2.5);
}

TEST_F(VpuTest, ConversionForms) {
  // Widen: pack 32-bit floats, convert to 64-bit.
  mem::VectorRegister reg;
  for (std::size_t i = 0; i < 8; ++i) {
    reg.set_f32(i, fp::T32::from_float(1.5f * static_cast<float>(i)));
  }
  memory.store_row(8, reg);
  vpu.execute({VectorForm::vcvt_widen, Precision::f64, 8, 8, 0, 609, T64{}});
  const auto z = read_row64(609, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(z[i], 1.5 * static_cast<double>(i));
  }
  // Narrow back.
  vpu.execute({VectorForm::vcvt_narrow, Precision::f64, 8, 609, 0, 610, T64{}});
  mem::VectorRegister out;
  memory.load_row(610, out);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out.f32(i).to_float(), 1.5f * static_cast<float>(i));
  }
}

TEST_F(VpuTest, F32FormsWork) {
  mem::VectorRegister reg;
  const std::size_t n = MemParams::kElems32;
  for (std::size_t i = 0; i < n; ++i) {
    reg.set_f32(i, fp::T32::from_float(static_cast<float>(i) * 0.5f));
  }
  memory.store_row(9, reg);
  memory.store_row(309, reg);
  const OpResult r = vpu.execute(
      {VectorForm::vadd, Precision::f32, n, 9, 309, 611, T64{}});
  (void)r;
  mem::VectorRegister out;
  memory.load_row(611, out);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.f32(i).to_float(), static_cast<float>(i) * 1.0f);
  }
}

TEST_F(VpuTest, FlagsPropagateFromElements) {
  fill_row64(10, {1e308, 1.0});
  fill_row64(310, {1e308, 2.0});
  const OpResult r = vpu.execute(
      {VectorForm::vadd, Precision::f64, 2, 10, 310, 612, T64{}});
  EXPECT_TRUE(r.flags.overflow) << "element 0 overflows to +inf";
  const auto z = read_row64(612, 2);
  EXPECT_TRUE(std::isinf(z[0]));
  EXPECT_EQ(z[1], 3.0);
}

TEST_F(VpuTest, GeometryViolationsThrow) {
  EXPECT_THROW(vpu.execute({VectorForm::vadd, Precision::f64, 129, 0, 300,
                            600, T64{}}),
               std::invalid_argument)
      << "64-bit vectors are at most 128 elements";
  EXPECT_THROW(vpu.execute({VectorForm::vadd, Precision::f32, 257, 0, 300,
                            600, T64{}}),
               std::invalid_argument)
      << "32-bit vectors are at most 256 elements";
  EXPECT_THROW(vpu.execute({VectorForm::vadd, Precision::f64, 0, 0, 300, 600,
                            T64{}}),
               std::invalid_argument);
  EXPECT_THROW(vpu.execute({VectorForm::vadd, Precision::f64, 8, 2000, 300,
                            600, T64{}}),
               std::invalid_argument);
}

TEST(VpuRefusal, F32ConversionThrowsBeforeAnyRowMoves) {
  for (const VpuMode mode :
       {VpuMode::softfloat, VpuMode::batch, VpuMode::checked}) {
    mem::NodeMemory memory;
    VectorUnit vpu{memory, VectorUnit::Config{true, mode}};
    for (const VectorForm form :
         {VectorForm::vcvt_widen, VectorForm::vcvt_narrow}) {
      const VectorOp op{form, Precision::f32, 16, 0, 300, 600, T64{}};
      ASSERT_TRUE(refusal(op).has_value()) << to_string(form);
      EXPECT_THROW(vpu.execute(op), std::invalid_argument)
          << to_string(mode) << " " << to_string(form);
    }
    EXPECT_EQ(memory.row_accesses(), 0u) << to_string(mode);
    EXPECT_EQ(vpu.total_ops(), 0u) << to_string(mode);
  }
}

// --------------------------- timing model ---------------------------------

TEST_F(VpuTest, FullVectorSaxpyApproachesPeak) {
  const std::size_t n = MemParams::kElems64;
  const VectorOp op{VectorForm::vsaxpy, Precision::f64, n, 0, 300, 600,
                    T64::from_double(1.0)};
  const SimTime d = vpu.duration_of(op);
  const double mflops = 2.0 * static_cast<double>(n) / d.us();
  // Startup (row load + 13-stage fill + result row) costs ~9% at n=128.
  EXPECT_GT(mflops, 13.0);
  EXPECT_LT(mflops, 16.0);
}

TEST_F(VpuTest, StreamRateIsOneElementPerCycle) {
  const VectorOp a{VectorForm::vadd, Precision::f64, 10, 0, 300, 600, T64{}};
  const VectorOp b{VectorForm::vadd, Precision::f64, 110, 0, 300, 600, T64{}};
  const SimTime delta = vpu.duration_of(b) - vpu.duration_of(a);
  EXPECT_EQ(delta, 100 * VpuParams::cycle());
}

TEST_F(VpuTest, SameBankOperandsSerialiseRowLoads) {
  const VectorOp diff{VectorForm::vadd, Precision::f64, 64, 0, 300, 600,
                      T64{}};
  const VectorOp same{VectorForm::vadd, Precision::f64, 64, 0, 10, 600,
                      T64{}};
  EXPECT_EQ(vpu.duration_of(same) - vpu.duration_of(diff),
            MemParams::row_access());
}

TEST_F(VpuTest, SingleBankAblationHalvesTwoOperandThroughput) {
  VectorUnit crippled{memory, VectorUnit::Config{.dual_bank = false}};
  const VectorOp op{VectorForm::vadd, Precision::f64, 128, 0, 300, 600,
                    T64{}};
  const SimTime fast = vpu.duration_of(op);
  const SimTime slow = crippled.duration_of(op);
  // The stream term doubles (and row loads serialise); asymptotically the
  // rate halves.
  EXPECT_GT(slow / fast, 1.7);
  // One-operand forms are unaffected in stream rate.
  const VectorOp one{VectorForm::vsmul, Precision::f64, 128, 0, 0, 600,
                     T64::from_double(2.0)};
  EXPECT_EQ(vpu.duration_of(one), crippled.duration_of(one));
}

TEST_F(VpuTest, MulPipelineDeeperIn64BitMode) {
  const VectorOp op32{VectorForm::vmul, Precision::f32, 1, 0, 300, 600,
                      T64{}};
  const VectorOp op64{VectorForm::vmul, Precision::f64, 1, 0, 300, 600,
                      T64{}};
  EXPECT_EQ(vpu.duration_of(op64) - vpu.duration_of(op32),
            2 * VpuParams::cycle())
      << "7-stage vs 5-stage multiplier";
}

TEST_F(VpuTest, StatsAccumulate) {
  fill_row64(11, {1, 2});
  fill_row64(311, {3, 4});
  vpu.execute({VectorForm::vadd, Precision::f64, 2, 11, 311, 613, T64{}});
  vpu.execute({VectorForm::vdot, Precision::f64, 2, 11, 311, 0, T64{}});
  EXPECT_EQ(vpu.total_ops(), 2u);
  EXPECT_EQ(vpu.total_flops(), 2u + 4u);
  EXPECT_GT(vpu.total_busy(), SimTime{});
}

// Property sweep: every elementwise form matches a host-FP reference over
// random data, across both precisions.
class FormSweep : public ::testing::TestWithParam<VectorForm> {};

TEST_P(FormSweep, MatchesHostReference64) {
  const VectorForm form = GetParam();
  mem::NodeMemory memory;
  VectorUnit vpu{memory};
  std::mt19937_64 rng{99};
  std::uniform_real_distribution<double> dist(-50.0, 50.0);
  const std::size_t n = MemParams::kElems64;
  mem::VectorRegister rx;
  mem::VectorRegister ry;
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = dist(rng);
    y[i] = dist(rng);
    rx.set_f64(i, T64::from_double(x[i]));
    ry.set_f64(i, T64::from_double(y[i]));
  }
  memory.store_row(0, rx);
  memory.store_row(300, ry);
  const double a = 1.75;
  vpu.execute({form, Precision::f64, n, 0, 300, 600, T64::from_double(a)});
  mem::VectorRegister rz;
  memory.load_row(600, rz);
  for (std::size_t i = 0; i < n; ++i) {
    double expect = 0;
    switch (form) {
      case VectorForm::vadd: expect = x[i] + y[i]; break;
      case VectorForm::vsub: expect = x[i] - y[i]; break;
      case VectorForm::vmul: expect = x[i] * y[i]; break;
      case VectorForm::vsadd: expect = a + x[i]; break;
      case VectorForm::vsmul: expect = a * x[i]; break;
      case VectorForm::vsaxpy: expect = a * x[i] + y[i]; break;
      case VectorForm::vneg: expect = -x[i]; break;
      case VectorForm::vabs: expect = std::fabs(x[i]); break;
      default: FAIL() << "not an elementwise form";
    }
    EXPECT_EQ(rz.f64(i).to_double(), expect)
        << to_string(form) << " element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ElementwiseForms, FormSweep,
    ::testing::Values(VectorForm::vadd, VectorForm::vsub, VectorForm::vmul,
                      VectorForm::vsadd, VectorForm::vsmul,
                      VectorForm::vsaxpy, VectorForm::vneg, VectorForm::vabs),
    [](const ::testing::TestParamInfo<VectorForm>& pinfo) {
      return to_string(pinfo.param);
    });

}  // namespace
}  // namespace fpst::vpu
