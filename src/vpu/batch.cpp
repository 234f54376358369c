#include "vpu/batch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "fp/host_bridge.hpp"

namespace fpst::vpu::batch {

namespace {

using fp::Flags;
using fp::Ordering;

namespace host = fp::host;

/// Pairwise collapse of the six adder-feedback partials, in the machine's
/// fixed order: (p0+p1), (p2+p3), (p4+p5) -> (q0+q1) -> (+q2).
std::uint64_t collapse64(
    const std::array<std::uint64_t, VpuParams::kAdderStages>& p, Flags& fl) {
  const std::uint64_t q0 = host::add64(p[0], p[1], fl);
  const std::uint64_t q1 = host::add64(p[2], p[3], fl);
  const std::uint64_t q2 = host::add64(p[4], p[5], fl);
  return host::add64(host::add64(q0, q1, fl), q2, fl);
}

std::uint32_t collapse32(
    const std::array<std::uint32_t, VpuParams::kAdderStages>& p, Flags& fl) {
  const std::uint32_t q0 = host::add32(p[0], p[1], fl);
  const std::uint32_t q1 = host::add32(p[2], p[3], fl);
  const std::uint32_t q2 = host::add32(p[4], p[5], fl);
  return host::add32(host::add32(q0, q1, fl), q2, fl);
}

// ---------------------------------------------------------------- clean pass
//
// The elementwise arithmetic forms (vadd/vsub/vmul/vsadd/vsmul/vsaxpy) run a
// branchless first pass: plain host FP on FTZ'd operands, plus a per-element
// `suspicious` bit covering every case where plain host FP could diverge
// from the machine — NaN/inf results (operand NaN/inf always propagates to
// the result for these forms, so operands need no separate check), results
// in overflow or flush territory, and the flush-boundary windows documented
// in fp/host_bridge.hpp. If any element of a stripe is suspicious the whole
// stripe is recomputed through the careful bridge path; clean stripes can
// only differ from the oracle in the inexact flag, which exact residuals
// decide. The pass has no data-dependent branches, so the compiler can
// vectorise it — this is where the batch arm's speedup comes from.
//
// The loops run in two phases, chunk by chunk. While the op's inexact flag
// is still unknown (`Track`), each element also computes an exact residual
// — TwoSum for sums, a Veltkamp/Dekker two-product for binary64 products
// (portable: no fma instruction or libm call) — whose non-zeroness IS the
// oracle's inexact bit for clean elements. Once any clean element proves
// the op inexact, the remaining chunks drop the residual work entirely:
// the flag is already sticky-true and clean results cannot raise anything
// else. Real workloads go inexact within the first chunk, so the steady
// state is the residual-free loop.

inline unsigned exp_field64(std::uint64_t b) {
  return static_cast<unsigned>((b >> 52) & 0x7ff);
}
inline unsigned exp_field32(std::uint32_t b) {
  return (b >> 23) & 0xff;
}

inline constexpr std::uint64_t kAbs64 = ~host::kSign64;
inline constexpr std::uint32_t kAbs32 = ~host::kSign32;
/// Smallest normal magnitudes (DBL_MIN / FLT_MIN bit patterns).
inline constexpr std::uint64_t kSmallest64 = 0x0010000000000000ULL;
inline constexpr std::uint32_t kSmallest32 = 0x00800000U;

/// Branchless equivalents of host::ftz64/ftz32 — the `?:` versions compile
/// to control flow, which blocks loop vectorisation.
inline std::uint64_t bftz64(std::uint64_t b) {
  const std::uint64_t keep =
      -static_cast<std::uint64_t>((b & host::kExp64) != 0);
  return b & (keep | host::kSign64);
}
inline std::uint32_t bftz32(std::uint32_t b) {
  const std::uint32_t keep =
      -static_cast<std::uint32_t>((b & host::kExp32) != 0);
  return b & (keep | host::kSign32);
}

/// One element through the careful (branch-heavy, proof-carrying) bridge —
/// the body of the careful loop and of the suspicious-stripe rerun.
inline std::uint64_t element64(VectorForm form, std::uint64_t s,
                               std::uint64_t x, std::uint64_t y, Flags& fl) {
  switch (form) {
    case VectorForm::vadd: return host::add64(x, y, fl);
    case VectorForm::vsub: return host::sub64(x, y, fl);
    case VectorForm::vmul: return host::mul64(x, y, fl);
    case VectorForm::vsadd: return host::add64(s, x, fl);
    case VectorForm::vsmul: return host::mul64(s, x, fl);
    default:  // vsaxpy: two roundings (multiplier pipe, then adder pipe) —
              // the machine has no fused multiply-add.
      return host::add64(host::mul64(s, x, fl), y, fl);
  }
}

inline std::uint32_t element32(VectorForm form, std::uint32_t s,
                               std::uint32_t x, std::uint32_t y, Flags& fl) {
  switch (form) {
    case VectorForm::vadd: return host::add32(x, y, fl);
    case VectorForm::vsub: return host::sub32(x, y, fl);
    case VectorForm::vmul: return host::mul32(x, y, fl);
    case VectorForm::vsadd: return host::add32(s, x, fl);
    case VectorForm::vsmul: return host::mul32(s, x, fl);
    default:
      return host::add32(host::mul32(s, x, fl), y, fl);
  }
}

/// Dekker two-product residual: exact value of a*b - fl(a*b) when |a|,|b|
/// < 2^996 (the Veltkamp split does not overflow) and fl(a*b) lies in
/// [2^-968, 2^1022) (partial products stay normal, residual representable).
/// The tracked mul64 suspicion window excludes everything outside that.
inline double two_prod_err(double a, double b, double p) {
  constexpr double kSplit = 134217729.0;  // 2^27 + 1
  const double ca = a * kSplit;
  const double cb = b * kSplit;
  const double ah = ca - (ca - a);
  const double bh = cb - (cb - b);
  const double al = a - ah;
  const double bl = b - bh;
  return ((ah * bh - p) + ah * bl + al * bh) + al * bl;
}

struct Step64 {
  double z;
  bool bad;
  bool inexact;
};

/// All-ones / all-zeros masks instead of bools: the cheap loops accumulate
/// suspicion into a per-element mask array precisely because GCC will
/// vectorise mask stores but not a bool OR-reduction carried in the loop.
inline std::uint64_t mask64(bool c) { return c ? ~0ULL : 0ULL; }
inline std::uint32_t mask32(bool c) { return c ? ~0U : 0U; }

/// Element views straight over VectorRegister's std::byte storage — the
/// clean pass reads operands and writes results in place rather than
/// staging rows through local arrays. may_alias keeps the typed access
/// over byte storage defined under GCC's type-based aliasing rules.
using u64a = std::uint64_t __attribute__((may_alias));
using u32a = std::uint32_t __attribute__((may_alias));

inline Step64 add64_track(double a, double b) {
  const double z = a + b;
  // TwoSum (Knuth): exact for finite round-to-nearest doubles; with
  // inf/NaN inputs it yields NaN, and the element is bad anyway.
  const double bv = z - a;
  const double av = z - bv;
  const bool inexact = !((a - av) + (b - bv) == 0.0);
  const std::uint64_t za = std::bit_cast<std::uint64_t>(z) & kAbs64;
  // Overflow/NaN results and non-zero denormal results (flush) go careful.
  // A zero sum in round-to-nearest happens only when a == -b exactly, so a
  // zero result is clean and exact; a result exactly at the smallest normal
  // is safe for addition (host_bridge.hpp boundary proof).
  const bool bad = (za >= host::kExp64) | ((za - 1) < (kSmallest64 - 1));
  return {z, bad, inexact};
}

/// `a_nz`/`b_nz`: operand is non-zero (after FTZ). A zero product from a
/// zero operand is exact and clean; a zero product from non-zero operands
/// is an undetectable total underflow and must go careful.
inline Step64 mul64_track(double a, double b, bool a_nz, bool b_nz) {
  const double p = a * b;
  const std::uint64_t pb = std::bit_cast<std::uint64_t>(p);
  const std::uint64_t pa = pb & kAbs64;
  bool bad;
  {
    // Keep |p| inside [2^-968, 2^1022) so the Dekker residual is exact,
    // and operands below 2^996 so the Veltkamp split cannot overflow.
    constexpr std::uint64_t kLo = 56ULL << 52;
    constexpr std::uint64_t kHi = 0x7fdULL << 52;
    const std::uint64_t pm = pb & host::kExp64;
    bad = (((pm - kLo) >= (kHi - kLo)) & (pa != 0)) |
          (exp_field64(std::bit_cast<std::uint64_t>(a)) >= 2019) |
          (exp_field64(std::bit_cast<std::uint64_t>(b)) >= 2019);
  }
  const bool inexact = !(two_prod_err(a, b, p) == 0.0);
  bad |= (pa == 0) & a_nz & b_nz;
  return {p, bad, inexact};
}

/// Residual-free binary64 steps for the cheap phase, in mask style.
struct Step64C {
  double z;
  std::uint64_t susp;
};

inline Step64C cheap_add64(double a, double b) {
  const double z = a + b;
  const std::uint64_t za = std::bit_cast<std::uint64_t>(z) & kAbs64;
  return {z, mask64(za >= host::kExp64) | mask64((za - 1) < (kSmallest64 - 1))};
}

inline Step64C cheap_mul64(double a, double b, std::uint64_t a_nz,
                           std::uint64_t b_nz) {
  const double p = a * b;
  const std::uint64_t pa = std::bit_cast<std::uint64_t>(p) & kAbs64;
  // Without a residual to validate, only the bridge's genuine divergence
  // zone is suspicious: overflow/NaN, and |p| in (0, DBL_MIN] — the
  // closed upper end because the machine rounds with full denormal
  // precision before flushing, so a host result of exactly DBL_MIN can
  // round up from a value the machine flushes (the boundary-tie case).
  return {p, mask64(pa >= host::kExp64) | mask64((pa - 1) < kSmallest64) |
                 (mask64(pa == 0) & a_nz & b_nz)};
}

template <VectorForm F>
void clean_chunk64_track(std::size_t i0, std::size_t i1, double s, bool s_nz,
                         const u64a* xs, const u64a* ys, u64a* zs,
                         bool& any_susp, bool& inexact) {
  bool any = false;
  bool inx = false;
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint64_t xf = bftz64(xs[i]);
    const double x = std::bit_cast<double>(xf);
    bool bad = false;
    bool elem_inexact = false;
    double z = 0.0;
    if constexpr (F == VectorForm::vadd || F == VectorForm::vsub) {
      const std::uint64_t yf =
          bftz64(F == VectorForm::vsub ? ys[i] ^ host::kSign64 : ys[i]);
      const Step64 a = add64_track(x, std::bit_cast<double>(yf));
      z = a.z;
      bad = a.bad;
      elem_inexact = a.inexact;
    } else if constexpr (F == VectorForm::vsadd) {
      const Step64 a = add64_track(s, x);
      z = a.z;
      bad = a.bad;
      elem_inexact = a.inexact;
    } else if constexpr (F == VectorForm::vmul) {
      const std::uint64_t yf = bftz64(ys[i]);
      const Step64 m = mul64_track(x, std::bit_cast<double>(yf),
                                         (xf & kAbs64) != 0,
                                         (yf & kAbs64) != 0);
      z = m.z;
      bad = m.bad;
      elem_inexact = m.inexact;
    } else if constexpr (F == VectorForm::vsmul) {
      const Step64 m = mul64_track(s, x, s_nz, (xf & kAbs64) != 0);
      z = m.z;
      bad = m.bad;
      elem_inexact = m.inexact;
    } else {  // vsaxpy: two roundings, multiplier pipe then adder pipe
      const std::uint64_t yf = bftz64(ys[i]);
      const Step64 m = mul64_track(s, x, s_nz, (xf & kAbs64) != 0);
      const Step64 a = add64_track(m.z, std::bit_cast<double>(yf));
      z = a.z;
      bad = m.bad | a.bad;
      elem_inexact = m.inexact | a.inexact;
    }
    zs[i] = std::bit_cast<std::uint64_t>(z);
    any |= bad;
    inx |= (!bad) & elem_inexact;
  }
  any_susp |= any;
  inexact |= inx;
}

/// The vectorisable steady state: no residuals, no bools, suspicion masks
/// streamed into `sus` and OR-reduced by the caller.
template <VectorForm F>
void clean_chunk64_cheap(std::size_t i0, std::size_t i1, double s,
                         std::uint64_t s_nz, const u64a* xs, const u64a* ys,
                         u64a* zs, std::uint64_t* sus) {
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint64_t xf = bftz64(xs[i]);
    const double x = std::bit_cast<double>(xf);
    double z = 0.0;
    std::uint64_t susp = 0;
    if constexpr (F == VectorForm::vadd || F == VectorForm::vsub) {
      const std::uint64_t yf =
          bftz64(F == VectorForm::vsub ? ys[i] ^ host::kSign64 : ys[i]);
      const Step64C a = cheap_add64(x, std::bit_cast<double>(yf));
      z = a.z;
      susp = a.susp;
    } else if constexpr (F == VectorForm::vsadd) {
      const Step64C a = cheap_add64(s, x);
      z = a.z;
      susp = a.susp;
    } else if constexpr (F == VectorForm::vmul) {
      const std::uint64_t yf = bftz64(ys[i]);
      const Step64C m =
          cheap_mul64(x, std::bit_cast<double>(yf),
                      mask64((xf & kAbs64) != 0), mask64((yf & kAbs64) != 0));
      z = m.z;
      susp = m.susp;
    } else if constexpr (F == VectorForm::vsmul) {
      const Step64C m = cheap_mul64(s, x, s_nz, mask64((xf & kAbs64) != 0));
      z = m.z;
      susp = m.susp;
    } else {  // vsaxpy
      const std::uint64_t yf = bftz64(ys[i]);
      const Step64C m = cheap_mul64(s, x, s_nz, mask64((xf & kAbs64) != 0));
      const Step64C a = cheap_add64(m.z, std::bit_cast<double>(yf));
      z = a.z;
      susp = m.susp | a.susp;
    }
    zs[i] = std::bit_cast<std::uint64_t>(z);
    sus[i] = susp;
  }
}

/// Residual tracking is much heavier than the residual-free loop, so track
/// in small chunks: the first inexact element (almost always in the first
/// few) releases the whole remainder to the cheap phase in one run.
constexpr std::size_t kTrackChunk = 8;

template <VectorForm F>
void clean_loop64(std::size_t n, std::uint64_t sbits, const u64a* xs,
                  const u64a* ys, u64a* zs, std::uint64_t* sus,
                  bool& any_susp, bool& inexact) {
  const std::uint64_t sf = bftz64(sbits);
  const double s = std::bit_cast<double>(sf);
  const bool s_nz = (sf & kAbs64) != 0;
  std::size_t i0 = 0;
  while (i0 < n && !inexact) {
    const std::size_t i1 = std::min(n, i0 + kTrackChunk);
    clean_chunk64_track<F>(i0, i1, s, s_nz, xs, ys, zs, any_susp, inexact);
    i0 = i1;
  }
  if (i0 < n) {
    clean_chunk64_cheap<F>(i0, n, s, mask64(s_nz), xs, ys, zs, sus);
    std::uint64_t m = 0;
    for (std::size_t i = i0; i < n; ++i) {
      m |= sus[i];
    }
    any_susp |= m != 0;
  }
}

// Binary32 steps. The tracked phase widens to binary64: 53 >= 2*24 + 2, so
// the double rounding is innocuous for the result bits, and the double
// residuals decide inexact. The cheap phase works in native binary32 —
// IEEE float arithmetic on FTZ'd operands IS the machine's
// round-before-flush result whenever the outcome is clean.

struct Step32T {
  float r;
  bool bad;
  bool inexact;
};

template <bool Track>
inline Step32T add32_step(double a, double b) {
  const double z = a + b;
  const float r = static_cast<float>(z);
  const std::uint32_t rb = std::bit_cast<std::uint32_t>(r);
  const std::uint32_t ra = rb & kAbs32;
  const bool rounds = !(static_cast<double>(r) == z);
  bool inexact = false;
  if constexpr (Track) {
    const double bv = z - a;
    const double av = z - bv;
    inexact = rounds | !((a - av) + (b - bv) == 0.0);
  }
  // `rounds` stays in the suspicion term: a tiny non-zero double sum
  // rounding to float zero is a flush the zero magnitude alone cannot see.
  // A result exactly at the smallest normal is safe for addition.
  const bool bad = (ra >= host::kExp32) |
                   ((ra - 1) < (kSmallest32 - 1)) |
                   ((ra == 0) & rounds);
  return {r, bad, inexact};
}

/// The double product of two binary32 values is exact (48 bits), so the
/// final rounding alone decides inexact. |r| exactly at the smallest
/// normal is the bridge's oracle window for products.
template <bool Track>
inline Step32T mul32_step(double a, double b) {
  const double p = a * b;
  const float r = static_cast<float>(p);
  const std::uint32_t rb = std::bit_cast<std::uint32_t>(r);
  const std::uint32_t ra = rb & kAbs32;
  const bool rounds = !(static_cast<double>(r) == p);
  const bool bad = (ra >= host::kExp32) | ((ra - 1) < kSmallest32) |
                   ((ra == 0) & rounds);
  return {r, bad, Track && rounds};
}

template <VectorForm F>
void clean_chunk32_track(std::size_t i0, std::size_t i1, double s, bool s_nz,
                         const u32a* xs, const u32a* ys, u32a* zs,
                         bool& any_susp, bool& inexact) {
  (void)s_nz;
  bool any = false;
  bool inx = false;
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint32_t xf = bftz32(xs[i]);
    const double x = static_cast<double>(std::bit_cast<float>(xf));
    bool bad = false;
    bool elem_inexact = false;
    float r = 0.0F;
    if constexpr (F == VectorForm::vadd || F == VectorForm::vsub) {
      const std::uint32_t yf =
          bftz32(F == VectorForm::vsub ? ys[i] ^ host::kSign32 : ys[i]);
      const Step32T a =
          add32_step<true>(x, static_cast<double>(std::bit_cast<float>(yf)));
      r = a.r;
      bad = a.bad;
      elem_inexact = a.inexact;
    } else if constexpr (F == VectorForm::vsadd) {
      const Step32T a = add32_step<true>(s, x);
      r = a.r;
      bad = a.bad;
      elem_inexact = a.inexact;
    } else if constexpr (F == VectorForm::vmul) {
      const std::uint32_t yf = bftz32(ys[i]);
      const Step32T m =
          mul32_step<true>(x, static_cast<double>(std::bit_cast<float>(yf)));
      r = m.r;
      bad = m.bad;
      elem_inexact = m.inexact;
    } else if constexpr (F == VectorForm::vsmul) {
      const Step32T m = mul32_step<true>(s, x);
      r = m.r;
      bad = m.bad;
      elem_inexact = m.inexact;
    } else {  // vsaxpy: round the product to binary32 first — the machine's
              // multiplier pipe writes a binary32 result into the adder.
      const std::uint32_t yf = bftz32(ys[i]);
      const Step32T m = mul32_step<true>(s, x);
      const Step32T a = add32_step<true>(
          static_cast<double>(m.r),
          static_cast<double>(std::bit_cast<float>(yf)));
      r = a.r;
      bad = m.bad | a.bad;
      elem_inexact = m.inexact | a.inexact;
    }
    zs[i] = std::bit_cast<std::uint32_t>(r);
    any |= bad;
    inx |= (!bad) & elem_inexact;
  }
  any_susp |= any;
  inexact |= inx;
}

struct Step32C {
  float r;
  std::uint32_t susp;
};

inline Step32C cheap_add32(float a, float b) {
  const float z = a + b;
  const std::uint32_t za = std::bit_cast<std::uint32_t>(z) & kAbs32;
  // Zero sum => a == -b exactly => clean; exact sums below the smallest
  // normal are representable denormals, so a flush always shows up as a
  // denormal result here, never as a silent zero. Smallest-normal results
  // are safe for addition.
  return {z, mask32(za >= host::kExp32) | mask32((za - 1) < (kSmallest32 - 1))};
}

inline Step32C cheap_mul32(float a, float b, std::uint32_t a_nz,
                           std::uint32_t b_nz) {
  const float r = a * b;
  const std::uint32_t ra = std::bit_cast<std::uint32_t>(r) & kAbs32;
  return {r, mask32(ra >= host::kExp32) | mask32((ra - 1) < kSmallest32) |
                 (mask32(ra == 0) & a_nz & b_nz)};
}

template <VectorForm F>
void clean_chunk32_cheap(std::size_t i0, std::size_t i1, double s,
                         std::uint32_t s_nz, const u32a* xs, const u32a* ys,
                         u32a* zs, std::uint32_t* sus) {
  const float sf32 = static_cast<float>(s);
  for (std::size_t i = i0; i < i1; ++i) {
    const std::uint32_t xf = bftz32(xs[i]);
    const float x = std::bit_cast<float>(xf);
    std::uint32_t susp = 0;
    float r = 0.0F;
    if constexpr (F == VectorForm::vadd || F == VectorForm::vsub) {
      const std::uint32_t yf =
          bftz32(F == VectorForm::vsub ? ys[i] ^ host::kSign32 : ys[i]);
      const Step32C a = cheap_add32(x, std::bit_cast<float>(yf));
      r = a.r;
      susp = a.susp;
    } else if constexpr (F == VectorForm::vsadd) {
      const Step32C a = cheap_add32(sf32, x);
      r = a.r;
      susp = a.susp;
    } else if constexpr (F == VectorForm::vmul) {
      const std::uint32_t yf = bftz32(ys[i]);
      const Step32C m =
          cheap_mul32(x, std::bit_cast<float>(yf),
                      mask32((xf & kAbs32) != 0), mask32((yf & kAbs32) != 0));
      r = m.r;
      susp = m.susp;
    } else if constexpr (F == VectorForm::vsmul) {
      const Step32C m = cheap_mul32(sf32, x, s_nz, mask32((xf & kAbs32) != 0));
      r = m.r;
      susp = m.susp;
    } else {  // vsaxpy
      const std::uint32_t yf = bftz32(ys[i]);
      const Step32C m = cheap_mul32(sf32, x, s_nz, mask32((xf & kAbs32) != 0));
      const Step32C a = cheap_add32(m.r, std::bit_cast<float>(yf));
      r = a.r;
      susp = m.susp | a.susp;
    }
    zs[i] = std::bit_cast<std::uint32_t>(r);
    sus[i] = susp;
  }
}

template <VectorForm F>
void clean_loop32(std::size_t n, std::uint32_t sbits, const u32a* xs,
                  const u32a* ys, u32a* zs, std::uint32_t* sus,
                  bool& any_susp, bool& inexact) {
  const std::uint32_t sf = bftz32(sbits);
  const double s = static_cast<double>(std::bit_cast<float>(sf));
  const bool s_nz = (sf & kAbs32) != 0;
  std::size_t i0 = 0;
  while (i0 < n && !inexact) {
    const std::size_t i1 = std::min(n, i0 + kTrackChunk);
    clean_chunk32_track<F>(i0, i1, s, s_nz, xs, ys, zs, any_susp, inexact);
    i0 = i1;
  }
  if (i0 < n) {
    clean_chunk32_cheap<F>(i0, n, s, mask32(s_nz), xs, ys, zs, sus);
    std::uint32_t m = 0;
    for (std::size_t i = i0; i < n; ++i) {
      m |= sus[i];
    }
    any_susp |= m != 0;
  }
}

bool is_elementwise_arith(VectorForm f) {
  switch (f) {
    case VectorForm::vadd:
    case VectorForm::vsub:
    case VectorForm::vmul:
    case VectorForm::vsadd:
    case VectorForm::vsmul:
    case VectorForm::vsaxpy:
      return true;
    default:
      return false;
  }
}

/// Run the clean pass for an elementwise form; returns false when the form
/// (or a NaN/inf scalar register) needs the careful loop instead.
///
/// target_clones: the clean loops are the only SIMD-hot code in the
/// simulator, and the x86-64 baseline's 16-byte vectors leave 2-3x on the
/// table. flatten pulls the template loops into each clone so they compile
/// with the clone's ISA; results are bitwise identical across clones (only
/// IEEE ops and bit logic, no reassociation or FMA contraction).
///
/// ThreadSanitizer binaries crash at start in the clones' ifunc resolver,
/// which runs before the TSan runtime is up, so a -fsanitize=thread build
/// keeps one baseline copy of each loop.
#if defined(__SANITIZE_THREAD__)
#define FPST_CLEAN_LOOP __attribute__((flatten))
#else
#define FPST_CLEAN_LOOP                                                     \
  __attribute__((flatten, target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                                        "default")))
#endif

FPST_CLEAN_LOOP
bool clean64(const VectorOp& op, const mem::VectorRegister& vx,
             const mem::VectorRegister& vy, mem::VectorRegister& vz,
             Flags& fl) {
  if (!is_elementwise_arith(op.form)) {
    return false;
  }
  const std::uint64_t s = op.scalar.bits();
  const bool uses_scalar = op.form == VectorForm::vsadd ||
                           op.form == VectorForm::vsmul ||
                           op.form == VectorForm::vsaxpy;
  if (uses_scalar && exp_field64(s) == 0x7ff) {
    return false;  // NaN/inf in the pipe input register: all-careful
  }
  // Run directly over the register storage: the registers are cache-line
  // aligned, raw() is inline, and a may_alias element type keeps the typed
  // loads over the byte storage well-defined for GCC. (Staging through
  // local arrays costs three row copies per stripe — measurable at
  // 1024-node working sets.)
  const u64a* xs = reinterpret_cast<const u64a*>(vx.raw().data());
  const u64a* ys = reinterpret_cast<const u64a*>(vy.raw().data());
  u64a* zs = reinterpret_cast<u64a*>(vz.raw().data());
  std::array<std::uint64_t, mem::MemParams::kElems64> sus;
  bool any_susp = false;
  bool inexact = false;
  switch (op.form) {
    case VectorForm::vadd:
      clean_loop64<VectorForm::vadd>(op.n, s, xs, ys, zs, sus.data(),
                                     any_susp, inexact);
      break;
    case VectorForm::vsub:
      clean_loop64<VectorForm::vsub>(op.n, s, xs, ys, zs, sus.data(),
                                     any_susp, inexact);
      break;
    case VectorForm::vmul:
      clean_loop64<VectorForm::vmul>(op.n, s, xs, ys, zs, sus.data(),
                                     any_susp, inexact);
      break;
    case VectorForm::vsadd:
      clean_loop64<VectorForm::vsadd>(op.n, s, xs, ys, zs, sus.data(),
                                      any_susp, inexact);
      break;
    case VectorForm::vsmul:
      clean_loop64<VectorForm::vsmul>(op.n, s, xs, ys, zs, sus.data(),
                                      any_susp, inexact);
      break;
    default:
      clean_loop64<VectorForm::vsaxpy>(op.n, s, xs, ys, zs, sus.data(),
                                       any_susp, inexact);
      break;
  }
  if (any_susp) {
    // Something in the stripe sits in a divergence window: recompute the
    // whole stripe through the proof-carrying bridge. The inputs vx/vy are
    // untouched (only the destination register was written), so the rerun
    // sees the original operands. Inexact gathered from clean elements is
    // genuine oracle inexact, so it stays.
    fl.inexact |= inexact;
    for (std::size_t i = 0; i < op.n; ++i) {
      zs[i] = element64(op.form, s, xs[i], ys[i], fl);
    }
    return true;
  }
  // Only the first n elements of the destination row are written, exactly
  // like the careful loop.
  fl.inexact |= inexact;
  return true;
}

FPST_CLEAN_LOOP
bool clean32(const VectorOp& op, std::uint32_t s,
             const mem::VectorRegister& vx, const mem::VectorRegister& vy,
             mem::VectorRegister& vz, Flags& fl) {
  if (!is_elementwise_arith(op.form)) {
    return false;
  }
  const bool uses_scalar = op.form == VectorForm::vsadd ||
                           op.form == VectorForm::vsmul ||
                           op.form == VectorForm::vsaxpy;
  if (uses_scalar && exp_field32(s) == 0xff) {
    return false;
  }
  const u32a* xs = reinterpret_cast<const u32a*>(vx.raw().data());
  const u32a* ys = reinterpret_cast<const u32a*>(vy.raw().data());
  u32a* zs = reinterpret_cast<u32a*>(vz.raw().data());
  std::array<std::uint32_t, mem::MemParams::kElems32> sus;
  bool any_susp = false;
  bool inexact = false;
  switch (op.form) {
    case VectorForm::vadd:
      clean_loop32<VectorForm::vadd>(op.n, s, xs, ys, zs, sus.data(),
                                     any_susp, inexact);
      break;
    case VectorForm::vsub:
      clean_loop32<VectorForm::vsub>(op.n, s, xs, ys, zs, sus.data(),
                                     any_susp, inexact);
      break;
    case VectorForm::vmul:
      clean_loop32<VectorForm::vmul>(op.n, s, xs, ys, zs, sus.data(),
                                     any_susp, inexact);
      break;
    case VectorForm::vsadd:
      clean_loop32<VectorForm::vsadd>(op.n, s, xs, ys, zs, sus.data(),
                                      any_susp, inexact);
      break;
    case VectorForm::vsmul:
      clean_loop32<VectorForm::vsmul>(op.n, s, xs, ys, zs, sus.data(),
                                      any_susp, inexact);
      break;
    default:
      clean_loop32<VectorForm::vsaxpy>(op.n, s, xs, ys, zs, sus.data(),
                                       any_susp, inexact);
      break;
  }
  if (any_susp) {
    fl.inexact |= inexact;
    for (std::size_t i = 0; i < op.n; ++i) {
      zs[i] = element32(op.form, s, xs[i], ys[i], fl);
    }
    return true;
  }
  fl.inexact |= inexact;
  return true;
}

}  // namespace

OpResult execute64(const VectorOp& op, const mem::VectorRegister& vx,
                   const mem::VectorRegister& vy, mem::VectorRegister& vz) {
  OpResult res;
  Flags& fl = res.flags;
  const std::uint64_t s = op.scalar.bits();

  if (clean64(op, vx, vy, vz, fl)) {
    res.flops = flops_for(op);
    return res;
  }

  std::array<std::uint64_t, VpuParams::kAdderStages> partials{};
  std::uint64_t best = 0;
  std::size_t best_i = 0;

  for (std::size_t i = 0; i < op.n; ++i) {
    const std::uint64_t x = vx.u64(i);
    switch (op.form) {
      case VectorForm::vadd:
      case VectorForm::vsub:
      case VectorForm::vmul:
      case VectorForm::vsadd:
      case VectorForm::vsmul:
      case VectorForm::vsaxpy:
        vz.set_u64(i, element64(op.form, s, x, vy.u64(i), fl));
        break;
      case VectorForm::vneg:
        vz.set_u64(i, x ^ host::kSign64);  // raw sign flip, no FTZ
        break;
      case VectorForm::vabs:
        vz.set_u64(i, x & ~host::kSign64);
        break;
      case VectorForm::vsum:
        partials[i % partials.size()] =
            host::add64(partials[i % partials.size()], x, fl);
        break;
      case VectorForm::vdot:
        partials[i % partials.size()] = host::add64(
            partials[i % partials.size()], host::mul64(x, vy.u64(i), fl), fl);
        break;
      case VectorForm::vmaxval: {
        if (i == 0 || host::compare64(x, best, fl) == Ordering::greater) {
          best = x;
          best_i = i;
        }
        break;
      }
      case VectorForm::vcmp_le: {
        const Ordering o = host::compare64(x, vy.u64(i), fl);
        const bool le = o == Ordering::less || o == Ordering::equal;
        vz.set_u64(i, le ? 0x3ff0000000000000ULL : 0);
        break;
      }
      case VectorForm::vcvt_widen:
        vz.set_u64(i, fp::detail::widen(vx.u32(i), fl));
        break;
      case VectorForm::vcvt_narrow:
        vz.set_u32(i, host::narrow(x, fl));
        break;
    }
  }

  if (op.form == VectorForm::vsum || op.form == VectorForm::vdot) {
    res.scalar_result = fp::T64::from_bits(collapse64(partials, fl));
  } else if (op.form == VectorForm::vmaxval) {
    res.scalar_result = fp::T64::from_bits(best);
    res.reduction_index = best_i;
  }
  res.flops = flops_for(op);
  return res;
}

OpResult execute32(const VectorOp& op, const mem::VectorRegister& vx,
                   const mem::VectorRegister& vy, mem::VectorRegister& vz) {
  OpResult res;
  Flags& fl = res.flags;
  // The scalar register narrows once at issue, flags included — identical
  // to the softfloat arm's T32::narrowed(op.scalar, fl).
  const std::uint32_t s = host::narrow(op.scalar.bits(), fl);

  if (clean32(op, s, vx, vy, vz, fl)) {
    res.flops = flops_for(op);
    return res;
  }

  std::array<std::uint32_t, VpuParams::kAdderStages> partials{};
  std::uint32_t best = 0;
  std::size_t best_i = 0;

  for (std::size_t i = 0; i < op.n; ++i) {
    const std::uint32_t x = vx.u32(i);
    switch (op.form) {
      case VectorForm::vadd:
      case VectorForm::vsub:
      case VectorForm::vmul:
      case VectorForm::vsadd:
      case VectorForm::vsmul:
      case VectorForm::vsaxpy:
        vz.set_u32(i, element32(op.form, s, x, vy.u32(i), fl));
        break;
      case VectorForm::vneg:
        vz.set_u32(i, x ^ host::kSign32);
        break;
      case VectorForm::vabs:
        vz.set_u32(i, x & ~host::kSign32);
        break;
      case VectorForm::vsum:
        partials[i % partials.size()] =
            host::add32(partials[i % partials.size()], x, fl);
        break;
      case VectorForm::vdot:
        partials[i % partials.size()] = host::add32(
            partials[i % partials.size()], host::mul32(x, vy.u32(i), fl), fl);
        break;
      case VectorForm::vmaxval: {
        if (i == 0 || host::compare32(x, best, fl) == Ordering::greater) {
          best = x;
          best_i = i;
        }
        break;
      }
      case VectorForm::vcmp_le: {
        const Ordering o = host::compare32(x, vy.u32(i), fl);
        const bool le = o == Ordering::less || o == Ordering::equal;
        vz.set_u32(i, le ? 0x3f800000U : 0);
        break;
      }
      case VectorForm::vcvt_widen:
      case VectorForm::vcvt_narrow:
        throw std::invalid_argument(
            "VectorUnit: conversions dispatch with prec=f64");
    }
  }

  if (op.form == VectorForm::vsum || op.form == VectorForm::vdot) {
    // Value plumbing to T64, flagless — matches the softfloat arm.
    res.scalar_result =
        fp::T64::from_bits(fp::detail::widen(collapse32(partials, fl)));
  } else if (op.form == VectorForm::vmaxval) {
    res.scalar_result = fp::T64::from_bits(fp::detail::widen(best));
    res.reduction_index = best_i;
  }
  res.flops = flops_for(op);
  return res;
}

}  // namespace fpst::vpu::batch
