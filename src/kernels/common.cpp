#include "kernels/kernels.hpp"

#include <cmath>
#include <cstdint>

#include "sim/bits.hpp"
#include "vpu/recip.hpp"

namespace fpst::kernels {

double synth(std::uint64_t stream, std::uint64_t i) {
  // splitmix64's mix on (stream, i), mapped to [-1, 1).
  const std::uint64_t z = bits::mix64(stream * bits::kGoldenGamma + i + 1);
  return static_cast<double>(z >> 11) * 0x1p-53 * 2.0 - 1.0;
}

std::vector<double> host_matmul(const std::vector<double>& a,
                                const std::vector<double>& b, std::size_t n) {
  std::vector<double> c(n * n, 0.0);
  // Same operation order as the machine kernel: C[i] accumulates one
  // a[i][k]-scaled row of B at a time (a saxpy per (i,k)).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const double s = a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] = s * b[k * n + j] + c[i * n + j];
      }
    }
  }
  return c;
}

void host_fft(std::vector<double>& re, std::vector<double>& im) {
  // Iterative radix-2 DIF; output left in bit-reversed order, matching the
  // machine kernel.
  const std::size_t n = re.size();
  for (std::size_t half = n / 2; half >= 1; half /= 2) {
    const std::size_t span = half * 2;
    for (std::size_t base = 0; base < n; base += span) {
      for (std::size_t j = 0; j < half; ++j) {
        const double ang =
            -2.0 * M_PI * static_cast<double>(j) / static_cast<double>(span);
        const double wr = std::cos(ang);
        const double wi = std::sin(ang);
        const std::size_t lo = base + j;
        const std::size_t hi = lo + half;
        const double ar = re[lo];
        const double ai = im[lo];
        const double br = re[hi];
        const double bi = im[hi];
        re[lo] = ar + br;
        im[lo] = ai + bi;
        const double dr = ar - br;
        const double di = ai - bi;
        re[hi] = dr * wr - di * wi;
        im[hi] = dr * wi + di * wr;
      }
    }
  }
}

std::vector<double> host_gauss_upper(std::vector<double> a, std::size_t n) {
  for (std::size_t k = 0; k + 1 < n; ++k) {
    // Partial pivoting: largest |a[i][k]| over i >= k, ties to smallest i.
    std::size_t piv = k;
    double best = std::fabs(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(a[i * n + k]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[k * n + j], a[piv * n + j]);
      }
    }
    // The machine divides via a Newton reciprocal on its pipes; the host
    // reference computes the identical value so U matches bit for bit.
    fp::Flags fl;
    const double rpk =
        vpu::recip_newton(fp::T64::from_double(a[k * n + k]), fl).to_double();
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = a[i * n + k] * rpk;
      // Full-row saxpy with separate mul/add roundings — exactly what the
      // machine's VSAXPY form computes.
      for (std::size_t j = 0; j < n; ++j) {
        a[i * n + j] = (-m) * a[k * n + j] + a[i * n + j];
      }
      a[i * n + k] = 0.0;  // the eliminated entry is cleared explicitly
    }
  }
  return a;
}

std::vector<double> host_laplace(std::vector<double> grid, std::size_t n,
                                 int iters) {
  std::vector<double> next = grid;
  for (int it = 0; it < iters; ++it) {
    for (std::size_t i = 1; i + 1 < n; ++i) {
      for (std::size_t j = 1; j + 1 < n; ++j) {
        next[i * n + j] = 0.25 * (grid[(i - 1) * n + j] +
                                  grid[(i + 1) * n + j] +
                                  grid[i * n + j - 1] + grid[i * n + j + 1]);
      }
    }
    std::swap(grid, next);
  }
  return grid;
}

}  // namespace fpst::kernels
