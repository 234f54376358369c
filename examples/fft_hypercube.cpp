// Distributed FFT on the cube: radix-2 DIF butterflies whose cross-node
// stages are exactly the hypercube's edges (Figure 3's "even FFT butterfly
// connections of radix 2").
//
//   $ ./fft_hypercube [log2_points] [dim]
#include <cmath>
#include <cstdio>

#include "kernels/kernels.hpp"
#include "tool_util.hpp"

using namespace fpst;

int main(int argc, char** argv) try {
  // The host keeps every point and a reference copy: 2^24 points is ~1 GB.
  int log2_n = 12;
  int dim = 3;
  if (!tools::Flags{"fft_hypercube"}
           .number("log2_points", &log2_n, 1, 24)
           .number("dim", &dim, 0, 14)
           .parse(argc, argv)) {
    return 2;
  }
  const std::size_t n = std::size_t{1} << log2_n;

  std::printf("FFT of %zu complex points on a %d-cube (%d nodes)\n", n, dim,
              1 << dim);
  const kernels::KernelResult r = kernels::run_fft(dim, n);

  // Host reference.
  std::vector<double> re(n);
  std::vector<double> im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = kernels::synth(21, i);
    im[i] = kernels::synth(22, i);
  }
  kernels::host_fft(re, im);
  double max_err = 0;
  for (std::size_t i = 0; i < n; ++i) {
    max_err = std::max(max_err, std::fabs(r.output[2 * i] - re[i]));
    max_err = std::max(max_err, std::fabs(r.output[2 * i + 1] - im[i]));
  }

  std::printf("  cross-node stages : %d (cube edges, one neighbour each)\n",
              dim);
  std::printf("  local stages      : %d\n", log2_n - dim);
  std::printf("  simulated time    : %s\n", r.elapsed.to_string().c_str());
  std::printf("  vector-form flops : %llu\n",
              static_cast<unsigned long long>(r.flops));
  std::printf("  link traffic      : %.2f KB\n",
              static_cast<double>(r.link_bytes) / 1e3);
  std::printf("  max |X - ref|     : %g\n", max_err);
  return max_err < 1e-6 ? 0 : 1;
} catch (...) {
  return tools::refused("fft_hypercube");
}
