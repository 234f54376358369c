// A full cabinet (two modules, 16 nodes — the paper's tesseract) multiplies
// two 128x128 matrices: row-block decomposition with the B panel rotating
// around the Gray-code ring, double-buffered against compute.
//
//   $ ./cabinet_matmul [n]
//
// Prints achieved MFLOPS against the cabinet's 256 MFLOPS peak and checks
// the product against a host reference.
#include <cmath>
#include <cstdio>

#include "kernels/kernels.hpp"
#include "tool_util.hpp"

using namespace fpst;

int main(int argc, char** argv) try {
  // Each node keeps n/16 rows of C and of the B panel: n = 1024 fills 1 MB.
  std::size_t n = 128;
  if (!tools::Flags{"cabinet_matmul"}
           .number("n", &n, 16, 1024)
           .parse(argc, argv)) {
    return 2;
  }
  constexpr int kDim = 4;  // one cabinet: 16 nodes
  if (n % (1u << kDim) != 0) {
    std::fprintf(stderr, "cabinet_matmul: n: %zu is not a multiple of 16\n",
                 n);
    return 2;
  }

  std::printf("C := A * B, %zux%zu on a 16-node cabinet (4-cube)\n", n, n);
  const kernels::KernelResult r = kernels::run_matmul(kDim, n);

  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = kernels::synth(11, i);
    b[i] = kernels::synth(12, i);
  }
  const std::vector<double> ref = kernels::host_matmul(a, b, n);
  double max_err = 0;
  for (std::size_t i = 0; i < n * n; ++i) {
    max_err = std::max(max_err, std::fabs(r.output[i] - ref[i]));
  }

  const double peak = 16.0 * (1 << kDim);
  std::printf("  simulated time : %s\n", r.elapsed.to_string().c_str());
  std::printf("  flops          : %llu (2n^3 = %llu)\n",
              static_cast<unsigned long long>(r.flops),
              static_cast<unsigned long long>(2 * n * n * n));
  std::printf("  rate           : %.2f MFLOPS of %.0f peak (%.0f%%)\n",
              r.mflops(), peak, 100.0 * r.mflops() / peak);
  std::printf("  link traffic   : %.2f MB (panel rotation)\n",
              static_cast<double>(r.link_bytes) / 1e6);
  std::printf("  max |C - ref|  : %g\n", max_err);
  std::printf("  balance check  : blk = %zu -> %zu flops per word moved "
              "(paper's rule wants >= ~130)\n",
              n / (1u << kDim), 2 * (n / (1u << kDim)));
  return max_err < 1e-9 ? 0 : 1;
} catch (...) {
  return tools::refused("cabinet_matmul");
}
