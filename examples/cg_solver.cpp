// Conjugate-gradient solver on the T Series — a complete scientific
// application composed from the machine's primitives: VDOT reductions with
// hypercube allreduce, VSAXPY updates, and a row-block matrix-vector
// product whose direction vector is re-assembled each iteration with a
// dimension-exchange allgather.
//
//   $ ./cg_solver [n] [dim] [iters]
#include <cmath>
#include <cstdio>
#include <vector>

#include "kernels/kernels.hpp"
#include "occam/occam.hpp"
#include "tool_util.hpp"

using namespace fpst;

namespace {

/// Dense SPD test matrix: A = D + 0.5 (S + S^T) with dominant diagonal.
double a_elem(std::size_t i, std::size_t j, std::size_t n) {
  const double s = kernels::synth(81, i * n + j);
  const double t = kernels::synth(81, j * n + i);
  const double off = 0.25 * (s + t);
  return i == j ? static_cast<double>(n) + 1.0 + off : off;
}

}  // namespace

int main(int argc, char** argv) try {
  // One row of A (n doubles) fits a node's bank A up to n = 32768; the
  // node allocator refuses a split whose rows do not all fit.
  std::size_t n = 128;
  int dim = 3;
  int iters = 20;
  if (!tools::Flags{"cg_solver"}
           .number("n", &n, 1, 32768)
           .number("dim", &dim, 0, 14)
           .number("iters", &iters, 1)
           .parse(argc, argv)) {
    return 2;
  }

  sim::Simulator sim;
  core::TSeries machine{sim, dim};
  occam::Runtime rt{machine};
  const std::size_t nodes = machine.size();
  if (n % nodes != 0) {
    std::fprintf(stderr, "cg_solver: n: %zu is not a multiple of %zu nodes\n",
                 n, nodes);
    return 2;
  }
  const std::size_t blk = n / nodes;

  // Per-node state: owned matrix rows (in node memory), block vectors
  // x, r, p_blk, q, and a staged full-length p for the matvec.
  struct NodeState {
    std::vector<node::Array64> a_rows;
    node::Array64 x, r, pb, q, scratch;
    node::Array64 p_full;
    std::vector<double> host_p;  // full direction vector (mirror)
  };
  std::vector<NodeState> st(nodes);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = kernels::synth(82, i);
  }
  for (std::size_t id = 0; id < nodes; ++id) {
    NodeState& s = st[id];
    node::Node& nd = machine.node(static_cast<net::NodeId>(id));
    for (std::size_t li = 0; li < blk; ++li) {
      const std::size_t gi = id * blk + li;
      s.a_rows.push_back(nd.alloc64(mem::Bank::A, n));
      std::vector<double> row(n);
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = a_elem(gi, j, n);
      }
      nd.write64(s.a_rows.back(), row);
    }
    s.x = nd.alloc64(mem::Bank::B, blk);
    s.r = nd.alloc64(mem::Bank::B, blk);
    s.pb = nd.alloc64(mem::Bank::B, blk);
    s.q = nd.alloc64(mem::Bank::B, blk);
    s.scratch = nd.alloc64(mem::Bank::B, blk);
    s.p_full = nd.alloc64(mem::Bank::B, n);
    std::vector<double> zero(blk, 0.0);
    nd.write64(s.x, zero);
    std::vector<double> rb(blk);
    for (std::size_t li = 0; li < blk; ++li) {
      rb[li] = b[id * blk + li];
    }
    nd.write64(s.r, rb);   // r = b - A*0 = b
    nd.write64(s.pb, rb);  // p = r
  }

  std::vector<double> residual_history;
  const sim::SimTime elapsed = rt.run([&](occam::Ctx& ctx) -> sim::Proc {
    NodeState& s = st[ctx.id()];
    node::Node& nd = ctx.node();

    double rs = 0;
    co_await nd.vreduce(vpu::VectorForm::vdot, s.r, s.r, &rs);
    co_await ctx.allreduce_sum(&rs);

    for (int it = 0; it < iters; ++it) {
      // Allgather p: pad the local block into a full-length vector and
      // dimension-exchange sum (zeros elsewhere).
      std::vector<double> p_pad(n, 0.0);
      const std::vector<double> pb = nd.read64(s.pb);
      for (std::size_t li = 0; li < blk; ++li) {
        p_pad[ctx.id() * blk + li] = pb[li];
      }
      co_await ctx.allreduce_sum(&p_pad);
      s.host_p = p_pad;
      nd.write64(s.p_full, s.host_p);
      co_await nd.row_move(s.p_full.rows());  // stage p through the regs

      // q = A_rows * p: one VDOT per owned row.
      std::vector<double> qv(blk);
      for (std::size_t li = 0; li < blk; ++li) {
        co_await nd.vreduce(vpu::VectorForm::vdot, s.a_rows[li], s.p_full,
                            &qv[li]);
      }
      nd.write64(s.q, qv);

      double pq = 0;
      co_await nd.vreduce(vpu::VectorForm::vdot, s.pb, s.q, &pq);
      co_await ctx.allreduce_sum(&pq);
      const double alpha = rs / pq;

      co_await nd.vscalar(vpu::VectorForm::vsaxpy, alpha, s.pb, s.x, s.x);
      co_await nd.vscalar(vpu::VectorForm::vsaxpy, -alpha, s.q, s.r, s.r);

      double rs_new = 0;
      co_await nd.vreduce(vpu::VectorForm::vdot, s.r, s.r, &rs_new);
      co_await ctx.allreduce_sum(&rs_new);
      if (ctx.id() == 0) {
        residual_history.push_back(std::sqrt(rs_new));
      }
      const double beta = rs_new / rs;
      rs = rs_new;
      // p = r + beta p  (scale p then add r).
      co_await nd.vscalar(vpu::VectorForm::vsmul, beta, s.pb, node::Array64{},
                          s.scratch);
      co_await nd.vbinary(vpu::VectorForm::vadd, s.scratch, s.r, s.pb);
    }
  });

  // Verify: assemble x and check the true residual on the host.
  std::vector<double> x(n);
  for (std::size_t id = 0; id < nodes; ++id) {
    const std::vector<double> xb =
        machine.node(static_cast<net::NodeId>(id)).read64(st[id].x);
    for (std::size_t li = 0; li < blk; ++li) {
      x[id * blk + li] = xb[li];
    }
  }
  double true_res = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double ax = 0;
    for (std::size_t j = 0; j < n; ++j) {
      ax += a_elem(i, j, n) * x[j];
    }
    true_res += (b[i] - ax) * (b[i] - ax);
  }
  true_res = std::sqrt(true_res);

  std::printf("CG on a %zux%zu SPD system, %d iterations, %zu nodes\n", n, n,
              iters, nodes);
  std::printf("  simulated time : %s (%.2f MFLOPS aggregate)\n",
              elapsed.to_string().c_str(),
              static_cast<double>(machine.total_flops()) / elapsed.us());
  std::printf("  residual: start %.3e -> end %.3e (true: %.3e)\n",
              residual_history.front(), residual_history.back(), true_res);
  std::printf("  link traffic   : %.1f KB (allgather + scalars)\n",
              static_cast<double>(machine.total_link_bytes()) / 1e3);
  const bool converged = true_res < 1e-8;
  std::printf("  converged to 1e-8: %s\n", converged ? "yes" : "NO");
  return converged ? 0 : 1;
} catch (...) {
  return tools::refused("cg_solver");
}
