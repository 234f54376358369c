// Occam-style process pipeline across the Gray-code ring: a data source at
// ring position 0 streams blocks through a chain of worker nodes (each
// applies one SAXPY stage) to a sink — the systolic idiom Occam programs
// used, running over real simulated links with store-and-forward timing.
//
//   $ ./occam_pipeline [blocks] [block_elems]
#include <cstdio>

#include "kernels/kernels.hpp"
#include "net/hypercube.hpp"
#include "occam/occam.hpp"
#include "tool_util.hpp"

using namespace fpst;

int main(int argc, char** argv) try {
  // A stage holds one block in its bank A: 256 rows of 128 doubles.
  std::size_t blocks = 16;
  std::size_t elems = 128;
  if (!tools::Flags{"occam_pipeline"}
           .number("blocks", &blocks, 1)
           .number("block_elems", &elems, 1, 32768)
           .parse(argc, argv)) {
    return 2;
  }

  sim::Simulator sim;
  core::TSeries machine{sim, 3};  // 8 stages around the Gray ring
  occam::Runtime rt{machine};
  const std::size_t stages = machine.size();

  // Each node stages a scratch array for its SAXPY.
  std::vector<node::Array64> bufs(stages);
  for (net::NodeId id = 0; id < stages; ++id) {
    bufs[id] = machine.node(id).alloc64(mem::Bank::A, elems);
  }

  std::vector<double> sink_checksums;
  const sim::SimTime elapsed = rt.run([&](occam::Ctx& ctx) -> sim::Proc {
    const std::size_t pos = net::gray_inverse(ctx.id());
    const net::NodeId next =
        net::gray(static_cast<std::uint32_t>((pos + 1) % stages));
    const net::NodeId prev = net::gray(
        static_cast<std::uint32_t>((pos + stages - 1) % stages));
    for (std::size_t b = 0; b < blocks; ++b) {
      std::vector<double> data;
      if (pos == 0) {
        data.resize(elems);
        for (std::size_t i = 0; i < elems; ++i) {
          data[i] = kernels::synth(71, b * elems + i);
        }
      } else {
        co_await ctx.recv(prev, 42, &data);
      }
      if (pos + 1 < stages) {
        // Worker stage: y := 1.01*y + stage_bias, then pass downstream.
        ctx.node().write64(bufs[ctx.id()], data);
        co_await ctx.node().vscalar(vpu::VectorForm::vsmul, 1.01,
                                    bufs[ctx.id()], node::Array64{},
                                    bufs[ctx.id()]);
        data = ctx.node().read64(bufs[ctx.id()]);
        co_await ctx.send(next, 42, std::move(data));
      } else {
        // Sink: reduce the block to a checksum.
        double sum = 0;
        for (double v : data) {
          sum += v;
        }
        sink_checksums.push_back(sum);
      }
    }
  });

  std::printf("pipeline of %zu stages processed %zu blocks x %zu elements\n",
              stages, blocks, elems);
  std::printf("  simulated time      : %s\n", elapsed.to_string().c_str());
  std::printf("  per-block pipeline  : ~%s once full\n",
              ((elapsed) / static_cast<std::int64_t>(blocks))
                  .to_string()
                  .c_str());
  std::printf("  sink saw %zu blocks; first checksum %.6f, last %.6f\n",
              sink_checksums.size(), sink_checksums.front(),
              sink_checksums.back());
  return sink_checksums.size() == blocks ? 0 : 1;
} catch (...) {
  return tools::refused("occam_pipeline");
}
