// E11 — application-level behaviour of the machine: speedup of the paper's
// motivating workloads over machine sizes, and the matmul
// communication/computation crossover predicted by the 1:130 balance rule
// (2*blk flops per transferred word => communication-bound when
// blk = n/P < ~65).
//
// `--batch-sweep` instead measures the *host* cost of simulating the vector
// arithmetic: the same resident-array SAXPY workload runs twice per cube
// size, once with the softfloat oracle and once with the batch host-FP arm,
// and the wall-clock ratio is the batch arm's speedup. Results must be
// bit-identical and the simulated time equal — the arm only changes how
// fast the host computes, never what the machine computes. The sweep's
// dump is the CI trajectory record BENCH_kernels.json.
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/machine.hpp"
#include "kernels/kernels.hpp"
#include "node/node.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "perf/tscope.hpp"
#include "sim/simulator.hpp"
#include "vpu/vpu.hpp"

using namespace fpst;
using kernels::KernelResult;

namespace {

namespace json = perf::json;

/// One (cube size, vpu mode) measurement of the resident-array SAXPY storm.
struct SweepRow {
  int dim = 0;
  vpu::VpuMode mode = vpu::VpuMode::softfloat;
  double wall_s = 0.0;
  double sim_us = 0.0;
  std::uint64_t events = 0;
  std::uint64_t elem_ops = 0;       // elements pushed through the pipes
  double elem_ops_per_sec = 0.0;
  std::uint64_t result_hash = 0;    // FNV-1a over every node's z bits
};

/// The sweep workload: every node holds x, y, z resident in its banks and
/// runs `rounds` full-array VSAXPYs — vector-op dominated on purpose, so
/// the wall-clock ratio isolates the arithmetic arm rather than staging.
SweepRow run_sweep_point(int dim, vpu::VpuMode mode, int rounds,
                         std::size_t elems) {
  sim::Simulator sim;
  node::NodeConfig ncfg;
  ncfg.vpu_mode = mode;
  core::TSeries machine{sim, dim, ncfg};

  std::vector<node::Array32> xs(machine.size());
  std::vector<node::Array32> ys(machine.size());
  std::vector<node::Array32> zs(machine.size());
  for (net::NodeId id = 0; id < machine.size(); ++id) {
    node::Node& nd = machine.node(id);
    xs[id] = nd.alloc32(mem::Bank::A, elems);
    ys[id] = nd.alloc32(mem::Bank::B, elems);
    zs[id] = nd.alloc32(mem::Bank::B, elems);
    std::vector<float> x(elems);
    std::vector<float> y(elems);
    for (std::size_t i = 0; i < elems; ++i) {
      // Adversarially mixed magnitudes (kept well inside binary32 range so
      // the mix stresses the flag detection, not just the rerun path).
      x[i] = static_cast<float>(
          (1.0 + static_cast<double>((id * 131 + i * 7) % 1000) / 512.0) *
          ((i % 3) == 0 ? 1e-30 : 1.0));
      y[i] = static_cast<float>(
          (0.5 + static_cast<double>((id * 17 + i) % 255) / 256.0) *
          ((i % 5) == 0 ? 1e30 : 1.0));
    }
    nd.write32(xs[id], x);
    nd.write32(ys[id], y);
  }

  occam::Runtime rt{machine};
  const auto t0 = std::chrono::steady_clock::now();
  const sim::SimTime elapsed =
      rt.run([&](occam::Ctx& ctx) -> sim::Proc {
        node::Node& nd = ctx.node();
        for (int r = 0; r < rounds; ++r) {
          co_await nd.vscalar32(vpu::VectorForm::vsaxpy, 1.0 + 0x1p-20,
                                xs[ctx.id()], ys[ctx.id()], zs[ctx.id()]);
        }
      });
  const auto t1 = std::chrono::steady_clock::now();

  SweepRow row;
  row.dim = dim;
  row.mode = mode;
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.sim_us = elapsed.us();
  row.events = sim.events_processed();
  row.elem_ops = static_cast<std::uint64_t>(machine.size()) *
                 static_cast<std::uint64_t>(rounds) * elems;
  row.elem_ops_per_sec =
      row.wall_s > 0.0 ? static_cast<double>(row.elem_ops) / row.wall_s : 0.0;
  row.result_hash = 14695981039346656037ULL;
  for (net::NodeId id = 0; id < machine.size(); ++id) {
    for (const float v : machine.node(id).read32(zs[id])) {
      std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
      for (int b = 0; b < 4; ++b) {
        row.result_hash ^= (bits >> (8 * b)) & 0xff;
        row.result_hash *= 1099511628211ULL;
      }
    }
  }
  return row;
}

json::Value sweep_row_to_json(const SweepRow& r) {
  json::Value o = json::Value::object();
  o["dim"] = json::Value::integer(r.dim);
  o["nodes"] = json::Value::integer(1 << r.dim);
  o["mode"] = json::Value::string(vpu::to_string(r.mode));
  o["wall_s"] = json::Value::number(r.wall_s);
  o["sim_us"] = json::Value::number(r.sim_us);
  o["events"] = json::Value::integer(static_cast<std::int64_t>(r.events));
  o["elem_ops"] = json::Value::integer(static_cast<std::int64_t>(r.elem_ops));
  o["elem_ops_per_sec"] = json::Value::number(r.elem_ops_per_sec);
  char hash[20];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(r.result_hash));
  o["result_hash"] = json::Value::string(hash);
  return o;
}

/// `--metric NAME FILE`: print one value from a recorded --json dump,
/// looked up in `results` then `meta` — the binary that owns the schema
/// does the extraction for ci.sh (same idiom as bench_simcore/bench_serve).
int print_metric(const std::string& name, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_kernels_scaling: cannot open %s\n",
                 path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  json::Value doc;
  try {
    doc = json::Value::parse(ss.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_kernels_scaling: %s: %s\n", path.c_str(),
                 e.what());
    return 2;
  }
  const json::Value* v = nullptr;
  for (const char* section : {"results", "meta"}) {
    if (const json::Value* s = doc.find(section);
        v == nullptr && s != nullptr) {
      v = s->find(name);
    }
  }
  if (v == nullptr) {
    std::fprintf(stderr, "bench_kernels_scaling: no metric '%s' in %s\n",
                 name.c_str(), path.c_str());
    return 2;
  }
  if (v->is_string()) {
    std::printf("%s\n", v->as_string().c_str());
  } else if (v->is_number()) {
    std::printf("%.17g\n", v->as_double());
  } else if (v->kind() == json::Value::Kind::boolean) {
    std::printf("%s\n", v->as_bool() ? "true" : "false");
  } else {
    std::printf("%s\n", v->dump().c_str());
  }
  return 0;
}

const char* build_flavour() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitized";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitized";
#else
  return "release";
#endif
#else
  return "release";
#endif
}

int run_batch_sweep(const std::vector<int>& dims, int rounds,
                    std::size_t elems, int repeats,
                    const std::string& json_out) {
  bench::title("VPU batch arm: host wall-clock sweep");
  std::printf(
      "  resident-array f32 SAXPY, %d rounds x %zu elems per node, "
      "best of %d\n",
      rounds, elems, repeats);
  std::printf("  %6s %10s | %10s %10s %8s | %14s %6s\n", "nodes", "mode",
              "wall_s", "Melems/s", "events", "sim time", "bits");

  json::Value rows = json::Value::array();
  json::Value speedups = json::Value::array();
  bool bit_identical = true;
  double headline_speedup = 0.0;
  double headline_eps = 0.0;
  for (const int dim : dims) {
    SweepRow soft;
    SweepRow batch;
    for (const vpu::VpuMode mode :
         {vpu::VpuMode::softfloat, vpu::VpuMode::batch}) {
      // Wall-clock on a shared host is noisy; the minimum over a few
      // identical deterministic runs estimates the machine-limited time.
      // Simulated results must not vary across repeats — that would be a
      // determinism bug, and the bit-identity check below would trip on it.
      SweepRow r = run_sweep_point(dim, mode, rounds, elems);
      for (int rep = 1; rep < repeats; ++rep) {
        SweepRow again = run_sweep_point(dim, mode, rounds, elems);
        if (again.result_hash != r.result_hash || again.sim_us != r.sim_us ||
            again.events != r.events) {
          bit_identical = false;
        }
        if (again.wall_s < r.wall_s) {
          r.wall_s = again.wall_s;
          r.elem_ops_per_sec = again.elem_ops_per_sec;
        }
      }
      std::printf("  %6d %10s | %10.3f %10.2f %8llu | %14.0f %6s\n",
                  1 << r.dim, vpu::to_string(r.mode), r.wall_s,
                  r.elem_ops_per_sec / 1e6,
                  static_cast<unsigned long long>(r.events), r.sim_us,
                  mode == vpu::VpuMode::softfloat
                      ? "-"
                      : (r.result_hash == soft.result_hash &&
                                 r.sim_us == soft.sim_us &&
                                 r.events == soft.events
                             ? "same"
                             : "DIFF"));
      rows.append(sweep_row_to_json(r));
      (mode == vpu::VpuMode::softfloat ? soft : batch) = r;
    }
    const bool same = batch.result_hash == soft.result_hash &&
                      batch.sim_us == soft.sim_us &&
                      batch.events == soft.events;
    bit_identical = bit_identical && same;
    const double speedup =
        batch.wall_s > 0.0 ? soft.wall_s / batch.wall_s : 0.0;
    std::printf("  %6d %10s | %.2fx wall-clock speedup\n", 1 << dim,
                "batch", speedup);
    json::Value s = json::Value::object();
    s["dim"] = json::Value::integer(dim);
    s["speedup"] = json::Value::number(speedup);
    speedups.append(std::move(s));
    // The headline is the largest cube in the sweep.
    headline_speedup = speedup;
    headline_eps = batch.elem_ops_per_sec;
  }
  std::printf("\n  bit-identical across modes: %s\n",
              bit_identical ? "yes" : "NO");

  if (!json_out.empty()) {
    json::Value doc = json::Value::object();
    doc["meta"] = json::Value::object();
    doc["meta"]["workload"] =
        json::Value::string("bench_kernels_scaling --batch-sweep (f32 vsaxpy)");
    doc["meta"]["build"] = json::Value::string(build_flavour());
    doc["meta"]["rounds"] = json::Value::integer(rounds);
    doc["meta"]["elems"] =
        json::Value::integer(static_cast<std::int64_t>(elems));
    doc["meta"]["repeats"] = json::Value::integer(repeats);
    doc["results"] = json::Value::object();
    doc["results"]["rows"] = std::move(rows);
    doc["results"]["speedups"] = std::move(speedups);
    doc["results"]["batch_speedup"] = json::Value::number(headline_speedup);
    doc["results"]["elem_ops_per_sec"] = json::Value::number(headline_eps);
    doc["results"]["bit_identical"] = json::Value::boolean(bit_identical);
    perf::write_file(json_out, doc);
    std::printf("  wrote perf dump: %s\n", json_out.c_str());
  }
  return bit_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Sub-modes first: `--metric NAME FILE` extraction and `--batch-sweep`.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--metric") {
      if (i + 2 >= argc) {
        std::fprintf(
            stderr, "usage: bench_kernels_scaling --metric NAME DUMP.json\n");
        return 2;
      }
      return print_metric(argv[i + 1], argv[i + 2]);
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--batch-sweep") {
      continue;
    }
    std::vector<int> dims{6, 10};
    int rounds = 8;
    std::size_t elems = 2048;
    int repeats = 3;
    std::string json_out;
    for (int j = 1; j < argc; ++j) {
      const std::string arg = argv[j];
      if (arg == "--batch-sweep") {
        continue;
      }
      if (arg == "--dims" && j + 1 < argc) {
        dims.clear();
        const std::string list = argv[++j];
        std::stringstream ls(list);
        std::string tok;
        while (std::getline(ls, tok, ',')) {
          const int d = std::atoi(tok.c_str());
          if (d < 0 || d > 10) {
            std::fprintf(stderr,
                         "bench_kernels_scaling: bad dim '%s' (0..10)\n",
                         tok.c_str());
            return 2;
          }
          dims.push_back(d);
        }
      } else if (arg == "--rounds" && j + 1 < argc) {
        rounds = std::atoi(argv[++j]);
      } else if (arg == "--elems" && j + 1 < argc) {
        elems = static_cast<std::size_t>(std::atol(argv[++j]));
      } else if (arg == "--repeats" && j + 1 < argc) {
        repeats = std::atoi(argv[++j]);
      } else if (arg == "--json" && j + 1 < argc) {
        json_out = argv[++j];
      } else {
        std::fprintf(stderr,
                     "usage: bench_kernels_scaling --batch-sweep "
                     "[--dims D,D...] [--rounds N] [--elems N] [--repeats N] "
                     "[--json out.json]\n");
        return 2;
      }
    }
    if (rounds < 1 || elems < 1 || repeats < 1 || dims.empty()) {
      std::fprintf(stderr, "bench_kernels_scaling: counts must be positive\n");
      return 2;
    }
    return run_batch_sweep(dims, rounds, elems, repeats, json_out);
  }

  const std::string json_path = bench::json_path_from_args(argc, argv);
  bench::title("E11: kernels across machine sizes");

  bench::section("SAXPY (256K elements) and DOT (256K elements)");
  std::printf("  %6s | %14s %9s | %14s %9s\n", "nodes", "saxpy time",
              "speedup", "dot time", "speedup");
  perf::json::Value saxpy_rows = perf::json::Value::array();
  const KernelResult s1 = kernels::run_saxpy(0, 1 << 18, 2.0);
  const KernelResult d1 = kernels::run_dot(0, 1 << 18);
  for (int dim : {0, 1, 2, 3, 4, 5}) {
    const KernelResult s = kernels::run_saxpy(dim, 1 << 18, 2.0);
    const KernelResult d = kernels::run_dot(dim, 1 << 18);
    std::printf("  %6d | %14s %8.2fx | %14s %8.2fx\n", 1 << dim,
                s.elapsed.to_string().c_str(), s1.elapsed / s.elapsed,
                d.elapsed.to_string().c_str(), d1.elapsed / d.elapsed);
    perf::json::Value row = perf::json::Value::object();
    row["nodes"] = perf::json::Value::integer(1 << dim);
    row["saxpy_us"] = perf::json::Value::number(s.elapsed.us());
    row["saxpy_mflops"] = perf::json::Value::number(s.mflops());
    row["dot_us"] = perf::json::Value::number(d.elapsed.us());
    saxpy_rows.append(std::move(row));
  }

  bench::section("32-bit vs 64-bit SAXPY (64K elements, 8 nodes)");
  {
    const KernelResult s64 = kernels::run_saxpy(3, 1 << 16, 1.5);
    const KernelResult s32 = kernels::run_saxpy32(3, 1 << 16, 1.5f);
    std::printf("  64-bit: %s (%.2f MFLOPS)   32-bit: %s (%.2f MFLOPS)\n",
                s64.elapsed.to_string().c_str(), s64.mflops(),
                s32.elapsed.to_string().c_str(), s32.mflops());
    std::printf(
        "  -> same one-result-per-125ns beat either way; 32-bit packs 256\n"
        "     elements per vector so row staging halves and short-vector\n"
        "     overheads amortise further.\n");
  }

  bench::section("dense matmul 256x256: speedup and the balance rule");
  std::printf("  %6s %8s %12s | %14s %9s %9s\n", "nodes", "blk",
              "flops/word", "time", "speedup", "MFLOPS");
  const KernelResult m1 = kernels::run_matmul(0, 256);
  for (int dim : {0, 1, 2, 3, 4}) {
    const KernelResult m = kernels::run_matmul(dim, 256);
    const std::size_t blk = 256 >> dim;
    std::printf("  %6d %8zu %12zu | %14s %8.2fx %9.2f\n", 1 << dim, blk,
                2 * blk, m.elapsed.to_string().c_str(),
                m1.elapsed / m.elapsed, m.mflops());
  }
  std::printf(
      "  -> speedup holds while 2*blk (flops per transferred word) stays\n"
      "     above the ~130 threshold of the paper's balance table, and\n"
      "     stalls once the rotating panel's link time dominates.\n");

  bench::section("FFT, 4096 complex points");
  std::printf("  %6s | %14s %9s %12s\n", "nodes", "time", "speedup",
              "link bytes");
  const KernelResult f1 = kernels::run_fft(0, 4096);
  for (int dim : {0, 1, 2, 3, 4}) {
    const KernelResult f = kernels::run_fft(dim, 4096);
    std::printf("  %6d | %14s %8.2fx %12llu\n", 1 << dim,
                f.elapsed.to_string().c_str(), f1.elapsed / f.elapsed,
                static_cast<unsigned long long>(f.link_bytes));
  }

  std::printf(
      "  -> small cubes lose to block exchanges (each cross stage moves the\n"
      "     whole local block at 0.5 MB/s); once enough nodes shrink the\n"
      "     per-node block, speedup returns — who wins flips with size,\n"
      "     as the 1:130 balance predicts.\n");

  bench::section("Gauss elimination with physical-row pivoting, n = 64");
  std::printf("  %6s | %14s %9s %14s\n", "nodes", "time", "speedup",
              "max |U - ref|");
  const KernelResult g1 = kernels::run_gauss(0, 64);
  for (int dim : {0, 1, 2, 3}) {
    const KernelResult g = kernels::run_gauss(dim, 64);
    std::printf("  %6d | %14s %8.2fx %14g\n", 1 << dim,
                g.elapsed.to_string().c_str(), g1.elapsed / g.elapsed,
                g.checksum);
  }

  std::printf(
      "  -> the machine's U factor is bit-identical to the host algorithm\n"
      "     at every size. Elimination moves n words (pivot broadcast) for\n"
      "     n^2/P flops per step: flops/word = n/P = %d..%d here, far below\n"
      "     the ~130 balance threshold, so small systems anti-scale — the\n"
      "     paper's rule says pivoting pays only for n in the thousands.\n",
      64 / 8, 64 / 1);

  bench::section("Jacobi relaxation, 64x64 grid, 10 sweeps");
  std::printf("  %6s | %14s %9s\n", "nodes", "time", "speedup");
  const KernelResult l1 = kernels::run_laplace(0, 64, 10);
  for (int dim : {0, 1, 2, 3}) {
    const KernelResult l = kernels::run_laplace(dim, 64, 10);
    std::printf("  %6d | %14s %8.2fx\n", 1 << dim,
                l.elapsed.to_string().c_str(), l1.elapsed / l.elapsed);
  }

  bench::section("distributed sort, 4096 keys (odd-even on the Gray ring)");
  std::printf("  %6s | %14s %9s %12s\n", "nodes", "time", "speedup",
              "link bytes");
  const KernelResult so1 = kernels::run_distributed_sort(0, 4096);
  for (int dim : {0, 1, 2, 3, 4}) {
    const KernelResult so = kernels::run_distributed_sort(dim, 4096);
    std::printf("  %6d | %14s %8.2fx %12llu\n", 1 << dim,
                so.elapsed.to_string().c_str(), so1.elapsed / so.elapsed,
                static_cast<unsigned long long>(so.link_bytes));
  }
  std::printf(
      "  -> local sort work shrinks as blk*log(blk)/P but the P merge-split\n"
      "     phases each move whole blocks at 0.5 MB/s: another balance-rule\n"
      "     shape, with a shallow optimum at moderate machine sizes.\n");

  if (!json_path.empty()) {
    // Re-run the 4-node SAXPY with machine-wide perf collection attached
    // and dump counters + spans + the scaling table above.
    perf::CounterRegistry reg;
    const KernelResult traced = kernels::run_saxpy(2, 1 << 16, 2.0, {}, &reg);
    perf::json::Value results = perf::json::Value::object();
    results["saxpy_scaling"] = std::move(saxpy_rows);
    results["traced_mflops"] = perf::json::Value::number(traced.mflops());
    // Message-latency percentiles come from a traced 4-node DOT: saxpy is
    // embarrassingly parallel (no link traffic), but dot ends in a
    // hypercube allreduce, so its dump carries real message-lifecycle
    // events for the tscope stitcher.
    perf::CounterRegistry dot_reg;
    const KernelResult traced_dot = kernels::run_dot(2, 1 << 16, {}, &dot_reg);
    results["messages_workload"] = perf::json::Value::string("dot");
    results["messages"] = perf::messages_to_json(
        perf::analyze_messages(perf::snapshot(dot_reg, traced_dot.elapsed)));
    perf::write_file(json_path, reg, traced.elapsed, results);
    std::printf("\n  wrote perf dump: %s\n", json_path.c_str());
  }
  return 0;
}
