// bench_parallel_scaling — scaling trajectory of the conservative parallel
// DES engine (src/sim/parallel_sim.hpp) up to the paper's 12-cube.
//
// The workload has two phases per round, chosen to exercise both regimes
// the engine's distance-aware scheduler must handle:
//
//   dense:  a 16-double dimension-exchange allreduce — every node active,
//           every cube dimension crossed, shard-to-shard lookahead pinned
//           to one hop.
//   sparse: the two most Gray-distant shards run `--hot-iters` sweeps of
//           subcube-internal exchanges while everyone else drains into the
//           next allreduce and blocks. Only two shards stay busy, and they
//           sit the maximum hop count apart — exactly where the pairwise
//           d*transfer_time lookahead matrix buys epochs wider than one
//           hop.
//
// Hot-node selection always uses the *parallel* shard map (even for the
// serial reference row), so every engine/thread configuration simulates
// the identical event sequence and events/sec ratios compare like with
// like. The headline metric is events/sec-per-core: events/sec divided by
// worker threads, i.e. how much simulation each host core advances. On a
// single-core host the thread sweep measures scheduling overhead only.
//
//   $ bench_parallel_scaling [--dims 6,8,10] [--threads 1,2,4] [--rounds N]
//                            [--hot-iters N] [--json out.json]
//   $ bench_parallel_scaling --verify DIM [--verify-out FILE]
//   $ bench_parallel_scaling --metric NAME DUMP.json
//
// Cube dimensions run 1-14 (net::Hypercube's limit). A bad flag value
// exits 2 with one "bench_parallel_scaling: --flag: ..." line.
//
// The JSON gains a `gate` object — events/sec-per-core at the largest
// swept dim <= 10 and the highest thread count — which is what ci.sh's
// scaling gate tracks run over run.
//
// --verify DIM is the determinism gate: it runs the same workload on the
// serial engine, the shards=1 engine, and the sharded engine at 1/2/4
// threads, and demands byte-identical perf dumps (serial == shards=1, and
// all thread counts identical) plus equal event counts and simulated time
// everywhere. Exit 1 on any divergence.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_record.hpp"
#include "bench_util.hpp"
#include "link/link.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "perf/json.hpp"
#include "sim/bits.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/proc.hpp"
#include "tool_util.hpp"

namespace {

using namespace fpst;

constexpr std::size_t kElems = 16;    // doubles per allreduce
constexpr std::size_t kHotElems = 4;  // doubles per sparse exchange
// User tags stay below 0x8000; the collectives' internal tags all carry
// that bit, so the sparse phase can never cross wires with an allreduce.
constexpr std::uint16_t kHotTagBase = 0x0100;

struct Row {
  int dim = 0;
  int shards = 1;   // 1 == the serial engine reference row
  int threads = 1;
  int rounds = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double events_per_sec_per_core = 0.0;
  double sim_ms = 0.0;
  /// Engine profile (parallel rows only): where the wall-clock went.
  sim::ParallelSim::Profile profile;
  bool has_profile = false;
};

/// Fixed shard count per cube: every configuration below simulates the
/// same partition, so events/sec ratios isolate the engine and the
/// host-thread count.
int shards_for(int dim) { return std::min(8, 1 << dim); }

/// The two-phase workload. `placement` is always the parallel ShardMap —
/// the serial reference uses it too, so the hot-node set (and therefore
/// the event sequence) is identical across engines.
occam::Runtime::Body workload(const sim::ShardMap& placement, int rounds,
                              int hot_iters) {
  // Most Gray-distant shard pair, first such pair in scan order so the
  // choice is deterministic.
  int hot_a = 0;
  int hot_b = 0;
  int best = -1;
  for (int a = 0; a < placement.shards(); ++a) {
    for (int b = a + 1; b < placement.shards(); ++b) {
      if (placement.hop_distance(a, b) > best) {
        best = placement.hop_distance(a, b);
        hot_a = a;
        hot_b = b;
      }
    }
  }
  const int internal = placement.dimension() - placement.log2_shards();
  return [placement, rounds, hot_iters, hot_a, hot_b,
          internal](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> xs(kElems, 1.0 + ctx.id());
    const int my_shard =
        placement.shard_of(static_cast<std::uint32_t>(ctx.id()));
    const bool hot = my_shard == hot_a || my_shard == hot_b;
    for (int r = 0; r < rounds; ++r) {
      co_await ctx.allreduce_sum(&xs);
      if (my_shard == hot_a && internal > 0) {
        // Solo stint: every other shard drains into the next allreduce
        // and goes idle, so the engine sees a single busy shard. That
        // shard's horizon is unbounded — the whole stint runs in O(1)
        // epochs at serial-kernel speed, where a single-hop window would
        // pay one epoch per base lookahead.
        for (int it = 0; it < 2 * hot_iters; ++it) {
          for (int d = 0; d < internal; ++d) {
            const auto peer = static_cast<net::NodeId>(
                static_cast<std::uint32_t>(ctx.id()) ^ (1u << d));
            const auto tag = static_cast<std::uint16_t>(kHotTagBase + d);
            std::vector<double> in;
            std::vector<sim::Proc> pair;
            pair.push_back(ctx.send(
                peer, tag, std::vector<double>(kHotElems, xs[0])));
            pair.push_back(ctx.recv(peer, tag, &in));
            co_await sim::WhenAll{std::move(pair)};
            xs[0] += in.at(0);
          }
        }
      }
      if (hot && internal > 0) {
        // Subcube-internal sweeps: every exchanged dimension stays below
        // the shard split, so this phase posts no cross-shard mail — the
        // hot shards run clear to their distance bound while the rest of
        // the machine blocks on the next allreduce. Payload sizes vary by
        // node and iteration, so exchange latencies drift the nodes out
        // of lockstep and the shard's event stream gets denser than one
        // base-lookahead window — the regime where the d*transfer_time
        // bound batches several steps per epoch and a one-hop window
        // cannot.
        for (int it = 0; it < hot_iters; ++it) {
          for (int d = 0; d < internal; ++d) {
            const auto peer = static_cast<net::NodeId>(
                static_cast<std::uint32_t>(ctx.id()) ^ (1u << d));
            const auto tag = static_cast<std::uint16_t>(kHotTagBase + d);
            const std::size_t elems =
                1 + (static_cast<std::size_t>(ctx.id()) +
                     static_cast<std::size_t>(it)) %
                        kHotElems;
            std::vector<double> in;
            std::vector<sim::Proc> pair;
            pair.push_back(
                ctx.send(peer, tag, std::vector<double>(elems, xs[0])));
            pair.push_back(ctx.recv(peer, tag, &in));
            co_await sim::WhenAll{std::move(pair)};
            xs[0] += in.at(0);
          }
        }
      }
    }
  };
}

Row run_serial(int dim, int rounds, int hot_iters) {
  Row row;
  row.dim = dim;
  row.rounds = rounds;
  sim::Simulator sim;
  core::TSeries machine{sim, dim};
  occam::Runtime rt{machine};
  const sim::ShardMap placement{dim, shards_for(dim)};
  const auto t0 = std::chrono::steady_clock::now();
  const sim::SimTime elapsed = rt.run(workload(placement, rounds, hot_iters));
  const auto t1 = std::chrono::steady_clock::now();
  row.events = sim.events_processed();
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.events_per_sec = static_cast<double>(row.events) / row.wall_s;
  row.events_per_sec_per_core = row.events_per_sec;
  row.sim_ms = elapsed.us() / 1000.0;
  return row;
}

Row run_parallel(int dim, int threads, int rounds, int hot_iters) {
  Row row;
  row.dim = dim;
  row.shards = shards_for(dim);
  row.threads = threads;
  row.rounds = rounds;
  sim::ParallelSim::Options po;
  po.shards = row.shards;
  po.threads = threads;
  po.lookahead = link::LinkParams::transfer_time(0);
  sim::ParallelSim psim{po};
  core::TSeries machine{psim, dim};  // installs the distance matrix
  occam::Runtime rt{machine};
  const sim::ShardMap placement{dim, row.shards};
  const auto t0 = std::chrono::steady_clock::now();
  const sim::SimTime elapsed = rt.run(workload(placement, rounds, hot_iters));
  const auto t1 = std::chrono::steady_clock::now();
  row.events = psim.events_processed();
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.events_per_sec = static_cast<double>(row.events) / row.wall_s;
  row.events_per_sec_per_core =
      row.events_per_sec / static_cast<double>(threads);
  row.sim_ms = elapsed.us() / 1000.0;
  row.profile = psim.profile();
  row.has_profile = true;
  return row;
}

std::uint64_t sum_u64(const std::vector<std::uint64_t>& v) {
  std::uint64_t total = 0;
  for (const std::uint64_t x : v) {
    total += x;
  }
  return total;
}

int rounds_for(int dim, int rounds_flag) {
  if (rounds_flag > 0) {
    return rounds_flag;
  }
  // Halve the round count per added cube size step: work per round grows
  // roughly as dim * 2^dim, so this keeps the larger cubes — up to the
  // paper's full 12-cube — tractable while every row still runs long
  // enough to measure.
  return dim >= 12 ? 1 : dim >= 10 ? 2 : dim >= 8 ? 4 : 8;
}

void print_row(const Row& r, double base_eps) {
  if (!r.has_profile) {
    std::printf(
        "  %-4d %-8s %-7s %-6d %11llu %8.3f %12.0f %12.0f %7s %7s %6s %6s "
        "%6s\n",
        r.dim, "serial", "-", r.rounds,
        static_cast<unsigned long long>(r.events), r.wall_s, r.events_per_sec,
        r.events_per_sec_per_core, "-", "-", "-", "-", "-");
    return;
  }
  const double speedup = base_eps > 0.0 ? r.events_per_sec / base_eps : 0.0;
  // busy% / barr%: fraction of total worker wall-clock (threads x run
  // wall) spent executing events vs parked at the epoch barrier. syncs is
  // the total number of shard wakeups — shards whose bound has not expired
  // skip the epoch entirely, so syncs falling below epochs*shards is the
  // hierarchical scheme working.
  const double worker_wall_ns = r.wall_s * 1e9 * r.threads;
  const double busy_frac =
      worker_wall_ns > 0.0
          ? static_cast<double>(sum_u64(r.profile.shard_busy_ns)) /
                worker_wall_ns
          : 0.0;
  const double barrier_frac =
      worker_wall_ns > 0.0
          ? static_cast<double>(sum_u64(r.profile.worker_barrier_ns)) /
                worker_wall_ns
          : 0.0;
  std::printf(
      "  %-4d %-8s %-7d %-6d %11llu %8.3f %12.0f %12.0f %6.2fx %7llu %6llu "
      "%5.0f%% %5.0f%%\n",
      r.dim, "parallel", r.threads, r.rounds,
      static_cast<unsigned long long>(r.events), r.wall_s, r.events_per_sec,
      r.events_per_sec_per_core, speedup,
      static_cast<unsigned long long>(r.profile.epochs),
      static_cast<unsigned long long>(sum_u64(r.profile.shard_syncs)),
      busy_frac * 100.0, barrier_frac * 100.0);
}

perf::json::Value row_to_json(const Row& r) {
  namespace json = perf::json;
  json::Value o = json::Value::object();
  o["dim"] = json::Value::integer(r.dim);
  o["engine"] = json::Value::string(r.shards > 1 ? "parallel" : "serial");
  o["shards"] = json::Value::integer(r.shards);
  o["threads"] = json::Value::integer(r.threads);
  o["rounds"] = json::Value::integer(r.rounds);
  o["events"] = json::Value::integer(static_cast<std::int64_t>(r.events));
  o["wall_s"] = json::Value::number(r.wall_s);
  o["events_per_sec"] = json::Value::number(r.events_per_sec);
  o["events_per_sec_per_core"] =
      json::Value::number(r.events_per_sec_per_core);
  o["sim_ms"] = json::Value::number(r.sim_ms);
  if (r.has_profile) {
    // The shard/barrier profiler: wall-clock accumulators, reported per
    // shard (busy, events, epoch wakeups) and per worker (barrier wait) so
    // the dump answers "why does scaling flatten" directly.
    json::Value prof = json::Value::object();
    prof["epochs"] =
        json::Value::integer(static_cast<std::int64_t>(r.profile.epochs));
    prof["merge_ns"] =
        json::Value::integer(static_cast<std::int64_t>(r.profile.merge_ns));
    prof["mail_delivered"] = json::Value::integer(
        static_cast<std::int64_t>(r.profile.mail_delivered));
    prof["mail_reserve_bytes"] = json::Value::integer(
        static_cast<std::int64_t>(r.profile.mail_reserve_bytes));
    prof["events_per_epoch"] = json::Value::number(
        r.profile.epochs > 0 ? static_cast<double>(r.events) /
                                   static_cast<double>(r.profile.epochs)
                             : 0.0);
    json::Value busy = json::Value::array();
    for (const std::uint64_t ns : r.profile.shard_busy_ns) {
      busy.append(json::Value::integer(static_cast<std::int64_t>(ns)));
    }
    prof["shard_busy_ns"] = std::move(busy);
    json::Value ev = json::Value::array();
    for (const std::uint64_t n : r.profile.shard_events) {
      ev.append(json::Value::integer(static_cast<std::int64_t>(n)));
    }
    prof["shard_events"] = std::move(ev);
    json::Value syncs = json::Value::array();
    for (const std::uint64_t n : r.profile.shard_syncs) {
      syncs.append(json::Value::integer(static_cast<std::int64_t>(n)));
    }
    prof["shard_syncs"] = std::move(syncs);
    json::Value barrier = json::Value::array();
    for (const std::uint64_t ns : r.profile.worker_barrier_ns) {
      barrier.append(json::Value::integer(static_cast<std::int64_t>(ns)));
    }
    prof["worker_barrier_ns"] = std::move(barrier);
    o["profile"] = std::move(prof);
  }
  return o;
}

// ---------------------------------------------------------------------------
// --verify: the determinism gate.

struct VerifyRun {
  std::string dump;
  std::uint64_t events = 0;
  std::int64_t sim_ps = 0;
};

VerifyRun verify_serial(int dim, int rounds, int hot_iters) {
  VerifyRun out;
  sim::Simulator sim;
  core::TSeries machine{sim, dim};
  perf::CounterRegistry reg;
  machine.enable_perf(reg);
  reg.meta().workload = "bench_parallel_scaling verify";
  occam::Runtime rt{machine};
  const sim::ShardMap placement{dim, shards_for(dim)};
  const sim::SimTime elapsed = rt.run(workload(placement, rounds, hot_iters));
  perf::write_dump(out.dump, reg, elapsed);
  out.events = sim.events_processed();
  out.sim_ps = elapsed.ps();
  return out;
}

VerifyRun verify_parallel(int dim, int shards, int threads, int rounds,
                          int hot_iters) {
  VerifyRun out;
  sim::ParallelSim::Options po;
  po.shards = shards;
  po.threads = threads;
  po.lookahead = link::LinkParams::transfer_time(0);
  sim::ParallelSim psim{po};
  core::TSeries machine{psim, dim};
  perf::CounterRegistry reg;
  machine.enable_perf(reg);
  reg.meta().workload = "bench_parallel_scaling verify";
  occam::Runtime rt{machine};
  const sim::ShardMap placement{dim, shards_for(dim)};
  const sim::SimTime elapsed = rt.run(workload(placement, rounds, hot_iters));
  perf::write_dump(out.dump, reg, elapsed);
  out.events = psim.events_processed();
  out.sim_ps = elapsed.ps();
  return out;
}

int run_verify(int dim, int rounds_flag, int hot_iters,
               const std::string& out_path) {
  // One round keeps the full 12-cube verify tractable; the point is the
  // byte comparison, not the throughput.
  const int rounds = rounds_flag > 0 ? rounds_flag : 1;
  const int shards = shards_for(dim);
  bench::title("parallel DES engine: determinism verify");
  std::printf("  dim=%d shards=%d rounds=%d hot-iters=%d\n", dim, shards,
              rounds, hot_iters);

  const VerifyRun serial = verify_serial(dim, rounds, hot_iters);
  const VerifyRun one = verify_parallel(dim, 1, 1, rounds, hot_iters);
  const VerifyRun t1 = verify_parallel(dim, shards, 1, rounds, hot_iters);
  const VerifyRun t2 = verify_parallel(dim, shards, 2, rounds, hot_iters);
  const VerifyRun t4 = verify_parallel(dim, shards, 4, rounds, hot_iters);

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("  %-52s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) {
      ++failures;
    }
  };
  // Engine-level dumps are not byte-comparable across *partitionings*:
  // the serial kernel bootstraps differently (one spawn vs one per node)
  // and sharded machines hand packets over through the engine mailbox.
  // Those equivalences are pinned at engine level by parallel_sim_test.
  // What must hold here, byte for byte, is thread-count independence —
  // and simulated machine time must be identical across every engine and
  // partitioning.
  check(t1.dump == t2.dump, "sharded dump: threads=1 == threads=2");
  check(t1.dump == t4.dump, "sharded dump: threads=1 == threads=4");
  check(t1.events == t2.events && t1.events == t4.events,
        "sharded events identical across thread counts");
  check(t1.sim_ps == t2.sim_ps && t1.sim_ps == t4.sim_ps,
        "sharded sim time identical across thread counts");
  check(one.sim_ps == serial.sim_ps,
        "shards=1 sim time == serial kernel sim time");
  check(t1.sim_ps == serial.sim_ps,
        "sharded sim time == serial kernel sim time");
  check(!t1.dump.empty(), "perf dump non-empty");

  std::printf("  events: serial=%llu sharded=%llu  sim_ps=%lld\n",
              static_cast<unsigned long long>(serial.events),
              static_cast<unsigned long long>(t1.events),
              static_cast<long long>(t1.sim_ps));
  std::printf("  dump digest: %016llx (%zu bytes)\n",
              static_cast<unsigned long long>(bits::fnv1a(t1.dump)),
              t1.dump.size());
  if (!out_path.empty()) {
    if (!tools::write_text("bench_parallel_scaling", out_path, t1.dump)) {
      return 2;
    }
    std::printf("  wrote dump: %s\n", out_path.c_str());
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_parallel_scaling: verify FAILED (%d check(s))\n",
                 failures);
    return 1;
  }
  std::printf("  verify PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> dims{6, 8, 10};
  std::vector<int> threads_list{1, 2, 4};
  if (std::thread::hardware_concurrency() >= 8) {
    threads_list.push_back(8);
  }
  int rounds_flag = 0;
  int hot_iters = 8;
  int verify_dim = 0;
  std::string json_out;
  std::string verify_out;
  std::string metric;
  std::vector<std::string> record;
  // The workload runs 2 * hot_iters sweeps, which must not overflow.
  if (!tools::Flags{"bench_parallel_scaling"}
           .list("--dims", &dims, 1, 14)
           .list("--threads", &threads_list, 1)
           .number("--rounds", &rounds_flag, 1)
           .number("--hot-iters", &hot_iters, 0, (1 << 30) - 1)
           .number("--verify", &verify_dim, 1, 14)
           .text("--verify-out", &verify_out)
           .text("--json", &json_out)
           .text("--metric", &metric)
           .positional(&record)
           .parse(argc, argv)) {
    return 2;
  }
  if (!metric.empty() || !record.empty()) {
    return bench::print_metric("bench_parallel_scaling", metric, record);
  }
  if (verify_dim > 0) {
    return run_verify(verify_dim, rounds_flag, hot_iters, verify_out);
  }

  bench::title("parallel DES engine: scaling trajectory");
  std::printf("  host cores: %u\n", std::thread::hardware_concurrency());
  std::printf("  %-4s %-8s %-7s %-6s %11s %8s %12s %12s %7s %7s %6s %6s %6s\n",
              "dim", "engine", "threads", "rounds", "events", "wall_s",
              "events/sec", "ev/s/core", "speedup", "epochs", "syncs",
              "busy%", "barr%");

  std::vector<Row> rows;
  for (const int dim : dims) {
    const int rounds = rounds_for(dim, rounds_flag);
    Row serial = run_serial(dim, rounds, hot_iters);
    print_row(serial, 0.0);
    rows.push_back(serial);

    double base_eps = 0.0;
    for (const int t : threads_list) {
      Row r = run_parallel(dim, t, rounds, hot_iters);
      if (t == threads_list.front()) {
        base_eps = r.events_per_sec;
      }
      print_row(r, base_eps);
      rows.push_back(r);
    }
  }

  // The gate point: largest swept dim <= 10 (the 12-cube is the nightly
  // sweep's job; gating on it would make every CI run minutes long) at the
  // highest thread count. The sweep already ran that row.
  int gate_dim = 0;
  for (const int d : dims) {
    if (d <= 10 && d > gate_dim) {
      gate_dim = d;
    }
  }
  if (gate_dim == 0) {
    gate_dim = *std::min_element(dims.begin(), dims.end());
  }
  const int gate_threads =
      *std::max_element(threads_list.begin(), threads_list.end());
  const Row& gate = *std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
    return r.has_profile && r.dim == gate_dim && r.threads == gate_threads;
  });
  std::printf("  gate: dim=%d shards=%d threads=%d ev/s/core: %.0f\n",
              gate_dim, gate.shards, gate_threads,
              gate.events_per_sec_per_core);

  if (!json_out.empty()) {
    namespace json = perf::json;
    json::Value meta = json::Value::object();
    meta["hot_iters"] = json::Value::integer(hot_iters);
    json::Value results = json::Value::object();
    json::Value arr = json::Value::array();
    for (const Row& r : rows) {
      arr.append(row_to_json(r));
    }
    results["rows"] = std::move(arr);
    json::Value g = json::Value::object();
    g["dim"] = json::Value::integer(gate_dim);
    g["shards"] = json::Value::integer(gate.shards);
    g["threads"] = json::Value::integer(gate_threads);
    g["rounds"] = json::Value::integer(gate.rounds);
    g["events_per_sec_per_core"] =
        json::Value::number(gate.events_per_sec_per_core);
    results["gate"] = std::move(g);
    bench::write_record(json_out, "bench_parallel_scaling", std::move(results),
                        std::move(meta));
    std::printf("wrote perf dump: %s\n", json_out.c_str());
  }
  return 0;
}
