// E12 — engineering benchmarks of the simulator itself (google-benchmark):
// DES event throughput, channel and fork-join costs, soft-float operation
// rates, interpreter speed, tperf dump serialisation.
// These gate how large a machine the reproduction can simulate on a laptop.
//
// `--json <path>` skips google-benchmark and instead writes a BENCH record
// (bench_record.hpp) with the measured event throughput of the two queue
// arms, so ci.sh can track the engine's perf trajectory (BENCH_simcore.json)
// and gate on regressions; `--metric NAME FILE` reads one back. The record
// also holds the host cost of the occam message path by machine size
// (ungated): ns per event of a perf-off allreduce at the 6-, 7-, 10- and
// 12-cube and of the same allreduce with perf attached at the 6- and
// 10-cube, the path's allocations per message, and the state each node
// holds after a run; at the 7-, 10- and 12-cube, a served job's fixed cost
// per node: building a perf-on machine and freeing it; and, at the 7- and
// 10-cube, the same for a saxpy job, whose staged arrays take node arrays
// from the pool and return them.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "bench_util.hpp"
#include "core/machine.hpp"
#include "cp/assembler.hpp"
#include "cp/cpu.hpp"
#include "fp/softfloat.hpp"
#include "mem/memory.hpp"
#include "node/node.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "tool_util.hpp"

namespace {

/// Every operator new this process makes, for allocs_per_message.
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace fpst;

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const std::int64_t n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule(sim::SimTime::nanoseconds(i % 1000), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueue)->Arg(1 << 12)->Arg(1 << 16);

sim::Proc chain(sim::Simulator*, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim::Delay{sim::SimTime::nanoseconds(1)};
  }
}

void BM_CoroutineDelays(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim.spawn(chain(&sim, static_cast<int>(state.range(0))));
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CoroutineDelays)->Arg(1 << 12);

// Messaging primitives in isolation: the rendezvous and the fork-join every
// occam message goes through. Neither allocates once the thread's frame
// lists are warm.
sim::Proc ping(sim::Channel<int>* out, sim::Channel<int>* in, int n) {
  for (int i = 0; i < n; ++i) {
    co_await out->send(i);
    benchmark::DoNotOptimize(co_await in->recv());
  }
}

sim::Proc pong(sim::Channel<int>* in, sim::Channel<int>* out, int n) {
  for (int i = 0; i < n; ++i) {
    const int v = co_await in->recv();
    co_await out->send(v);
  }
}

void BM_ChannelPingPong(benchmark::State& state) {
  // Items are rendezvous: two per round trip.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Channel<int> there{sim};
    sim::Channel<int> back{sim};
    sim.spawn(ping(&there, &back, n));
    sim.spawn(pong(&there, &back, n));
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_ChannelPingPong)->Arg(1 << 12);

sim::Proc send_one(sim::Channel<int>* ch, int v) { co_await ch->send(v); }

sim::Proc recv_one(sim::Channel<int>* ch) {
  benchmark::DoNotOptimize(co_await ch->recv());
}

sim::Proc exchanges(sim::Channel<int>* ch, int n) {
  for (int i = 0; i < n; ++i) {
    // Ctx::exchange's shape: a PAR of one send and one receive.
    co_await sim::WhenAll{send_one(ch, i), recv_one(ch)};
  }
}

void BM_WhenAllForkJoin(benchmark::State& state) {
  // Items are fork-joins, each with one rendezvous between its children.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Channel<int> ch{sim};
    sim.spawn(exchanges(&ch, n));
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WhenAllForkJoin)->Arg(1 << 12);

void BM_SoftFloatAdd64(benchmark::State& state) {
  fp::Flags fl;
  fp::T64 a = fp::T64::from_double(1.234567);
  const fp::T64 b = fp::T64::from_double(7.654321e-3);
  for (auto _ : state) {
    a = add(a, b, fl);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoftFloatAdd64);

void BM_SoftFloatMul64(benchmark::State& state) {
  fp::Flags fl;
  fp::T64 a = fp::T64::from_double(1.0000001);
  const fp::T64 b = fp::T64::from_double(0.9999999);
  for (auto _ : state) {
    a = mul(a, b, fl);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoftFloatMul64);

void BM_InterpreterLoop(benchmark::State& state) {
  // Host-seconds per simulated TISA instruction.
  const cp::Program p = cp::assemble(R"(
      ldc 20000
      stl 0
   loop:
      ldl 0
      adc -1
      stl 0
      ldl 0
      cj done
      j loop
   done:
      halt
  )");
  for (auto _ : state) {
    sim::Simulator sim;
    mem::NodeMemory memory;
    vpu::VectorUnit vpu{memory};
    cp::Cpu cpu{sim, memory, vpu};
    cpu.load(p);
    cpu.start_process(p.entry(), 0x8000, 1);
    sim.spawn(cpu.run());
    sim.run();
    state.counters["sim_instructions"] = benchmark::Counter(
        static_cast<double>(cpu.instructions_executed()),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_InterpreterLoop)->Unit(benchmark::kMillisecond);

void BM_WriteDump(benchmark::State& state) {
  // Serialisation: perf::write_dump of a perf-attached 7-cube's registry
  // after an 8-round, 16-element allreduce, the dump serve streams for such
  // a job (about 9.9 MB). Each iteration writes into a fresh string.
  sim::Simulator sim;
  core::TSeries machine{sim, 7};
  occam::Runtime rt{machine};
  perf::CounterRegistry reg;
  machine.enable_perf(reg);
  const sim::SimTime wall = rt.run([](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> xs(16, static_cast<double>(ctx.id()));
    for (int r = 0; r < 8; ++r) {
      co_await ctx.allreduce_sum(&xs);
    }
  });
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    perf::write_dump(out, reg, wall);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WriteDump)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json mode: direct wall-clock measurement of DES event throughput, as a
// BENCH record. Kept separate from google-benchmark so the CI gate
// reads one stable headline number per arm.

double measure_closure_events_per_sec(int n, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator sim;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      sim.schedule(sim::SimTime::nanoseconds(i % 1000), [] {});
    }
    sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    best = std::max(best, static_cast<double>(n) / secs);
  }
  return best;
}

double measure_resume_events_per_sec(int n, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    sim::Simulator sim;
    // 64 concurrent delay chains keep the queue populated, matching the
    // many-processes shape of real machine runs.
    constexpr int kChains = 64;
    for (int c = 0; c < kChains; ++c) {
      sim.spawn(chain(&sim, n / kChains));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t executed = sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    best = std::max(best, static_cast<double>(executed) / secs);
  }
  return best;
}

// One rep is only a few milliseconds, so a single best-of-N is at the mercy
// of CPU frequency ramp-up and (on shared hosts) steal time landing in that
// window. Keep taking reps for a fixed wall-clock budget and report the best:
// any steal-free window during the budget yields the machine's true rate,
// which is what the run-over-run CI gate needs to be stable against.
double best_over_budget(double (*measure)(int, int), int n,
                        std::chrono::milliseconds budget) {
  double best = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    best = std::max(best, measure(n, 1));
  } while (std::chrono::steady_clock::now() - t0 < budget);
  return best;
}

/// Bytes this process holds resident (VmRSS).
double resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kb = 0.0;
      status >> kb;
      return kb * 1024.0;
    }
  }
  return 0.0;
}

/// The host cost of the occam message path on a `dim`-cube.
struct MessagePath {
  double ns_per_event = 0.0;  ///< best run's engine time per event
  double allocs_per_message = 0.0;  ///< in the last run
  double state_bytes_per_node = 0.0;  ///< RSS growth over the first run
};

/// Runs of an 8-round, 16-element allreduce on a `dim`-cube, each on a
/// fresh machine, for at least `budget` and at least one run. With `perf`,
/// a fresh registry is attached by enable_perf before each run, as serve
/// attaches one. Only Runtime::run is timed. The first run's machine also
/// gives the state per node: the growth of the process's resident set from
/// before the machine was built to after its run, over the node count.
MessagePath measure_message_path(int dim, bool perf,
                                 std::chrono::milliseconds budget) {
  constexpr int kRounds = 8;
  constexpr std::size_t kElems = 16;
  const occam::Runtime::Body body = [](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> xs(kElems, static_cast<double>(ctx.id()));
    for (int r = 0; r < kRounds; ++r) {
      co_await ctx.allreduce_sum(&xs);
    }
  };
  MessagePath m;
  const auto t0 = std::chrono::steady_clock::now();
  for (bool first = true;
       first || std::chrono::steady_clock::now() - t0 < budget;
       first = false) {
    malloc_trim(0);  // earlier machines' freed bytes must not hide growth
    const double rss_before = resident_bytes();
    perf::CounterRegistry reg;
    sim::Simulator sim;
    core::TSeries machine{sim, dim};
    occam::Runtime rt{machine};
    if (perf) {
      machine.enable_perf(reg);
    }
    const std::uint64_t allocs_before = g_allocations.load();
    const auto run0 = std::chrono::steady_clock::now();
    rt.run(body);
    const auto run1 = std::chrono::steady_clock::now();
    const double messages = static_cast<double>(kRounds * dim) *
                            static_cast<double>(machine.size());
    m.allocs_per_message =
        static_cast<double>(g_allocations.load() - allocs_before) / messages;
    const double ns =
        std::chrono::duration<double, std::nano>(run1 - run0).count() /
        static_cast<double>(sim.events_processed());
    m.ns_per_event = first ? ns : std::min(m.ns_per_event, ns);
    if (first) {
      m.state_bytes_per_node = (resident_bytes() - rss_before) /
                               static_cast<double>(machine.size());
    }
  }
  return m;
}

/// A perf-on machine's fixed cost per node, in microseconds.
struct FixedCost {
  double setup_us_per_node = 0.0;  ///< construction plus enable_perf
  double teardown_us_per_node = 0.0;  ///< freeing the machine and registry
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Medians over runs, for at least `budget` and at least five runs, of
/// building a serial `dim`-cube with perf attached, as serve builds one,
/// and of freeing it without a run. With `saxpy`, the build also stages
/// saxpy's three arrays on every node as serve's JobRun does: 128 doubles
/// each, x in bank A and y and z in bank B, x and y written.
FixedCost measure_fixed_cost(int dim, bool saxpy,
                             std::chrono::milliseconds budget) {
  using Clock = std::chrono::steady_clock;
  const auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  constexpr std::size_t kElems = 128;
  const std::vector<double> values(kElems, 1.5);
  std::vector<double> setup;
  std::vector<double> teardown;
  const auto t0 = Clock::now();
  while (setup.size() < 5 || Clock::now() - t0 < budget) {
    const auto built0 = Clock::now();
    auto sim = std::make_unique<sim::Simulator>();
    auto machine = std::make_unique<core::TSeries>(*sim, dim);
    auto reg = std::make_unique<perf::CounterRegistry>();
    machine->enable_perf(*reg);
    if (saxpy) {
      for (net::NodeId id = 0; id < machine->size(); ++id) {
        node::Node& nd = machine->node(id);
        const node::Array64 x = nd.alloc64(mem::Bank::A, kElems);
        const node::Array64 y = nd.alloc64(mem::Bank::B, kElems);
        (void)nd.alloc64(mem::Bank::B, kElems);
        nd.write64(x, values);
        nd.write64(y, values);
      }
    }
    const auto built1 = Clock::now();
    machine.reset();
    reg.reset();
    sim.reset();
    const auto freed = Clock::now();
    setup.push_back(us(built1 - built0));
    teardown.push_back(us(freed - built1));
  }
  const double nodes = static_cast<double>(std::size_t{1} << dim);
  return {median(setup) / nodes, median(teardown) / nodes};
}

int write_json_dump(const std::string& path) {
  constexpr int kEvents = 1 << 16;
  constexpr std::chrono::milliseconds kBudget{1500};
  const double closure =
      best_over_budget(measure_closure_events_per_sec, kEvents, kBudget);
  const double resume =
      best_over_budget(measure_resume_events_per_sec, kEvents, kBudget);

  namespace json = perf::json;
  json::Value results = json::Value::object();
  results["events_per_sec"] = json::Value::number(closure);
  results["resume_events_per_sec"] = json::Value::number(resume);
  results["queue_events"] = json::Value::integer(kEvents);
  // Smallest machine first, so each machine's state is measured on a heap
  // that no larger machine has grown.
  for (const int dim : {7, 10, 12}) {
    const MessagePath m = measure_message_path(dim, false, kBudget);
    const std::string cube = "_cube" + std::to_string(dim);
    results["msg_ns_per_event" + cube] = json::Value::number(m.ns_per_event);
    results["state_bytes_per_node" + cube] =
        json::Value::number(m.state_bytes_per_node);
    if (dim == 10) {
      results["allocs_per_message"] =
          json::Value::number(m.allocs_per_message);
      results["perf_ns_per_event" + cube] = json::Value::number(
          measure_message_path(dim, true, kBudget).ns_per_event);
    }
    const FixedCost f = measure_fixed_cost(dim, false, kBudget);
    results["setup_us_per_node" + cube] =
        json::Value::number(f.setup_us_per_node);
    results["teardown_us_per_node" + cube] =
        json::Value::number(f.teardown_us_per_node);
  }
  // A saxpy job's node arrays, on serve's 7-cube and its largest machine.
  for (const int dim : {7, 10}) {
    const FixedCost f = measure_fixed_cost(dim, true, kBudget);
    const std::string cube = "_cube" + std::to_string(dim);
    results["saxpy_setup_us_per_node" + cube] =
        json::Value::number(f.setup_us_per_node);
    results["saxpy_teardown_us_per_node" + cube] =
        json::Value::number(f.teardown_us_per_node);
  }
  // perf_ns_per_event over msg_ns_per_event is what counting and recording
  // spans costs per event. The 6-cube pair runs last: its machines'
  // recycled coroutine frames would hide part of the 7-cube's state.
  results["msg_ns_per_event_cube6"] = json::Value::number(
      measure_message_path(6, false, kBudget).ns_per_event);
  results["perf_ns_per_event_cube6"] = json::Value::number(
      measure_message_path(6, true, kBudget).ns_per_event);
  bench::write_record(path, "bench_simcore", std::move(results));

  // Machine-readable echo for the CI gate (same idiom as bench_fig1_node's
  // awk-scraped table).
  std::printf("events_per_sec %.0f\n", closure);
  std::printf("resume_events_per_sec %.0f\n", resume);
  std::printf("wrote perf dump: %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark strips its own --benchmark_* flags first; the table
  // then rejects anything else it does not know.
  benchmark::Initialize(&argc, argv);
  std::string metric;
  std::string json_path;
  std::vector<std::string> record;
  if (!fpst::tools::Flags{"bench_simcore"}
           .text("--metric", &metric)
           .text("--json", &json_path)
           .positional(&record)
           .parse(argc, argv)) {
    return 2;
  }
  if (!metric.empty() || !record.empty()) {
    return fpst::bench::print_metric("bench_simcore", metric, record);
  }
  if (!json_path.empty()) {
    return write_json_dump(json_path);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
