// Tests for the tperf observability subsystem (src/perf): counter
// determinism, counter cells across re-attachment and unknown vector
// forms, span invariants, the Chrome trace_event dump schema, the
// direct dump writer against the tree view, each span kind's name, the
// loader's typed rejections, the JSON round-trip and parser limits, ring
// bounding, and the report builder's balance rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/machine.hpp"
#include "cp/assembler.hpp"
#include "node/node.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "perf/report.hpp"
#include "sim/bits.hpp"
#include "sim/proc.hpp"
#include "vpu/recip.hpp"

namespace fpst {
namespace {

using namespace fpst::sim::literals;
using perf::CounterRegistry;

/// Standard single-node workload: overlapped gather || 4x VSAXPY, then a
/// scatter — touches the vpu, cp and mem tracks.
sim::SimTime run_node_workload(CounterRegistry* reg) {
  sim::Simulator sim;
  node::Node nd{sim, 0};
  if (reg != nullptr) {
    reg->meta().nodes = 1;
    reg->meta().workload = "perf_test";
    nd.attach_perf(*reg);
  }
  const node::Array64 x = nd.alloc64(mem::Bank::A, 128);
  const node::Array64 y = nd.alloc64(mem::Bank::B, 128);
  const node::Array64 z = nd.alloc64(mem::Bank::B, 128);
  nd.write64(x, std::vector<double>(128, 1.0));
  nd.write64(y, std::vector<double>(128, 2.0));
  sim.spawn([](node::Node* n, node::Array64 ax, node::Array64 ay,
               node::Array64 az) -> sim::Proc {
    std::vector<sim::Proc> par;
    par.push_back(n->gather(64));
    par.push_back([](node::Node* nn, node::Array64 x2, node::Array64 y2,
                     node::Array64 z2) -> sim::Proc {
      for (int i = 0; i < 4; ++i) {
        co_await nn->vscalar(vpu::VectorForm::vsaxpy, 2.0, x2, y2, z2);
      }
    }(n, ax, ay, az));
    co_await sim::WhenAll{std::move(par)};
    co_await n->scatter(32);
  }(&nd, x, y, z));
  sim.run();
  return sim.now();
}

TEST(Counters, NodeWorkloadFillsTracks) {
  CounterRegistry reg;
  const perf::Dump d = perf::snapshot(reg, run_node_workload(&reg));
  EXPECT_EQ(d.value(0, "vpu", "ops"), 4u);
  EXPECT_EQ(d.value(0, "vpu", "flops"), 4u * 2u * 128u);
  EXPECT_EQ(d.value(0, "vpu", "adder_results"), 4u * 128u);
  EXPECT_EQ(d.value(0, "vpu", "mul_results"), 4u * 128u);
  EXPECT_EQ(d.value(0, "cp", "gather_elems"), 64u);
  EXPECT_EQ(d.value(0, "cp", "scatter_elems"), 32u);
  EXPECT_GT(d.value(0, "mem", "row_loads"), 0u);
  EXPECT_GT(d.value(0, "mem", "row_stores"), 0u);
  // Busy accumulators: all vpu time here is VSAXPY time.
  EXPECT_EQ(d.time_value(0, "vpu", "busy"),
            d.time_value(0, "vpu", "busy.VSAXPY"));
  EXPECT_FALSE(d.time_value(0, "cp", "busy").is_zero());
  // Untouched names and tracks read as zero, without creating anything.
  EXPECT_EQ(d.find(0, "vpu")->counts.count("bank_conflicts"), 0u);
  EXPECT_EQ(d.value(7, "vpu", "ops"), 0u);
  EXPECT_EQ(reg.find(7, "vpu"), nullptr);
}

// A (node, component) has one track: making it again returns that track,
// cells and all, and makes no other.
TEST(Counters, MakingATrackTwiceReturnsTheSameTrack) {
  CounterRegistry reg;
  perf::PerfSink& first = reg.track(3, "mem", mem::kFields);
  perf::Stats<mem::kFields> stats;
  stats.attach(first);
  stats.add(mem::kRowLoads, 5);
  (void)reg.track(3, "cp", cp::kFields);
  perf::PerfSink& again = reg.track(3, "mem", mem::kFields);
  EXPECT_EQ(&again, &first);
  EXPECT_EQ(again.track_id(), 0u);
  EXPECT_EQ(reg.tracks().size(), 2u);
  EXPECT_EQ(reg.total("mem", "row_loads"), 5u);
}

TEST(Counters, IdenticalRunsProduceIdenticalDumps) {
  CounterRegistry a;
  CounterRegistry b;
  const sim::SimTime wall_a = run_node_workload(&a);
  const sim::SimTime wall_b = run_node_workload(&b);
  EXPECT_EQ(wall_a, wall_b);
  // Byte-identical serialisation: sorted maps + deterministic simulator.
  EXPECT_EQ(perf::to_json(a, wall_a).dump(2), perf::to_json(b, wall_b).dump(2));
}

TEST(Counters, UnknownVectorFormCountsAsBusyQuestionMark) {
  // vform casts its descriptor's form word straight to VectorForm. A value
  // no enumerator names is charged to "busy.?", never to a per-form slot.
  for (const std::uint32_t form : {14u, 255u}) {
    sim::Simulator sim;
    node::Node nd{sim, 0};
    CounterRegistry reg;
    nd.attach_perf(reg);
    const cp::Program prog = cp::assemble("ldc " + std::to_string(form) + R"(
        ldc desc
        stnl 0       ; form
        ldc 1
        ldc desc
        stnl 1       ; precision f64
        ldc 8
        ldc desc
        stnl 2       ; n
        ldc desc
        vform
        vwait
        halt
     desc:
        .space 48
    )");
    nd.cpu().load(prog);
    nd.cpu().start_process(prog.entry(), 0x8000, 1);
    sim.spawn(nd.cpu().run());
    sim.run();
    const perf::Dump d = perf::snapshot(reg, sim.now());
    const perf::DumpTrack* vpu = d.find(0, "vpu");
    ASSERT_NE(vpu, nullptr);
    EXPECT_EQ(d.value(0, "vpu", "ops"), 1u) << "form " << form;
    ASSERT_EQ(vpu->times.count("busy.?"), 1u) << "form " << form;
    EXPECT_EQ(vpu->times.at("busy.?"), vpu->times.at("busy"));
    EXPECT_EQ(vpu->times.size(), 2u) << "form " << form;
  }
}

/// Every counter and busy total in `reg`, keyed "node/component/name".
std::map<std::string, std::int64_t> counter_values(
    const CounterRegistry& reg) {
  std::map<std::string, std::int64_t> out;
  for (const perf::DumpTrack& t : perf::snapshot(reg, {}).tracks) {
    const std::string prefix =
        std::to_string(t.node) + "/" + t.component + "/";
    for (const auto& [name, v] : t.counts) {
      out[prefix + name] = static_cast<std::int64_t>(v);
    }
    for (const auto& [name, tm] : t.times) {
      out[prefix + name] = tm.ps();
    }
  }
  return out;
}

TEST(Counters, ReattachedMachineCountsIntoTheNewRegistry) {
  // A machine re-attached to a fresh registry after the first one is gone
  // counts every later event there. Each round below does the same work,
  // so the second registry must hold exactly what the first held; a
  // component still counting into a freed track would lose counts (and
  // trip ASan).
  sim::Simulator sim;
  core::TSeries machine{sim, /*dimension=*/2};
  occam::Runtime rt{machine};
  // Per node: a gather and a VSAXPY (cp, vpu, mem), an allreduce (links,
  // occam), and a two-hop message from node 0 that node 1 or 2 forwards.
  const auto round = [](occam::Ctx& ctx) -> sim::Proc {
    node::Node& nd = ctx.node();
    const node::Array64 x = nd.alloc64(mem::Bank::A, 64);
    const node::Array64 y = nd.alloc64(mem::Bank::B, 64);
    co_await nd.gather(16);
    co_await nd.vscalar(vpu::VectorForm::vsaxpy, 2.0, x, y, y);
    if (ctx.id() == 0) {
      co_await ctx.send(3, 7, std::vector<double>(2, 1.0));
    } else if (ctx.id() == 3) {
      std::vector<double> got;
      co_await ctx.recv(0, 7, &got);
    }
    double v = 1.0;
    co_await ctx.allreduce_sum(&v);
  };
  std::map<std::string, std::int64_t> first_counts;
  {
    CounterRegistry first;
    machine.enable_perf(first);
    rt.run(round);
    first_counts = counter_values(first);
    EXPECT_GT(first.total("vpu", "ops"), 0u);
    EXPECT_GT(first.total("mem", "row_loads"), 0u);
    EXPECT_GT(first.total("cp", "gather_elems"), 0u);
    EXPECT_GT(first.total("link0", "bytes"), 0u);
    EXPECT_GT(first.total("link1", "bytes"), 0u);
    EXPECT_GT(first.total("occam", "msgs_sent"), 0u);
    EXPECT_GT(first.total("occam", "pkts_forwarded"), 0u);
  }
  CounterRegistry second;
  machine.enable_perf(second);
  rt.run(round);
  EXPECT_EQ(counter_values(second), first_counts);
}

TEST(Counters, TrackAndFieldNamesNeedNoEscaping) {
  // The direct dump writer copies component and field names verbatim into
  // JSON, so every name a machine registers must print unescaped, and the
  // registry and the field tables refuse a name that would not.
  sim::Simulator sim;
  core::TSeries machine{sim, /*dimension=*/1};
  occam::Runtime rt{machine};
  CounterRegistry reg;
  machine.enable_perf(reg);
  rt.run([](occam::Ctx& ctx) -> sim::Proc {
    double v = 1.0;
    co_await ctx.allreduce_sum(&v);
  });
  const auto unescaped = [](std::string_view name) {
    return perf::json::Value::string(std::string(name)).dump() ==
           '"' + std::string(name) + '"';
  };
  std::set<std::string> components;
  for (const perf::PerfSink& track : reg.tracks()) {
    components.insert(std::string(track.component()));
    EXPECT_TRUE(unescaped(track.component())) << track.component();
    for (std::size_t f = 0; f < track.fields().size(); ++f) {
      EXPECT_TRUE(unescaped(track.fields()[f].name));
    }
  }
  EXPECT_EQ(components, (std::set<std::string>{"cp", "link0", "mem", "occam",
                                                "vpu"}));
  for (const char* bad : {"quote\"", "back\\slash", "tab\t", "bell\x07"}) {
    EXPECT_FALSE(unescaped(bad)) << bad;
    EXPECT_THROW(reg.track(0, bad, mem::kFields), std::invalid_argument)
        << bad;
    EXPECT_THROW(perf::FieldTable{perf::Field{bad}}, std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(reg.find(0, "quote\""), nullptr);
}

TEST(Timeline, SpanInvariants) {
  CounterRegistry reg;
  const sim::SimTime wall = run_node_workload(&reg);
  const std::vector<perf::Span> spans = reg.timeline().snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(reg.timeline().dropped(), 0u);
  std::vector<std::pair<sim::SimTime, sim::SimTime>> vpu_iv;
  for (const perf::Span& s : spans) {
    // Every span fits in the run and instants carry no duration.
    EXPECT_GE(s.start, sim::SimTime{});
    EXPECT_LE(s.start + s.duration, wall);
    if (s.is_instant()) {
      EXPECT_TRUE(s.duration.is_zero());
    } else {
      EXPECT_FALSE(s.duration.is_zero());
    }
    if (s.track == reg.find(0, "vpu")->track_id()) {
      vpu_iv.emplace_back(s.start, s.start + s.duration);
    }
  }
  // The vector unit is a serial resource: its spans must not overlap.
  ASSERT_EQ(vpu_iv.size(), 4u);
  std::sort(vpu_iv.begin(), vpu_iv.end());
  for (std::size_t i = 1; i < vpu_iv.size(); ++i) {
    EXPECT_LE(vpu_iv[i - 1].second, vpu_iv[i].first);
  }
}

/// What one run of every timed node call leaves behind: span names and
/// their summed durations on the vpu and cp tracks, simulated time, events,
/// and every counter of those two tracks (durations in ps, keyed
/// "<track>.<name>").
struct TimedCallRun {
  std::vector<std::string> names;
  sim::SimTime span_time;
  sim::SimTime now;
  std::uint64_t events = 0;
  std::map<std::string, std::int64_t> counters;
};

/// Issues each timed call of the node API once, at both precisions, over
/// a ragged 300-element length: three f64 stripes (128 + 128 + 44) and two
/// f32 stripes (256 + 44).
TimedCallRun run_every_timed_call(node::NodeConfig cfg) {
  sim::Simulator sim;
  node::Node nd{sim, 3, cfg};
  CounterRegistry reg;
  nd.attach_perf(reg);
  constexpr std::size_t kN = 300;
  const node::Array64 x = nd.alloc64(mem::Bank::A, kN);
  const node::Array64 y = nd.alloc64(mem::Bank::B, kN);
  const node::Array64 z = nd.alloc64(mem::Bank::B, kN);
  const node::Array32 x32 = nd.alloc32(mem::Bank::A, kN);
  const node::Array32 y32 = nd.alloc32(mem::Bank::B, kN);
  const node::Array32 z32 = nd.alloc32(mem::Bank::B, kN);
  sim.spawn([](node::Node* n, node::Array64 ax, node::Array64 ay,
               node::Array64 az, node::Array32 ax32, node::Array32 ay32,
               node::Array32 az32) -> sim::Proc {
    using vpu::VectorForm;
    double r = 0.0;
    std::size_t at = 0;
    co_await n->vbinary(VectorForm::vadd, ax, ay, az);
    co_await n->vscalar(VectorForm::vsaxpy, 2.0, ax, ay, az);
    co_await n->vreduce(VectorForm::vdot, ax, ay, &r);
    co_await n->vreduce(VectorForm::vmaxval, ax, node::Array64{}, &r, &at);
    co_await n->vbinary32(VectorForm::vmul, ax32, ay32, az32);
    co_await n->vscalar32(VectorForm::vsadd, 0.5, ax32, node::Array32{}, az32);
    co_await n->gather(16);
    co_await n->gather32(16);
    co_await n->scatter(16);
    co_await n->cp_work(100);
    co_await n->scalar_recip(4.0, &r);
    co_await n->row_move(2);
  }(&nd, x, y, z, x32, y32, z32));
  sim.run();
  TimedCallRun out;
  out.now = sim.now();
  out.events = sim.events_processed();
  const std::uint32_t vpu = reg.find(3, "vpu")->track_id();
  const std::uint32_t cp = reg.find(3, "cp")->track_id();
  for (const perf::Span& s : reg.timeline().snapshot()) {
    if (s.track == vpu || s.track == cp) {
      out.names.push_back(perf::span_name(s));
      out.span_time += s.duration;
    }
  }
  const perf::Dump d = perf::snapshot(reg, sim.now());
  for (const char* track : {"vpu", "cp"}) {
    const perf::DumpTrack& t = *d.find(3, track);
    for (const auto& [name, v] : t.counts) {
      out.counters[std::string(track) + "." + name] =
          static_cast<std::int64_t>(v);
    }
    for (const auto& [name, tm] : t.times) {
      out.counters[std::string(track) + "." + name] = tm.ps();
    }
  }
  return out;
}

TEST(Timeline, NodeOperationsAreTraced) {
  // The node's timed API names each span after its operation: vector form
  // and stripe length, gather width, CP work (vreduce's combine step too),
  // row moves. Simulated time, events and every vpu/cp counter are pinned
  // exactly, with and without CP/VPU overlap; only the cp busy time
  // differs, by the vector time the stalled controller is charged.
  const std::vector<std::string> names = {
      "VADD n=128",   "VADD n=128",    "VADD n=44",     "VSAXPY n=128",
      "VSAXPY n=128", "VSAXPY n=44",   "VDOT n=128",    "VDOT n=128",
      "VDOT n=44",    "work 12 instr", "VMAXVAL n=128", "VMAXVAL n=128",
      "VMAXVAL n=44", "work 12 instr", "VMUL n=256",    "VMUL n=44",
      "VSADD n=256",  "VSADD n=44",    "gather64 16",   "gather32 16",
      "scatter64 16", "work 100 instr", "rowmove 2"};
  const std::map<std::string, std::int64_t> counters = {
      {"cp.busy", 80533292},           {"cp.gather_elems", 32},
      {"cp.instr", 124},               {"cp.scatter_elems", 16},
      {"vpu.adder_results", 1500},     {"vpu.busy", 265900000},
      {"vpu.busy.VADD", 42150000},     {"vpu.busy.VDOT", 50325000},
      {"vpu.busy.VMAXVAL", 47700000},  {"vpu.busy.VMUL", 40350000},
      {"vpu.busy.VSADD", 40600000},    {"vpu.busy.VSAXPY", 44775000},
      {"vpu.flops", 2400},             {"vpu.mul_results", 900},
      {"vpu.ops", 16}};
  for (const bool overlap : {true, false}) {
    SCOPED_TRACE(overlap ? "overlap" : "no overlap");
    const TimedCallRun run = run_every_timed_call({.overlap = overlap});
    EXPECT_EQ(run.names, names);
    EXPECT_EQ(run.now, sim::SimTime::picoseconds(360533292));
    EXPECT_EQ(run.events, 53u);
    // Everything ran serially, so the spans tile the run, except for
    // scalar_recip: it holds the vector unit for its Newton steps (two
    // multiplies and a subtract at pipe latency each) without a span.
    const sim::SimTime recip =
        vpu::kRecipIterations *
        (2 * vpu::VpuParams::kMulStages64 + vpu::VpuParams::kAdderStages) *
        vpu::VpuParams::cycle();
    EXPECT_EQ(run.span_time + recip, run.now);
    std::map<std::string, std::int64_t> want = counters;
    if (!overlap) {
      want["cp.busy"] += want["vpu.busy"];
    }
    EXPECT_EQ(run.counters, want);
  }
}

TEST(Timeline, RingBoundsSpansAndReportsDrops) {
  CounterRegistry reg{CounterRegistry::Options{.timeline_capacity = 2}};
  const sim::SimTime wall = run_node_workload(&reg);
  EXPECT_LE(reg.timeline().size(), 2u);
  EXPECT_GT(reg.timeline().dropped(), 0u);
  // Counters are unaffected by span loss, and the dump declares the drops.
  const perf::Dump d = perf::from_json(perf::to_json(reg, wall));
  EXPECT_EQ(d.value(0, "vpu", "ops"), 4u);
  EXPECT_EQ(d.spans_dropped, reg.timeline().dropped());
}

TEST(ChromeTrace, SchemaIsTraceEventFormat) {
  CounterRegistry reg;
  const sim::SimTime wall = run_node_workload(&reg);
  const perf::json::Value doc = perf::to_json(reg, wall);

  const perf::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t metadata = 0;
  std::size_t complete = 0;
  for (const perf::json::Value& e : events->as_array()) {
    const std::string& ph = e.find("ph")->as_string();
    ASSERT_NE(e.find("pid"), nullptr);
    if (ph == "M") {
      const std::string& name = e.find("name")->as_string();
      EXPECT_TRUE(name == "process_name" || name == "thread_name");
      ++metadata;
    } else if (ph == "X") {
      // Complete events carry both viewer times (us) and exact ps.
      ASSERT_NE(e.find("ts"), nullptr);
      ASSERT_NE(e.find("dur"), nullptr);
      ASSERT_NE(e.find("args"), nullptr);
      EXPECT_NE(e.find("args")->find("dur_ps"), nullptr);
      ++complete;
    }
  }
  EXPECT_GT(metadata, 0u);
  EXPECT_EQ(complete, reg.timeline().size());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ns");
  EXPECT_EQ(doc.find("metadata")->find("tool")->as_string(), "tperf");
}

TEST(ChromeTrace, RoundTripPreservesEverything) {
  CounterRegistry reg;
  const sim::SimTime wall = run_node_workload(&reg);
  perf::json::Value doc = perf::to_json(reg, wall);
  doc["results"]["answer"] = perf::json::Value::integer(42);

  // Through text and back: parse(dump) must reconstruct the same dump.
  const perf::Dump d =
      perf::from_json(perf::json::Value::parse(doc.dump(2)));
  EXPECT_EQ(d.meta.workload, "perf_test");
  EXPECT_EQ(d.meta.nodes, 1u);
  EXPECT_EQ(d.wall, wall);
  EXPECT_EQ(d.tracks.size(), reg.tracks().size());
  for (const perf::DumpTrack& t : d.tracks) {
    const perf::PerfSink* s = reg.find(t.node, t.component);
    ASSERT_NE(s, nullptr);
    std::size_t touched = 0;
    s->each_touched(perf::Field::count, [&](std::string_view name,
                                            std::int64_t v) {
      EXPECT_EQ(t.counts.at(std::string(name)),
                static_cast<std::uint64_t>(v));
      ++touched;
    });
    s->each_touched(perf::Field::time, [&](std::string_view name,
                                           std::int64_t ps) {
      EXPECT_EQ(t.times.at(std::string(name)),
                sim::SimTime::picoseconds(ps));
      ++touched;
    });
    EXPECT_EQ(t.counts.size() + t.times.size(), touched);
  }
  ASSERT_EQ(d.spans.size(), reg.timeline().size());
  for (std::size_t i = 0; i < d.spans.size(); ++i) {
    EXPECT_EQ(d.spans[i].start, reg.timeline()[i].start);
    EXPECT_EQ(d.spans[i].duration, reg.timeline()[i].duration);
    EXPECT_EQ(d.spans[i].name, perf::span_name(reg.timeline()[i]));
  }
  EXPECT_EQ(d.value(0, "vpu", "flops"), 4u * 2u * 128u);
  ASSERT_NE(d.results.find("answer"), nullptr);
  EXPECT_EQ(d.results.find("answer")->as_int(), 42);
}

// One span of every kind (SpanKind), with fields at their widest where the
// name has room for them.
std::vector<perf::Span> one_span_of_every_kind() {
  using perf::SpanKind;
  constexpr std::uint32_t kMax32 = 0xffffffffu;
  return {
      {.n = 16,
       .label = vpu::to_string(vpu::VectorForm::vsaxpy),
       .kind = SpanKind::vector_op},
      {.n = 2, .kind = SpanKind::row_move},
      {.n = 7, .kind = SpanKind::gather32},
      {.n = 16, .kind = SpanKind::gather64},
      {.n = 32, .kind = SpanKind::scatter64},
      {.n = ~0ULL, .kind = SpanKind::cp_work},
      {.n = 12, .trace = kMax32, .peer = kMax32, .kind = SpanKind::link_tx},
      {.trace = 5, .kind = SpanKind::msg_enqueue},
      {.n = 12,
       .trace = 5,
       .peer = 3,
       .tag = 0xffff,
       .kind = SpanKind::msg_inject},
      {.trace = 5, .peer = 2, .kind = SpanKind::msg_deliver},
      {.trace = 5, .kind = SpanKind::msg_forward},
  };
}

// Spans whose microsecond text takes each path of perf::write_us(): a
// start where SimTime::us()'s product is one ulp off the quotient
// (881999940 ps prints 881.9999399999999), a round start of 10^5 us that
// prints "1e+05", three equal starts and then the next picosecond, so the
// dump's per-field text memo both hits and misses, and a 500 ps duration
// that prints "5e-04".
std::vector<perf::Span> edge_time_spans() {
  std::vector<perf::Span> spans;
  for (const std::int64_t start :
       {881'999'940LL, 100'000'000'000LL, 100'000'000'000LL,
        100'000'000'000LL, 100'000'000'001LL}) {
    spans.push_back({.start = sim::SimTime::picoseconds(start),
                     .duration = sim::SimTime::picoseconds(500),
                     .n = 4,
                     .label = vpu::to_string(vpu::VectorForm::vadd),
                     .kind = perf::SpanKind::vector_op});
  }
  return spans;
}

// A registry with every shape the dump schema has, built through the
// components' field tables: tracks whose counts or busy_ps maps are empty,
// a counter touched with a zero delta, node numbers 2, 10 and 100, whose
// key order (node10. < node100. < node2.) differs from their numeric
// order, four rounds of one span of every kind (link spans and instants on
// node 10's link3 track, the other complete spans on node 2's cp track,
// start times that tie across the two) so the ring drops spans yet keeps
// every kind, times whose microsecond text needs 17 digits, and a workload
// label that needs escaping. Node 100's vpu spans, recorded in the last
// round, cover the microsecond text's cases (see edge_time_spans()).
void fill_edge_case_registry(CounterRegistry& reg) {
  reg.meta().dimension = 4;
  reg.meta().nodes = 16;
  reg.meta().workload = std::string("quote\" backslash\\ bell\x07 tab\t");
  reg.track(0, "empty", mem::kFields);
  perf::PerfSink& cp_track = reg.track(2, "cp", cp::kFields);
  perf::Stats<cp::kFields> cp2;
  cp2.attach(cp_track);
  cp2.add(cp::kInstr, 7);
  perf::Stats<cp::kFields> cp10;
  cp10.attach(reg.track(10, "cp", cp::kFields));
  cp10.add(cp::kBusy, 3_us);
  perf::PerfSink& link_track = reg.track(10, "link3", link::kFields);
  link::LinkStats port;
  port.attach(link_track);
  port.add(link::kBytes, 1ULL << 40);
  port.add(link::kAcks, 0);
  port.add(link::kBusySublink + 1, sim::SimTime::picoseconds(1));
  perf::PerfSink& vpu_track = reg.track(100, "vpu", vpu::kFields);
  const std::vector<perf::Span> kinds = one_span_of_every_kind();
  for (int round = 0; round < 4; ++round) {
    if (round == 3) {
      for (const perf::Span& s : edge_time_spans()) {
        vpu_track.record(s);
      }
    }
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      perf::Span s = kinds[k];
      const auto i = static_cast<std::int64_t>(k) % 6;
      if (!s.is_instant()) {
        s.duration = sim::SimTime::picoseconds(1000 * round + 1);
      }
      if (s.kind == perf::SpanKind::link_tx || s.is_instant()) {
        s.start = sim::SimTime::picoseconds(112199960 + 1000 * i);
        link_track.record(s);
      } else {
        s.start = sim::SimTime::picoseconds(112199960 + 1000 * (5 - i));
        cp_track.record(s);
      }
    }
  }
}

/// The span kinds a registry's rings still hold.
std::set<perf::SpanKind> retained_kinds(const CounterRegistry& reg) {
  std::set<perf::SpanKind> kinds;
  for (const perf::Span& s : reg.timeline().snapshot()) {
    kinds.insert(s.kind);
  }
  for (const auto& tl : reg.shard_timelines()) {
    for (const perf::Span& s : tl->snapshot()) {
      kinds.insert(s.kind);
    }
  }
  return kinds;
}

// A streamed dump is canonical JSON (parsing it and printing it again gives
// back its bytes), loads back into exactly the registry's snapshot, and is
// byte for byte the dump `digest` pins. The digests were taken where
// write_dump() was still compared with a second, tree-building writer.
void expect_pinned_dump(const CounterRegistry& reg,
                        const perf::json::Value& results,
                        std::uint64_t digest) {
  const sim::SimTime wall = 7_us;
  std::string streamed;
  perf::write_dump(streamed, reg, wall, results);
  // One reservation, sized exactly from the registry, holds the dump and
  // the newline write_file appends; growing past it would double the
  // capacity.
  EXPECT_EQ(streamed.capacity(), streamed.size() + 1);
  const perf::json::Value doc = perf::json::Value::parse(streamed);
  EXPECT_EQ(doc.dump(2), streamed);

  const perf::Dump loaded = perf::from_json(doc);
  const perf::Dump want = perf::snapshot(reg, wall);
  EXPECT_EQ(loaded.meta.dimension, want.meta.dimension);
  EXPECT_EQ(loaded.meta.nodes, want.meta.nodes);
  EXPECT_EQ(loaded.meta.workload, want.meta.workload);
  EXPECT_EQ(loaded.wall, want.wall);
  EXPECT_EQ(loaded.spans_dropped, want.spans_dropped);
  EXPECT_EQ(loaded.span_capacity, want.span_capacity);
  ASSERT_EQ(loaded.tracks.size(), want.tracks.size());
  for (std::size_t i = 0; i < want.tracks.size(); ++i) {
    EXPECT_TRUE(loaded.tracks[i] == want.tracks[i]) << "track " << i;
  }
  ASSERT_EQ(loaded.spans.size(), want.spans.size());
  for (std::size_t i = 0; i < want.spans.size(); ++i) {
    EXPECT_TRUE(loaded.spans[i] == want.spans[i]) << "span " << i;
  }
  EXPECT_EQ(loaded.results.dump(2), results.dump(2));

  EXPECT_EQ(bits::fnv1a(streamed), digest)
      << std::hex << "0x" << bits::fnv1a(streamed);
}

TEST(ChromeTrace, EdgeCaseDumpsAreCanonicalLosslessAndPinned) {
  perf::json::Value results = perf::json::Value::object();
  results["label"] = perf::json::Value::string("a\"b\\c\x01");
  results["nan"] = perf::json::Value::number(std::nan(""));
  results["rows"] = perf::json::Value::array();
  results["rows"].append(perf::json::Value::number(0.1));
  results["rows"].append(perf::json::Value::object());

  const std::size_t every_kind = one_span_of_every_kind().size();
  CounterRegistry::Options small;
  small.timeline_capacity = 16;  // 49 spans recorded: 33 dropped
  CounterRegistry reg{small};
  fill_edge_case_registry(reg);
  ASSERT_GT(reg.timeline().dropped(), 0u);
  ASSERT_EQ(retained_kinds(reg).size(), every_kind);
  expect_pinned_dump(reg, perf::json::Value{}, 0x4a47cb4a45c1d22dULL);
  expect_pinned_dump(reg, results, 0x163ab8f8ceba493fULL);

  // The cases are in the dump, not dropped, and the keys print in byte
  // order.
  std::string dump;
  perf::write_dump(dump, reg, 7_us);
  for (const char* text :
       {"\"ts\": 881.9999399999999", "\"ts\": 1e+05\n",
        "\"ts\": 100000.000001\n", "\"dur\": 5e-04,"}) {
    EXPECT_NE(dump.find(text), std::string::npos) << text;
  }
  const std::size_t node10 = dump.find("\"node10.cp\"");
  const std::size_t node100 = dump.find("\"node100.vpu\"");
  const std::size_t node2 = dump.find("\"node2.cp\"");
  ASSERT_NE(node2, std::string::npos);
  EXPECT_LT(node10, node100);
  EXPECT_LT(node100, node2);

  // Sharded timelines merge by start time, ties broken by shard; node 2's
  // and node 10's spans tie in every round.
  CounterRegistry sharded{small};
  std::vector<int> shard_of(16, 0);
  shard_of[10] = 1;
  sharded.shard_spans(shard_of, 2);
  fill_edge_case_registry(sharded);
  ASSERT_GT(sharded.shard_timelines()[0]->dropped(), 0u);
  ASSERT_GT(sharded.shard_timelines()[1]->dropped(), 0u);
  ASSERT_EQ(retained_kinds(sharded).size(), every_kind);
  expect_pinned_dump(sharded, results, 0x9965a0b8914aa01cULL);

  const CounterRegistry empty;
  expect_pinned_dump(empty, perf::json::Value{}, 0x58739c316eaf122eULL);
  expect_pinned_dump(empty, results, 0x161e5768c4e13b26ULL);
}

/// perf::write_us()'s text for `ps`, and std::to_chars' for
/// SimTime::us() when the two differ (empty strings when they agree).
std::pair<std::string, std::string> us_text_mismatch(std::int64_t ps) {
  char want[64];
  char got[perf::kUsChars];
  const std::string_view w(
      want, static_cast<std::size_t>(
                std::to_chars(want, want + sizeof want,
                              sim::SimTime::picoseconds(ps).us())
                    .ptr -
                want));
  const std::string_view g(
      got, static_cast<std::size_t>(perf::write_us(got, ps) - got));
  if (w == g) {
    return {};
  }
  return {std::string(g), std::string(w)};
}

// The dump's "ts" and "dur" text: perf::write_us() prints from the integer
// where SimTime::us() is the exact decimal ps / 10^6 rounded, and must
// print what std::to_chars prints for SimTime::us() everywhere.
// Tracks are kept in creation order, so a track's id is its index, but a
// dump lists them by (node, component), whatever order they were made in:
// here node 1's occam track is made after the link tracks, as a serial run
// makes it at the node's first message, and node 0's tracks after node 1's.
TEST(Counters, TracksMadeOutOfOrderKeepTheirIdsAndDumpOrder) {
  const std::vector<std::pair<std::uint32_t, std::string>> made = {
      {1, "vpu"},  {1, "link1"}, {1, "link0"}, {0, "link0"},
      {1, "occam"}, {0, "occam"}, {1, "cp"},   {0, "cp"}};
  CounterRegistry reg;
  for (std::size_t i = 0; i < made.size(); ++i) {
    perf::PerfSink& t = reg.track(made[i].first, made[i].second, mem::kFields);
    EXPECT_EQ(t.track_id(), i);
    perf::Stats<mem::kFields> stats;
    stats.attach(t);
    stats.add(mem::kWordReads, i);
  }
  reg.track(1, "occam", mem::kFields)
      .record({.start = 2_us, .n = 1, .kind = perf::SpanKind::cp_work});
  ASSERT_EQ(reg.tracks().size(), made.size());
  for (std::size_t i = 0; i < made.size(); ++i) {
    EXPECT_EQ(reg.tracks()[i].track_id(), i);
    EXPECT_EQ(reg.find(made[i].first, made[i].second), &reg.tracks()[i]);
  }

  const std::vector<std::pair<std::uint32_t, std::string>> dump_order = {
      {0, "cp"},   {0, "link0"}, {0, "occam"}, {1, "cp"},
      {1, "link0"}, {1, "link1"}, {1, "occam"}, {1, "vpu"}};
  const perf::Dump d = perf::snapshot(reg, 3_us);
  ASSERT_EQ(d.tracks.size(), dump_order.size());
  for (std::size_t i = 0; i < d.tracks.size(); ++i) {
    EXPECT_EQ(d.tracks[i].node, dump_order[i].first) << i;
    EXPECT_EQ(d.tracks[i].component, dump_order[i].second) << i;
  }
  ASSERT_EQ(d.spans.size(), 1u);
  EXPECT_EQ(d.spans[0].node, 1u);
  EXPECT_EQ(d.spans[0].component, "occam");

  // The streamed dump: counter keys in that order, and the span on node
  // 1's occam thread.
  std::string text;
  perf::write_dump(text, reg, 3_us);
  std::size_t at = 0;
  for (const auto& [node, component] : dump_order) {
    const std::string key =
        "\"node" + std::to_string(node) + "." + component + "\": {";
    const std::size_t found = text.find(key);
    ASSERT_NE(found, std::string::npos) << key;
    EXPECT_GT(found, at) << key;
    at = found;
  }
  const perf::Dump loaded = perf::from_json(perf::json::Value::parse(text));
  ASSERT_EQ(loaded.spans.size(), 1u);
  EXPECT_EQ(loaded.spans[0].node, 1u);
  EXPECT_EQ(loaded.spans[0].component, "occam");
  expect_pinned_dump(reg, perf::json::Value{}, 0x2b057ed14467424cULL);
}

TEST(ChromeTrace, MicrosecondTextMatchesToChars) {
  // Every value up to 10 us, split over four threads (to_chars takes most
  // of the time).
  constexpr int kThreads = 4;
  std::vector<std::vector<std::int64_t>> wrong_in(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &wrong_in] {
      for (std::int64_t ps = t; ps <= 10'000'000; ps += kThreads) {
        if (!us_text_mismatch(ps).first.empty()) {
          wrong_in[static_cast<std::size_t>(t)].push_back(ps);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  std::vector<std::int64_t> wrong;
  for (const std::vector<std::int64_t>& w : wrong_in) {
    wrong.insert(wrong.end(), w.begin(), w.end());
  }
  const auto check = [&wrong](std::int64_t ps) {
    if (!us_text_mismatch(ps).first.empty()) {
      wrong.push_back(ps);
    }
  };
  // Round values k * 10^j, past the integer path's 10^15 ps limit.
  for (std::int64_t scale = 1; scale <= 1'000'000'000'000'000; scale *= 10) {
    for (std::int64_t k = 1; k < 1000; ++k) {
      check(k * scale);
    }
  }
  // A fixed-seed sample of every decade above 10^7 ps up to 10^15, and
  // past it.
  std::mt19937_64 rng{25};
  for (std::int64_t lo = 10'000'000; lo <= 1'000'000'000'000'000; lo *= 10) {
    std::uniform_int_distribution<std::int64_t> decade(lo, 10 * lo - 1);
    for (int i = 0; i < 100'000; ++i) {
      check(decade(rng));
    }
  }
  // The fallbacks: negative values and the extremes.
  std::uniform_int_distribution<std::int64_t> any_negative(
      std::numeric_limits<std::int64_t>::min(), -1);
  for (int i = 0; i < 100'000; ++i) {
    check(any_negative(rng));
    check(-static_cast<std::int64_t>(rng() % 10'000'000'000));
  }
  const std::int64_t extremes[] = {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::int64_t{1} << 53,
                                   (std::int64_t{1} << 53) + 1,
                                   999'999'999'999'999,
                                   1'000'000'000'000'000,
                                   1'000'000'000'000'001};
  for (const std::int64_t ps : extremes) {
    check(ps);
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(wrong.size(), 10); ++i) {
    const auto [got, want] = us_text_mismatch(wrong[i]);
    ADD_FAILURE() << wrong[i] << " ps prints " << got << ", to_chars prints "
                  << want;
  }
  EXPECT_TRUE(wrong.empty()) << wrong.size() << " values differ";
}

TEST(ChromeTrace, RejectsForeignDocuments) {
  EXPECT_THROW(perf::from_json(perf::json::Value::parse("{}")),
               std::runtime_error);
  EXPECT_THROW(
      perf::from_json(perf::json::Value::parse(R"({"traceEvents": []})")),
      std::runtime_error);
}

/// True when from_json rejects `doc` with the loader's own typed error.
bool rejected_as_bad_dump(const perf::json::Value& doc) {
  try {
    (void)perf::from_json(doc);
  } catch (const std::runtime_error& e) {
    return std::string(e.what()).rfind("perf: not a tperf dump: ", 0) == 0;
  } catch (...) {
    return false;
  }
  return false;
}

TEST(ChromeTrace, LoaderRejectsMalformedNodeNumbers) {
  CounterRegistry reg;
  perf::PerfSink& cp_track = reg.track(7, "cp", cp::kFields);
  perf::Stats<cp::kFields> cp7;
  cp7.attach(cp_track);
  cp7.add(cp::kInstr, 1);
  cp_track.record(
      {.duration = 1_ns, .n = 1, .kind = perf::SpanKind::cp_work});
  const perf::json::Value good = perf::to_json(reg, 1_us);
  EXPECT_EQ(perf::from_json(good).tracks.at(0).node, 7u);

  for (const char* key :
       {"node7x.cp", "node+3.cp", "node 7.cp", "node-1.cp",
        "node4294967296.cp", "node.cp", "node99999999999999999999.cp"}) {
    perf::json::Value doc = good;
    doc["counters"][key] = *good.find("counters")->find("node7.cp");
    EXPECT_TRUE(rejected_as_bad_dump(doc)) << key;
  }

  // A pid outside uint32, named by its own thread_name event so only the
  // range check can catch it.
  for (const std::int64_t pid : {std::int64_t{-1}, std::int64_t{1} << 32}) {
    perf::json::Value doc = good;
    for (perf::json::Value& e : doc["traceEvents"].as_array()) {
      e["pid"] = perf::json::Value::integer(pid);
    }
    EXPECT_TRUE(rejected_as_bad_dump(doc)) << pid;
  }
}

static_assert(std::is_trivially_copyable_v<perf::Span>);

// Each kind's name, pinned to the string its call site used to build.
TEST(SpanName, GoldenNamesPerKind) {
  using perf::SpanKind;
  const std::pair<perf::Span, const char*> golden[] = {
      {{.n = 12, .trace = 8, .peer = 0, .kind = SpanKind::link_tx},
       "m8 tx->node0 12B"},
      {{.n = 12, .peer = 3, .kind = SpanKind::link_tx}, "tx->node3 12B"},
      {{.n = 12,
        .trace = 5,
        .peer = 3,
        .tag = 32768,
        .kind = SpanKind::msg_inject},
       "m5 inj ->n3 t32768 12B"},
      {{.trace = 5, .peer = 2, .kind = SpanKind::msg_deliver}, "m5 dlv <-n2"},
      {{.trace = 5, .kind = SpanKind::msg_forward}, "m5 fwd"},
      {{.trace = 5, .kind = SpanKind::msg_enqueue}, "m5 enq"},
      {{.n = 16,
        .label = vpu::to_string(vpu::VectorForm::vsaxpy),
        .kind = SpanKind::vector_op},
       "VSAXPY n=16"},
      {{.n = 7, .kind = SpanKind::gather32}, "gather32 7"},
      {{.n = 16, .kind = SpanKind::gather64}, "gather64 16"},
      {{.n = 32, .kind = SpanKind::scatter64}, "scatter64 32"},
      {{.n = 60, .kind = SpanKind::cp_work}, "work 60 instr"},
      {{.n = 2, .kind = SpanKind::row_move}, "rowmove 2"},
      {{.n = ~0ULL,
        .trace = 0xffffffffu,
        .peer = 0xffffffffu,
        .tag = 0xffff,
        .kind = SpanKind::msg_inject},
       "m4294967295 inj ->n4294967295 t65535 18446744073709551615B"},
  };
  for (const auto& [span, name] : golden) {
    EXPECT_EQ(perf::span_name(span), name);
  }
  // Every kind is pinned above.
  std::set<perf::SpanKind> kinds;
  for (const auto& entry : golden) {
    kinds.insert(entry.first.kind);
  }
  EXPECT_EQ(kinds.size(), one_span_of_every_kind().size());
}

TEST(SpanName, VectorFormNamesNeedNoEscaping) {
  // The direct dump writer copies names verbatim into JSON strings.
  for (std::size_t f = 0; f < vpu::kVectorForms; ++f) {
    const perf::Span s{.n = 128,
                       .label = vpu::to_string(static_cast<vpu::VectorForm>(f)),
                       .kind = perf::SpanKind::vector_op};
    const std::string name = perf::span_name(s);
    EXPECT_EQ(name, std::string(s.label) + " n=128");
    EXPECT_EQ(perf::json::Value::string(name).dump(), '"' + name + '"');
  }
}

TEST(Json, NestingPastTheLimitIsATypedError) {
  namespace json = perf::json;
  // Far under tsim's 1 MiB request-line cap, far over any stack.
  const std::string brackets((1 << 20) - 1, '[');
  std::string members;
  for (int i = 0; i < 100000; ++i) {
    members += "{\"a\":";
  }
  for (const std::string& text : {brackets, members}) {
    try {
      (void)json::Value::parse(text);
      ADD_FAILURE() << "deep nesting parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("json: nesting deeper than"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(" at offset "), std::string::npos);
    }
  }
}

TEST(Json, NestingAtTheLimitParses) {
  namespace json = perf::json;
  const std::string deepest = std::string(json::kMaxDepth, '[') +
                              std::string(json::kMaxDepth, ']');
  EXPECT_EQ(json::Value::parse(deepest).dump(), deepest);
  const std::string past = "[" + deepest + "]";
  EXPECT_THROW((void)json::Value::parse(past), std::runtime_error);
}

TEST(Json, NegativeZeroRoundTrips) {
  namespace json = perf::json;
  // -0.0 prints as "-0", so "-0" parses as that double, not the integer 0.
  const json::Value z = json::Value::parse("-0");
  EXPECT_EQ(z.kind(), json::Value::Kind::number);
  EXPECT_TRUE(std::signbit(z.as_double()));
  EXPECT_EQ(z.dump(), "-0");
  EXPECT_EQ(json::Value::parse("0").kind(), json::Value::Kind::integer);
  EXPECT_EQ(json::Value::parse("-7").kind(), json::Value::Kind::integer);
  EXPECT_EQ(json::Value::parse("[-0,0,-0.0]").dump(), "[-0,0,-0]");

  // So a dump whose results hold -0.0 is canonical text.
  json::Value results = json::Value::object();
  results["x"] = json::Value::number(-0.0);
  const CounterRegistry reg;
  std::string dump;
  perf::write_dump(dump, reg, 7_us, results);
  EXPECT_NE(dump.find("\"x\": -0\n"), std::string::npos);
  EXPECT_EQ(json::Value::parse(dump).dump(2), dump);
}

TEST(Report, MachineWorkloadAndBalanceRules) {
  sim::Simulator sim;
  core::TSeries machine{sim, 1};
  CounterRegistry reg;
  machine.enable_perf(reg);
  reg.meta().workload = "two_node_saxpy";
  occam::Runtime rt{machine};

  std::vector<node::Array64> xs(2);
  std::vector<node::Array64> ys(2);
  for (net::NodeId id = 0; id < 2; ++id) {
    node::Node& nd = machine.node(id);
    xs[id] = nd.alloc64(mem::Bank::A, 128);
    ys[id] = nd.alloc64(mem::Bank::B, 128);
    nd.write64(xs[id], std::vector<double>(128, 1.0));
    nd.write64(ys[id], std::vector<double>(128, 2.0));
  }
  const sim::SimTime elapsed = rt.run([&](occam::Ctx& ctx) -> sim::Proc {
    node::Node& nd = ctx.node();
    for (int i = 0; i < 8; ++i) {
      co_await nd.vscalar(vpu::VectorForm::vsaxpy, 2.0, xs[ctx.id()],
                          ys[ctx.id()], ys[ctx.id()]);
    }
    double v = 1.0;
    co_await ctx.allreduce_sum(&v);
  });

  const perf::MachineReport r =
      perf::analyze(perf::from_json(perf::to_json(reg, elapsed)));
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.total_flops, 2u * 8u * 2u * 128u);
  EXPECT_GT(r.aggregate_mflops, 0.0);
  // All vector work is full 128-element VSAXPY, so the active rate is the
  // single-form rate: 256 flops per 18.425 us.
  EXPECT_NEAR(r.active_mflops, 256.0 / 18.425, 1e-6);
  // occam messages crossed the one cube link in both directions.
  EXPECT_FALSE(r.links.empty());
  EXPECT_GT(r.nodes[0].link_bytes, 0u);
  // No gathers ran: the gather rule is inapplicable, the link rule holds
  // (4096 flops against a handful of words).
  EXPECT_FALSE(r.gather_balance.applicable);
  EXPECT_TRUE(r.link_balance.applicable);
  EXPECT_TRUE(r.link_balance.ok);
  EXPECT_TRUE(r.balance_ok());
  // The rendering mentions the machine shape and the balance section.
  const std::string text = perf::render(r);
  EXPECT_NE(text.find("two_node_saxpy"), std::string::npos);
  EXPECT_NE(text.find("balance"), std::string::npos);
}

TEST(Report, FlagsGatherBalanceViolation) {
  // 2 flops per gathered element — far below the paper's 13.
  sim::Simulator sim;
  node::Node nd{sim, 0};
  CounterRegistry reg;
  nd.attach_perf(reg);
  const node::Array64 x = nd.alloc64(mem::Bank::A, 128);
  const node::Array64 y = nd.alloc64(mem::Bank::B, 128);
  sim.spawn([](node::Node* n, node::Array64 ax, node::Array64 ay) -> sim::Proc {
    co_await n->gather(128);
    co_await n->vscalar(vpu::VectorForm::vsaxpy, 2.0, ax, ay, ay);
  }(&nd, x, y));
  sim.run();
  const perf::MachineReport r =
      perf::analyze(perf::from_json(perf::to_json(reg, sim.now())));
  ASSERT_TRUE(r.gather_balance.applicable);
  EXPECT_FALSE(r.gather_balance.ok);
  EXPECT_FALSE(r.balance_ok());
  EXPECT_NEAR(r.gather_balance.measured, 2.0, 1e-9);
  EXPECT_NE(perf::render(r).find("VIOLATION"), std::string::npos);
}

/// One full traced run of the traced_saxpy workload shape (gather-overlapped
/// VSAXPY stripes plus a cube allreduce), serialized to a tperf dump.
struct TracedRun {
  std::uint64_t events = 0;
  std::string dump;
};

TracedRun run_traced_saxpy_workload() {
  sim::Simulator sim;
  core::TSeries machine{sim, /*dimension=*/1};
  CounterRegistry reg;
  machine.enable_perf(reg);
  reg.meta().workload = "determinism_fixture";
  occam::Runtime rt{machine};

  std::vector<node::Array64> xs(machine.size());
  std::vector<node::Array64> ys(machine.size());
  for (net::NodeId id = 0; id < machine.size(); ++id) {
    node::Node& nd = machine.node(id);
    xs[id] = nd.alloc64(mem::Bank::A, 128);
    ys[id] = nd.alloc64(mem::Bank::B, 128);
    nd.write64(xs[id], std::vector<double>(128, 1.0 + id));
    nd.write64(ys[id], std::vector<double>(128, 2.0));
  }
  const sim::SimTime elapsed = rt.run([&](occam::Ctx& ctx) -> sim::Proc {
    node::Node& nd = ctx.node();
    for (int stripe = 0; stripe < 3; ++stripe) {
      std::vector<sim::Proc> par;
      par.push_back(nd.gather(128));
      par.push_back([](node::Node* n, node::Array64 x,
                       node::Array64 y) -> sim::Proc {
        for (int i = 0; i < 4; ++i) {
          co_await n->vscalar(vpu::VectorForm::vsaxpy, 2.0, x, y, y);
        }
      }(&nd, xs[ctx.id()], ys[ctx.id()]));
      co_await sim::WhenAll{std::move(par)};
    }
    double local = 1.0 + ctx.id();
    co_await ctx.allreduce_sum(&local);
  });
  return TracedRun{sim.events_processed(),
                   perf::to_json(reg, elapsed).dump(2)};
}

// Determinism pin for the event-core rewrite: the whole (time, scheduling
// order) dispatch contract is observable here. Two identical traced runs
// must execute the same number of events and serialize byte-identical
// tperf dumps — any reordering of same-instant events (and thus any drift
// in the E1-E13 reproductions) shows up as a diff.
TEST(Determinism, TracedSaxpyRunsAreByteIdentical) {
  const TracedRun a = run_traced_saxpy_workload();
  const TracedRun b = run_traced_saxpy_workload();
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.dump, b.dump);
}

}  // namespace
}  // namespace fpst
