// Tests for the tperf observability subsystem (src/perf): counter
// determinism, span invariants, the Chrome trace_event dump schema, the
// streaming dump writer against the tree view, the JSON round-trip and
// parser limits, ring bounding, and the report builder's balance rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "node/node.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "perf/report.hpp"
#include "sim/proc.hpp"

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
  run_node_workload(&reg);
  EXPECT_EQ(reg.value(0, "vpu", "ops"), 4u);
  EXPECT_EQ(reg.value(0, "vpu", "flops"), 4u * 2u * 128u);
  EXPECT_EQ(reg.value(0, "vpu", "adder_results"), 4u * 128u);
  EXPECT_EQ(reg.value(0, "vpu", "mul_results"), 4u * 128u);
  EXPECT_EQ(reg.value(0, "cp", "gather_elems"), 64u);
  EXPECT_EQ(reg.value(0, "cp", "scatter_elems"), 32u);
  EXPECT_GT(reg.value(0, "mem", "row_loads"), 0u);
  EXPECT_GT(reg.value(0, "mem", "row_stores"), 0u);
  // Busy accumulators: all vpu time here is VSAXPY time.
  EXPECT_EQ(reg.time_value(0, "vpu", "busy"),
            reg.time_value(0, "vpu", "busy.VSAXPY"));
  EXPECT_FALSE(reg.time_value(0, "cp", "busy").is_zero());
  // Untouched names and tracks read as zero, without creating anything.
  EXPECT_EQ(reg.value(0, "vpu", "bank_conflicts"), 0u);
  EXPECT_EQ(reg.value(7, "vpu", "ops"), 0u);
  EXPECT_EQ(reg.find(7, "vpu"), nullptr);
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
    if (s.is_instant) {
      EXPECT_TRUE(s.duration.is_zero());
    } else {
      EXPECT_FALSE(s.duration.is_zero());
    }
    if (s.track == reg.track(0, "vpu").track_id()) {
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

TEST(Timeline, RingBoundsSpansAndReportsDrops) {
  CounterRegistry reg{CounterRegistry::Options{.timeline_capacity = 2}};
  const sim::SimTime wall = run_node_workload(&reg);
  EXPECT_LE(reg.timeline().size(), 2u);
  EXPECT_GT(reg.timeline().dropped(), 0u);
  // Counters are unaffected by span loss, and the dump declares the drops.
  EXPECT_EQ(reg.value(0, "vpu", "ops"), 4u);
  const perf::Dump d = perf::from_json(perf::to_json(reg, wall));
  EXPECT_EQ(d.spans_dropped, reg.timeline().dropped());
}

TEST(Timeline, DisabledCollectionKeepsCounters) {
  CounterRegistry reg{CounterRegistry::Options{.collect_spans = false}};
  run_node_workload(&reg);
  EXPECT_EQ(reg.timeline().size(), 0u);
  EXPECT_EQ(reg.timeline().dropped(), 0u);
  EXPECT_EQ(reg.value(0, "vpu", "ops"), 4u);
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
    const perf::TrackSink* s = reg.find(t.node, t.component);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(t.counts, s->counts());
    EXPECT_EQ(t.times, s->times());
  }
  ASSERT_EQ(d.spans.size(), reg.timeline().size());
  for (std::size_t i = 0; i < d.spans.size(); ++i) {
    EXPECT_EQ(d.spans[i].start, reg.timeline()[i].start);
    EXPECT_EQ(d.spans[i].duration, reg.timeline()[i].duration);
    EXPECT_EQ(d.spans[i].name, reg.timeline()[i].name);
  }
  EXPECT_EQ(d.value(0, "vpu", "flops"), reg.value(0, "vpu", "flops"));
  EXPECT_EQ(d.time_value(0, "vpu", "busy"), reg.time_value(0, "vpu", "busy"));
  ASSERT_NE(d.results.find("answer"), nullptr);
  EXPECT_EQ(d.results.find("answer")->as_int(), 42);
}

// A registry with every shape the dump schema has: tracks whose counts or
// busy_ps maps are empty, node numbers whose string order differs from
// their numeric order, complete and instant spans, spans the ring dropped,
// and a workload label that needs escaping.
void fill_edge_case_registry(CounterRegistry& reg) {
  reg.meta().dimension = 4;
  reg.meta().nodes = 16;
  reg.meta().workload = std::string("quote\" backslash\\ bell\x07 tab\t");
  reg.track(0, "empty");
  reg.track(2, "cp").count("instr", 7);
  reg.track(10, "cp").busy("busy", 3_us);
  perf::TrackSink& link = reg.track(10, "link3");
  link.count("bytes", 1ULL << 40);
  link.busy("busy.sublink1", sim::SimTime::picoseconds(1));
  for (int i = 0; i < 5; ++i) {
    reg.track(2, "cp").span(sim::SimTime::picoseconds(1000 * (5 - i)), 1_ns,
                            "op" + std::to_string(i));
    link.instant(sim::SimTime::picoseconds(1000 * i), "m" + std::to_string(i));
  }
}

// The streaming writer must print exactly what the tree view prints, and
// what it prints must load back into the same dump.
void expect_stream_matches_tree(const CounterRegistry& reg,
                                const perf::json::Value& results) {
  const sim::SimTime wall = 7_us;
  std::string streamed;
  perf::write_dump(streamed, reg, wall, results);
  perf::json::Value doc = perf::to_json(reg, wall);
  if (!results.is_null()) {
    doc["results"] = results;
  }
  EXPECT_EQ(streamed, doc.dump(2));
  EXPECT_EQ(
      perf::to_json(perf::from_json(perf::json::Value::parse(streamed)))
          .dump(2),
      streamed);
}

TEST(ChromeTrace, StreamedDumpMatchesTreeOnEdgeCases) {
  perf::json::Value results = perf::json::Value::object();
  results["label"] = perf::json::Value::string("a\"b\\c\x01");
  results["nan"] = perf::json::Value::number(std::nan(""));
  results["rows"] = perf::json::Value::array();
  results["rows"].append(perf::json::Value::number(0.1));
  results["rows"].append(perf::json::Value::object());

  CounterRegistry::Options small;
  small.timeline_capacity = 4;  // 10 spans recorded: 6 dropped
  CounterRegistry reg{small};
  fill_edge_case_registry(reg);
  ASSERT_GT(reg.timeline().dropped(), 0u);
  expect_stream_matches_tree(reg, perf::json::Value{});
  expect_stream_matches_tree(reg, results);

  // Sharded timelines merge by start time, ties broken by shard; node 2's
  // and node 10's spans tie four times.
  CounterRegistry sharded{small};
  std::vector<int> shard_of(16, 0);
  shard_of[10] = 1;
  sharded.shard_spans(shard_of, 2);
  fill_edge_case_registry(sharded);
  ASSERT_GT(sharded.shard_timelines()[1]->dropped(), 0u);
  expect_stream_matches_tree(sharded, results);

  const CounterRegistry empty;
  expect_stream_matches_tree(empty, perf::json::Value{});
  expect_stream_matches_tree(empty, results);
}

TEST(ChromeTrace, RejectsForeignDocuments) {
  EXPECT_THROW(perf::from_json(perf::json::Value::parse("{}")),
               std::runtime_error);
  EXPECT_THROW(
      perf::from_json(perf::json::Value::parse(R"({"traceEvents": []})")),
      std::runtime_error);
}

TEST(Json, NestingPastTheLimitIsATypedError) {
  namespace json = perf::json;
  // Far under tsim's 1 MiB request-line cap, far over any stack.
  const std::string brackets((1 << 20) - 1, '[');
  std::string members;
  for (int i = 0; i < 100000; ++i) {
    members += "{\"a\":";
  }
  const auto expect_depth_error = [](const std::string& text, bool strict) {
    try {
      (void)(strict ? json::Value::parse_strict(text)
                    : json::Value::parse(text));
      ADD_FAILURE() << "deep nesting parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("json: nesting deeper than"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(" at offset "), std::string::npos);
    }
  };
  for (const bool strict : {false, true}) {
    expect_depth_error(brackets, strict);
    expect_depth_error(members, strict);
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
