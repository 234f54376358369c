// Tests for tscope (src/perf/tscope.*): the log-bucket histogram, flight
// stitching across store-and-forward hops, the congestion heatmap against
// net/hypercube's static e-cube prediction, critical-path extraction, the
// dump round-trip with message-lifecycle events, and graceful degradation
// when the span ring evicts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "link/link.hpp"
#include "net/hypercube.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "perf/histogram.hpp"
#include "perf/tscope.hpp"
#include "sim/proc.hpp"

namespace fpst {
namespace {

using perf::CounterRegistry;
using perf::Histogram;

constexpr std::uint16_t kTag = 9;

sim::Proc drain(occam::Ctx* ctx, std::size_t msgs) {
  for (std::size_t i = 0; i < msgs; ++i) {
    occam::Msg m;
    co_await ctx->recv_any(kTag, &m);
  }
}

/// Full all-to-all of `elems`-double messages on a `dim`-cube with perf
/// attached; returns the run's wall time.
sim::SimTime run_alltoall(int dim, CounterRegistry& reg,
                          std::size_t elems = 4) {
  sim::Simulator sim;
  core::TSeries machine{sim, dim};
  machine.enable_perf(reg);
  reg.meta().workload = "alltoall test";
  occam::Runtime rt{machine};
  const std::size_t n = machine.size();
  return rt.run([&reg, &machine, n, elems](occam::Ctx& ctx) -> sim::Proc {
    (void)reg;
    (void)machine;
    std::vector<sim::Proc> par;
    for (std::size_t rel = 1; rel < n; ++rel) {
      const net::NodeId peer =
          static_cast<net::NodeId>((ctx.id() + rel) % n);
      par.push_back(
          ctx.send(peer, kTag, std::vector<double>(elems, 1.0)));
    }
    par.push_back(drain(&ctx, n - 1));
    co_await sim::WhenAll{std::move(par)};
  });
}

TEST(Histogram, EmptyAndSingleValue) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.add(7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 7);
  EXPECT_EQ(h.max(), 7);
  EXPECT_EQ(h.sum(), 7);
  // A lone observation is every quantile (interpolation clamps to min/max).
  EXPECT_EQ(h.quantile(0.0), 7.0);
  EXPECT_EQ(h.quantile(0.5), 7.0);
  EXPECT_EQ(h.quantile(1.0), 7.0);
}

TEST(Histogram, BucketsAndQuantilesAreDeterministic) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 1000; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
  // Quantiles are monotone and bounded by the observed range.
  const double p50 = a.quantile(0.50);
  const double p90 = a.quantile(0.90);
  const double p99 = a.quantile(0.99);
  EXPECT_LE(1.0, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 1000.0);
  // Log2 bucketing: value v lands in [2^(b-1), 2^b); p50 of 1..1000 must
  // fall inside the bucket covering rank 500 ([512, 1023] holds ranks
  // 511..999, [256, 511] holds 255..510 -> rank 499.5 is in [256, 512)).
  EXPECT_GE(p50, 256.0);
  EXPECT_LT(p50, 512.0);
  // Negative observations clamp to zero rather than corrupting a bucket.
  Histogram neg;
  neg.add(-5);
  EXPECT_EQ(neg.min(), 0);
  EXPECT_EQ(neg.quantile(0.5), 0.0);
}

TEST(Histogram, MergeMatchesSingleHistogram) {
  // Merging per-worker histograms must equal one histogram that saw every
  // value — the lock-free aggregation contract the serve layer relies on.
  Histogram a;
  Histogram b;
  Histogram all;
  for (int i = 1; i <= 500; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 501; i <= 1000; ++i) {
    b.add(i * 3);
    all.add(i * 3);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.to_json().dump(2), all.to_json().dump(2));
}

TEST(Histogram, MergeWithEmptySides) {
  Histogram empty;
  Histogram h;
  h.add(42);
  // empty <- non-empty adopts the other's min/max instead of keeping the
  // zero-initialised fields.
  Histogram dst;
  dst.merge(h);
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.min(), 42);
  EXPECT_EQ(dst.max(), 42);
  // non-empty <- empty is a no-op.
  dst.merge(empty);
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.min(), 42);
  EXPECT_EQ(dst.max(), 42);
  // empty <- empty stays empty.
  Histogram e2;
  e2.merge(empty);
  EXPECT_EQ(e2.count(), 0u);
  EXPECT_EQ(e2.quantile(0.5), 0.0);
}

TEST(Histogram, MergeOverflowBucket) {
  // INT64_MAX has bit_width 63, so the highest reachable bucket is 63.
  // Merging histograms with mass there must sum the bucket, not wrap or
  // drop it, and the value sum must saturate rather than overflow.
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  Histogram a;
  Histogram b;
  a.add(big);
  a.add(big - 1);
  b.add(big);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), big);
  EXPECT_EQ(a.bucket_count(63), 3u);
  EXPECT_EQ(a.sum(), big);  // saturated, not wrapped
  // The quantile stays clamped to the observed max even at the extreme.
  EXPECT_EQ(a.quantile(1.0), static_cast<double>(big));
}

TEST(Tscope, StitchesTwoHopFlight) {
  // 2-cube, node 0 -> node 3: e-cube routes dimension 0 then 1, so the
  // packet store-and-forwards through node 1.
  CounterRegistry reg;
  sim::Simulator sim;
  core::TSeries machine{sim, 2};
  machine.enable_perf(reg);
  occam::Runtime rt{machine};
  constexpr std::size_t kElems = 4;
  std::vector<occam::Runtime::Body> bodies(4, [](occam::Ctx&) -> sim::Proc {
    co_return;
  });
  bodies[0] = [](occam::Ctx& ctx) -> sim::Proc {
    co_await ctx.send(3, kTag, std::vector<double>(kElems, 2.5));
  };
  bodies[3] = [](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> data;
    co_await ctx.recv(0, kTag, &data);
  };
  const sim::SimTime wall = rt.run(bodies);

  const perf::MessageReport r =
      perf::analyze_messages(perf::snapshot(reg, wall));
  ASSERT_EQ(r.flights.size(), 1u);
  EXPECT_EQ(r.incomplete, 0u);
  const perf::Flight& f = r.flights[0];
  EXPECT_EQ(f.src, 0u);
  EXPECT_EQ(f.dst, 3u);
  EXPECT_EQ(f.tag, kTag);
  const std::uint64_t encoded = 4 + 8 * kElems;
  EXPECT_EQ(f.bytes, encoded);
  EXPECT_EQ(f.ecube_min, 2);
  ASSERT_EQ(f.hops.size(), 2u);
  EXPECT_EQ(f.hops[0].from, 0u);
  EXPECT_EQ(f.hops[0].to, 1u);
  EXPECT_EQ(f.hops[1].from, 1u);
  EXPECT_EQ(f.hops[1].to, 3u);
  // Uncontended run: each hop's DMA starts the moment it is enqueued, and
  // the transfer charges exactly startup + wire time.
  const sim::SimTime transfer = link::LinkParams::transfer_time(encoded);
  for (const perf::FlightHop& h : f.hops) {
    EXPECT_TRUE(h.queue.is_zero());
    EXPECT_EQ(h.transfer, transfer);
  }
  EXPECT_GT(f.deliver, f.inject);
  EXPECT_GE(f.latency(), 2 * transfer);

  // Heatmap: one crossing each on edges 0-1 and 1-3.
  ASSERT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.edges[0].a, 0u);
  EXPECT_EQ(r.edges[0].b, 1u);
  EXPECT_EQ(r.edges[0].crossings, 1u);
  EXPECT_EQ(r.edges[1].a, 1u);
  EXPECT_EQ(r.edges[1].b, 3u);
  EXPECT_EQ(r.edges[1].crossings, 1u);

  // Per-node roles: 0 sent, 1 forwarded, 3 received.
  ASSERT_EQ(r.per_node.size(), 4u);
  EXPECT_EQ(r.per_node[0].sent, 1u);
  EXPECT_EQ(r.per_node[0].bytes_sent, encoded);
  EXPECT_EQ(r.per_node[0].hops_sent, 2u);
  EXPECT_EQ(r.per_node[1].forwarded, 1u);
  EXPECT_EQ(r.per_node[3].received, 1u);
  EXPECT_EQ(r.per_node[2].sent + r.per_node[2].received +
                r.per_node[2].forwarded,
            0u);

  // A single flight is its own critical path.
  ASSERT_EQ(r.critical.chain.size(), 1u);
  EXPECT_EQ(r.critical.chain[0], f.id);
  EXPECT_EQ(r.critical.length, f.latency());
  EXPECT_EQ(r.max_hops, 2);
  EXPECT_TRUE(r.ecube_minimal);
}

TEST(Tscope, AllToAllMatchesEcubePrediction) {
  CounterRegistry reg;
  const sim::SimTime wall = run_alltoall(3, reg);
  const perf::MessageReport r =
      perf::analyze_messages(perf::snapshot(reg, wall));
  const std::size_t n = 8;
  EXPECT_EQ(r.flights.size(), n * (n - 1));
  EXPECT_EQ(r.incomplete, 0u);
  EXPECT_TRUE(r.ecube_minimal);
  EXPECT_LE(r.max_hops, 3);

  // Total hops = sum of pairwise Hamming distances.
  std::uint64_t want_hops = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::uint32_t d = 0; d < n; ++d) {
      if (s != d) {
        want_hops += static_cast<std::uint64_t>(std::popcount(s ^ d));
      }
    }
  }
  EXPECT_EQ(r.total_hops, want_hops);
  EXPECT_EQ(r.latency_ps.count(), r.flights.size());
  EXPECT_EQ(r.queue_ps.count(), want_hops);

  // Observed per-edge crossings equal the static e-cube routing prediction.
  net::Hypercube cube{3};
  std::vector<std::pair<net::NodeId, net::NodeId>> flows;
  for (const perf::Flight& f : r.flights) {
    flows.emplace_back(f.src, f.dst);
  }
  const std::vector<net::EdgeTraffic> want =
      net::ecube_edge_traffic(cube, flows);
  ASSERT_EQ(r.edges.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r.edges[i].a, want[i].a);
    EXPECT_EQ(r.edges[i].b, want[i].b);
    EXPECT_EQ(r.edges[i].crossings, want[i].crossings);
  }
  // All 12 cube edges carry traffic in a full all-to-all.
  EXPECT_EQ(r.edges.size(), cube.edges().size());
}

TEST(Tscope, CriticalPathFollowsRelayChain) {
  // 0 -> 1 -> 2 -> 3 as dependent messages: each node sends only after its
  // receive, so the chain is the whole causal history of the run.
  CounterRegistry reg;
  sim::Simulator sim;
  core::TSeries machine{sim, 2};
  machine.enable_perf(reg);
  occam::Runtime rt{machine};
  std::vector<occam::Runtime::Body> bodies;
  bodies.push_back([](occam::Ctx& ctx) -> sim::Proc {
    co_await ctx.send(1, kTag, std::vector<double>(2, 1.0));
  });
  for (net::NodeId id = 1; id <= 2; ++id) {
    bodies.push_back([](occam::Ctx& ctx) -> sim::Proc {
      std::vector<double> data;
      co_await ctx.recv(ctx.id() - 1, kTag, &data);
      co_await ctx.send(ctx.id() + 1, kTag, std::move(data));
    });
  }
  bodies.push_back([](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> data;
    co_await ctx.recv(2, kTag, &data);
  });
  const sim::SimTime wall = rt.run(bodies);

  const perf::MessageReport r =
      perf::analyze_messages(perf::snapshot(reg, wall));
  ASSERT_EQ(r.flights.size(), 3u);
  ASSERT_EQ(r.critical.chain.size(), 3u);
  sim::SimTime sum{};
  std::map<std::uint32_t, const perf::Flight*> by_id;
  for (const perf::Flight& f : r.flights) {
    by_id[f.id] = &f;
  }
  for (std::size_t i = 0; i < r.critical.chain.size(); ++i) {
    const perf::Flight* f = by_id.at(r.critical.chain[i]);
    sum += f->latency();
    if (i > 0) {
      // Chain links: each flight starts at the previous one's destination,
      // after its delivery.
      const perf::Flight* prev = by_id.at(r.critical.chain[i - 1]);
      EXPECT_EQ(f->src, prev->dst);
      EXPECT_LE(prev->deliver, f->inject);
    }
  }
  EXPECT_EQ(r.critical.length, sum);
  EXPECT_GT(r.critical.wall_fraction, 0.0);
  EXPECT_LE(r.critical.wall_fraction, 1.0);
}

TEST(Tscope, SelfSendIsAZeroHopFlight) {
  CounterRegistry reg;
  sim::Simulator sim;
  core::TSeries machine{sim, 1};
  machine.enable_perf(reg);
  occam::Runtime rt{machine};
  const sim::SimTime wall = rt.run([](occam::Ctx& ctx) -> sim::Proc {
    co_await ctx.send(ctx.id(), kTag, std::vector<double>(1, 1.0));
    occam::Msg m;
    co_await ctx.recv_any(kTag, &m);
  });
  const perf::MessageReport r =
      perf::analyze_messages(perf::snapshot(reg, wall));
  ASSERT_EQ(r.flights.size(), 2u);
  for (const perf::Flight& f : r.flights) {
    EXPECT_EQ(f.src, f.dst);
    EXPECT_TRUE(f.hops.empty());
    EXPECT_EQ(f.ecube_min, 0);
    EXPECT_TRUE(f.latency().is_zero());
  }
  EXPECT_EQ(r.max_hops, 0);
  EXPECT_EQ(r.total_hops, 0u);
}

TEST(Tscope, DumpRoundTripIsByteIdentical) {
  // The streamed dump prints back byte for byte through the parser, and
  // loads into exactly the in-process snapshot, message-lifecycle events
  // included.
  CounterRegistry reg;
  const sim::SimTime wall = run_alltoall(2, reg);
  std::string streamed;
  perf::write_dump(streamed, reg, wall);
  const perf::json::Value doc = perf::json::Value::parse(streamed);
  EXPECT_EQ(doc.dump(2), streamed);
  const perf::Dump reloaded = perf::from_json(doc);
  const perf::Dump direct = perf::snapshot(reg, wall);
  EXPECT_TRUE(reloaded.tracks == direct.tracks);
  EXPECT_TRUE(reloaded.spans == direct.spans);
  // The reloaded dump stitches identically to the in-process snapshot.
  EXPECT_EQ(perf::messages_to_json(perf::analyze_messages(reloaded)).dump(2),
            perf::messages_to_json(perf::analyze_messages(direct)).dump(2));
}

TEST(Tscope, IdenticalRunsProduceIdenticalReports) {
  CounterRegistry a;
  CounterRegistry b;
  const sim::SimTime wall_a = run_alltoall(2, a);
  const sim::SimTime wall_b = run_alltoall(2, b);
  EXPECT_EQ(wall_a, wall_b);
  EXPECT_EQ(perf::to_json(a, wall_a).dump(2), perf::to_json(b, wall_b).dump(2));
  EXPECT_EQ(perf::messages_to_json(
                perf::analyze_messages(perf::snapshot(a, wall_a)))
                .dump(2),
            perf::messages_to_json(
                perf::analyze_messages(perf::snapshot(b, wall_b)))
                .dump(2));
}

TEST(Tscope, RingEvictionDegradesToIncompleteFlights) {
  // A deliberately tiny span ring: early lifecycle events are evicted, so
  // the stitcher must report those flights as incomplete instead of
  // fabricating records, and the drop count must surface in the report.
  CounterRegistry reg{CounterRegistry::Options{.timeline_capacity = 32}};
  const sim::SimTime wall = run_alltoall(2, reg);
  const perf::MessageReport r =
      perf::analyze_messages(perf::snapshot(reg, wall));
  EXPECT_GT(r.spans_dropped, 0u);
  EXPECT_GT(r.incomplete, 0u);
  EXPECT_LT(r.flights.size(), 12u);
  // What does survive is still internally consistent.
  for (const perf::Flight& f : r.flights) {
    EXPECT_EQ(static_cast<int>(f.hops.size()), f.ecube_min);
    EXPECT_GE(f.deliver, f.inject);
  }
}

TEST(Tscope, UntracedDumpYieldsEmptyReport) {
  // A single-node workload dump (vpu/cp/mem spans, no messages) must parse
  // to a zero-message report rather than misreading arithmetic spans.
  CounterRegistry reg;
  sim::Simulator sim;
  node::Node nd{sim, 0};
  reg.meta().nodes = 1;
  nd.attach_perf(reg);
  sim.spawn([](node::Node* n) -> sim::Proc {
    co_await n->gather(64);
    co_await n->cp_work(100);
  }(&nd));
  sim.run();
  const perf::MessageReport r =
      perf::analyze_messages(perf::snapshot(reg, sim.now()));
  EXPECT_TRUE(r.flights.empty());
  EXPECT_EQ(r.incomplete, 0u);
  EXPECT_EQ(r.latency_ps.count(), 0u);
  EXPECT_TRUE(r.critical.chain.empty());
}

}  // namespace
}  // namespace fpst
