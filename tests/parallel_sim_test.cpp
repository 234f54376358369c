// Tests for the conservative parallel DES engine (sim/parallel_sim.hpp):
// the Gray-code subcube ShardMap, the barrier-epoch scheduler's determinism
// guarantees (same-instant merge order, thread-count independence, exact
// degeneration to the serial engine), the causality-violation abort, and
// race-freedom of a sharded machine under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "link/link.hpp"
#include "occam/occam.hpp"
#include "perf/chrome_trace.hpp"
#include "perf/counters.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace fpst;
using sim::ParallelSim;
using sim::ShardMap;
using sim::SimTime;

// ---------------------------------------------------------------------------
// ShardMap

TEST(ShardMapTest, GrayRankInvertsGray) {
  // Shard s owns the subcube whose top address bits are gray(s).
  const ShardMap m{10, 1024};
  for (std::uint32_t s = 0; s < 1024; ++s) {
    EXPECT_EQ(m.shard_of(bits::gray(s)), static_cast<int>(s));
  }
}

TEST(ShardMapTest, PartitionsIntoEqualContiguousSubcubes) {
  const ShardMap m{6, 4};
  // 64 nodes over 4 shards: nodes sharing the top 2 address bits must land
  // together, and every shard gets exactly 16 nodes.
  std::vector<int> count(4, 0);
  for (std::uint32_t n = 0; n < 64; ++n) {
    const int s = m.shard_of(n);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++count[static_cast<std::size_t>(s)];
    EXPECT_EQ(s, m.shard_of(n | 0xF));  // low 4 bits never matter
  }
  for (const int c : count) {
    EXPECT_EQ(c, 16);
  }
}

TEST(ShardMapTest, AdjacentShardsAreCubeNeighbours) {
  // Gray numbering: the subcubes of shard s and s+1 differ in exactly one
  // of the top dimensions.
  const ShardMap m{6, 8};
  for (std::uint32_t s = 0; s + 1 < 8; ++s) {
    const std::uint32_t a = bits::gray(s);
    const std::uint32_t b = bits::gray(s + 1);
    const std::uint32_t diff = a ^ b;
    EXPECT_EQ(diff & (diff - 1), 0u);  // exactly one bit
  }
}

TEST(ShardMapTest, OnlyHighDimensionsCrossShards) {
  const ShardMap m{6, 4};
  for (int d = 0; d < 4; ++d) {
    EXPECT_FALSE(m.dim_crosses_shards(d)) << d;
  }
  EXPECT_TRUE(m.dim_crosses_shards(4));
  EXPECT_TRUE(m.dim_crosses_shards(5));
}

TEST(ShardMapTest, RejectsBadShardCounts) {
  EXPECT_THROW(ShardMap(4, 3), std::invalid_argument);   // not a power of 2
  EXPECT_THROW(ShardMap(2, 8), std::invalid_argument);   // more than nodes
  EXPECT_THROW(ShardMap(4, 0), std::invalid_argument);
  EXPECT_NO_THROW(ShardMap(4, 16));  // one node per shard is legal
}

// ---------------------------------------------------------------------------
// ParallelSim core

TEST(ParallelSimTest, RequiresLookaheadWhenSharded) {
  ParallelSim::Options po;
  po.shards = 2;
  EXPECT_THROW(ParallelSim{po}, std::invalid_argument);
  po.lookahead = SimTime::microseconds(1);
  EXPECT_NO_THROW(ParallelSim{po});
  po.shards = 1;
  po.lookahead = SimTime{};
  EXPECT_NO_THROW(ParallelSim{po});  // serial degenerate: no window needed
}

TEST(ParallelSimTest, SingleShardMatchesSerialEngineExactly) {
  // The same event program driven through a plain Simulator and through the
  // shards=1 engine must execute in the identical order at the identical
  // times — run() with one shard *is* the serial engine.
  const auto program = [](sim::Simulator& s,
                          std::vector<std::pair<std::int64_t, int>>* log) {
    for (int i = 0; i < 64; ++i) {
      s.schedule(SimTime::nanoseconds((i * 37) % 100), [&s, log, i] {
        log->push_back({s.now().ps(), i});
        if (i % 7 == 0) {
          s.schedule(SimTime::nanoseconds(5),
                     [&s, log, i] { log->push_back({s.now().ps(), 1000 + i}); });
        }
      });
    }
  };
  std::vector<std::pair<std::int64_t, int>> serial_log;
  sim::Simulator serial;
  program(serial, &serial_log);
  serial.run();

  std::vector<std::pair<std::int64_t, int>> par_log;
  ParallelSim psim{ParallelSim::Options{}};
  program(psim.shard(0), &par_log);
  psim.run();

  EXPECT_EQ(par_log, serial_log);
  EXPECT_EQ(psim.events_processed(), serial.events_processed());
  EXPECT_EQ(psim.now(), serial.now());
}

ParallelSim::Options two_shards() {
  ParallelSim::Options po;
  po.shards = 2;
  po.lookahead = SimTime::microseconds(10);
  return po;
}

TEST(ParallelSimTest, SameInstantMailMergesByKeyThenShard) {
  // Three deliveries landing on shard 1 at the same instant, posted in
  // scrambled order: the engine must run them in (key, source shard) order
  // regardless of posting order or thread count.
  for (const int threads : {1, 2}) {
    ParallelSim::Options po = two_shards();
    po.threads = threads;
    ParallelSim psim{po};
    std::vector<int> order;
    const SimTime at = SimTime::microseconds(50);
    psim.post(0, 1, at, /*key=*/9, [&order] { order.push_back(9); });
    psim.post(0, 1, at, /*key=*/2, [&order] { order.push_back(2); });
    psim.post(1, 1, at, /*key=*/2, [&order] { order.push_back(100); });
    psim.run();
    // key 2 before key 9; within key 2, source shard 0 before source 1.
    EXPECT_EQ(order, (std::vector<int>{2, 100, 9}))
        << "threads=" << threads;
    EXPECT_EQ(psim.now(), at);
  }
}

TEST(ParallelSimTest, CrossShardPingPongIsDeterministicAcrossThreads) {
  // A ping-pong chain between two shards: each delivery schedules local
  // work and posts the next hop at +lookahead. The executed-event count and
  // final time must be identical for every worker-thread count.
  struct Result {
    std::uint64_t events;
    std::int64_t end_ps;
  };
  const auto run_with = [](int threads) -> Result {
    ParallelSim::Options po = two_shards();
    po.threads = threads;
    ParallelSim psim{po};
    int count = 0;  // only touched by in-window events; barrier orders them
    // Bounce 32 times, alternating shards; each hop does some local work.
    std::function<void(int, SimTime)> hop = [&psim, &count,
                                             &hop](int to, SimTime at) {
      psim.shard(to).schedule_at(at, [&psim, &count, &hop, to, at] {
        ++count;
        if (count < 32) {
          const SimTime next = at + SimTime::microseconds(10);
          psim.post(to, 1 - to, next, static_cast<std::uint64_t>(count),
                    [&psim, &hop, to, next] {
                      psim.shard(1 - to).schedule(SimTime::nanoseconds(1),
                                                  [] {});
                      hop(1 - to, next);
                    });
        }
      });
    };
    hop(0, SimTime::microseconds(1));
    psim.run();
    return Result{psim.events_processed(), psim.now().ps()};
  };
  const Result t1 = run_with(1);
  const Result t2 = run_with(2);
  EXPECT_EQ(t1.events, t2.events);
  EXPECT_EQ(t1.end_ps, t2.end_ps);
  EXPECT_GT(t1.events, 32u);
}

TEST(ParallelSimTest, ProfileCountersAreConsistentAcrossThreadCounts) {
  const auto run_with = [](int shards, int threads) {
    ParallelSim::Options po = two_shards();
    po.shards = shards;
    po.threads = threads;
    ParallelSim psim{po};
    // Local work on every shard plus cross-shard mail from each shard to
    // the next, spread over several lookahead windows so multiple epochs
    // execute.
    for (int i = 0; i < 8; ++i) {
      const SimTime at = SimTime::microseconds(5 + 10 * i);
      for (int s = 0; s < shards; ++s) {
        psim.shard(s).schedule_at(at, [] {});
        if (s + 1 < shards) {
          psim.post(s, s + 1, at + SimTime::microseconds(10),
                    static_cast<std::uint64_t>(i), [] {});
        }
      }
    }
    psim.run();
    return std::make_pair(psim.profile(), psim.events_processed());
  };
  // Odd worker counts split the 8 shards into uneven contiguous blocks.
  const std::vector<std::pair<int, std::vector<int>>> configs = {
      {2, {1, 2}}, {8, {1, 3, 5, 8}}};
  for (const auto& [shards, thread_counts] : configs) {
    const auto [p1, ev1] = run_with(shards, 1);
    EXPECT_GT(p1.epochs, 0u);
    EXPECT_EQ(p1.mail_delivered, 8u * static_cast<std::uint64_t>(shards - 1));
    for (const int threads : thread_counts) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const auto [p, ev] = run_with(shards, threads);
      ASSERT_EQ(p.shard_events.size(), static_cast<std::size_t>(shards));
      EXPECT_EQ(p.worker_barrier_ns.size(), static_cast<std::size_t>(threads));
      // Every executed event is attributed to exactly one shard.
      EXPECT_EQ(std::accumulate(p.shard_events.begin(), p.shard_events.end(),
                                std::uint64_t{0}),
                ev);
      // The deterministic profile fields (epochs, per-shard event counts,
      // mail deliveries) are pure functions of the event program and the
      // lookahead windows — never of the worker-thread count. Equal epochs
      // pins that the serial phase runs exactly once per epoch, and epochs
      // flows into the serve layer's dump *body*, so this is the property
      // the determinism gates lean on.
      EXPECT_EQ(ev, ev1);
      EXPECT_EQ(p.epochs, p1.epochs);
      EXPECT_EQ(p.shard_events, p1.shard_events);
      EXPECT_EQ(p.mail_delivered, p1.mail_delivered);
    }
  }
}

TEST(ParallelSimTest, WorkerExceptionIsRethrown) {
  ParallelSim psim{two_shards()};
  psim.shard(1).schedule(SimTime::microseconds(1),
                         [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(psim.run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Causality violations must abort loudly, never corrupt ordering silently.

TEST(ParallelSimCausalityDeathTest, PastDeliveryAbortsSingleShard) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        ParallelSim psim{ParallelSim::Options{}};
        // An event at t=100us posts mail addressed to t=50us — already in
        // this shard's past by the time the batch drains.
        psim.shard(0).schedule_at(SimTime::microseconds(100), [&psim] {
          psim.post(0, 0, SimTime::microseconds(50), 1, [] {});
        });
        psim.run();
      },
      "causality violation");
}

TEST(ParallelSimCausalityDeathTest, LookaheadLieAbortsAcrossShards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        ParallelSim::Options po;
        po.shards = 2;
        po.threads = 1;
        po.lookahead = SimTime::milliseconds(1);  // claims >= 1ms latency
        ParallelSim psim{po};
        // Shard 1 runs far past 450us inside the first epoch window while
        // shard 0 breaks its lookahead promise with a 50us-later delivery.
        psim.shard(1).schedule_at(SimTime::microseconds(900), [] {});
        psim.shard(0).schedule_at(SimTime::microseconds(400), [&psim] {
          psim.post(0, 1, SimTime::microseconds(450), 1, [] {});
        });
        psim.run();
      },
      "causality violation");
}

// ---------------------------------------------------------------------------
// Distance-aware lookahead matrix.

TEST(LookaheadMatrixTest, EntriesRespectHopDistanceTimesTransferTime) {
  // The conservative contract: lookahead(a, b) must never be *below*
  // hop_distance(a, b) * base — a message crossing d cube dimensions takes
  // at least d single-hop transfers — and set_topology installs exactly
  // that bound. Checked for every pair at several shard scales.
  const SimTime base = link::LinkParams::transfer_time(0);
  for (const int shards : {2, 4, 8, 16}) {
    ParallelSim::Options po;
    po.shards = shards;
    po.lookahead = base;
    ParallelSim psim{po};
    const ShardMap map{10, shards};
    psim.set_topology(map);
    for (int a = 0; a < shards; ++a) {
      for (int b = 0; b < shards; ++b) {
        if (a == b) {
          continue;
        }
        const int d = map.hop_distance(a, b);
        ASSERT_GE(d, 1);
        EXPECT_GE(psim.lookahead(a, b).ps(),
                  (base * static_cast<std::int64_t>(d)).ps())
            << "shards=" << shards << " pair=(" << a << "," << b << ")";
        // Metric axioms on the distance itself: symmetry plus the triangle
        // inequality through every relay. The triangle inequality is what
        // makes the matrix safe against indirect influence, so it is
        // load-bearing, not decorative.
        EXPECT_EQ(map.hop_distance(a, b), map.hop_distance(b, a));
        for (int c = 0; c < shards; ++c) {
          EXPECT_LE(map.hop_distance(a, b),
                    map.hop_distance(a, c) + map.hop_distance(c, b));
        }
      }
    }
  }
}

TEST(LookaheadMatrixTest, UniformUntilTopologyInstalled) {
  // Raw-engine users post with the single base-lookahead contract; the
  // matrix must not assume cube distances until told the topology.
  ParallelSim::Options po;
  po.shards = 8;
  po.lookahead = SimTime::microseconds(10);
  ParallelSim psim{po};
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a != b) {
        EXPECT_EQ(psim.lookahead(a, b), SimTime::microseconds(10));
      }
    }
  }
}

TEST(LookaheadMatrixTest, DistantShardsSitOutEpochs) {
  // Two hot shards at Gray distance 3 (ranks 0 and 5: gray 000 vs 111)
  // running purely local event chains, one event per base lookahead. A
  // one-hop-wide window would take one epoch per event step; the
  // distance-aware horizons let the hot pair advance in multi-hop windows
  // and never schedule the six idle shards at all.
  const SimTime base = SimTime::microseconds(10);
  constexpr int kSteps = 64;
  ParallelSim::Options po;
  po.shards = 8;
  po.threads = 2;
  po.lookahead = base;
  ParallelSim psim{po};
  psim.set_topology(ShardMap{6, 8});
  for (const int s : {0, 5}) {
    for (int i = 0; i < kSteps; ++i) {
      psim.shard(s).schedule_at(base * (1 + i), [] {});
    }
  }
  EXPECT_EQ(psim.run(), 2u * kSteps);
  const ParallelSim::Profile p = psim.profile();
  EXPECT_GT(p.epochs, 0u);
  EXPECT_LT(p.epochs, static_cast<std::uint64_t>(kSteps));
  ASSERT_EQ(p.shard_syncs.size(), 8u);
  for (const int s : {1, 2, 3, 4, 6, 7}) {
    EXPECT_EQ(p.shard_syncs[static_cast<std::size_t>(s)], 0u) << s;
  }
  EXPECT_GT(p.shard_syncs[0], 0u);
  EXPECT_GT(p.shard_syncs[5], 0u);
}

TEST(LookaheadMatrixTest, MailboxReserveShrinksAfterBurst) {
  // A one-off 4096-message burst must not pin burst-sized buffers for the
  // rest of the run: once drained and delivered, the serial phase releases
  // capacity that the live traffic no longer justifies. Regression test
  // for buffer hoarding when a pair then skips many epochs.
  ParallelSim::Options po = two_shards();
  ParallelSim psim{po};
  constexpr int kBurst = 4096;
  const SimTime at = SimTime::microseconds(100);
  for (int i = 0; i < kBurst; ++i) {
    psim.post(0, 1, at, static_cast<std::uint64_t>(i), [] {});
  }
  // Trailing sparse traffic so the engine keeps cycling epochs after the
  // burst is long gone.
  for (int i = 0; i < 32; ++i) {
    psim.shard(0).schedule_at(SimTime::microseconds(200 + 20 * i), [] {});
  }
  psim.run();
  const ParallelSim::Profile p = psim.profile();
  EXPECT_EQ(p.mail_delivered, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(p.epochs, 1u);
  // The burst alone held >= 4096 Mail slots (~hundreds of KiB). After the
  // run every box and pending buffer is empty; the retained reserve must
  // be back down to idle-capacity territory, not burst territory.
  EXPECT_LT(p.mail_reserve_bytes, 64u * 1024u);
}

TEST(ParallelSimCausalityDeathTest, InflatedMatrixEntryAbortsOnRealTraffic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        // Manipulating one matrix entry above the link's true minimum
        // delay is a lookahead lie: the scheduler lets shard 1 run beyond
        // the next honest delivery, which must trip the causality abort
        // rather than silently reorder.
        ParallelSim::Options po;
        po.shards = 2;
        po.threads = 1;
        po.lookahead = SimTime::microseconds(10);
        ParallelSim psim{po};
        psim.override_lookahead(0, 1, SimTime::milliseconds(1));
        psim.shard(1).schedule_at(SimTime::microseconds(900), [] {});
        psim.shard(0).schedule_at(SimTime::microseconds(400), [&psim] {
          // Honest per the 10us link bound, a lie per the inflated matrix.
          psim.post(0, 1, SimTime::microseconds(450), 1, [] {});
        });
        psim.run();
      },
      "causality violation");
}

// ---------------------------------------------------------------------------
// Sharded machine end to end (under TSan this is the race detector's meal).

double run_alltoall(int dim, int shards, int threads,
                    std::string* dump_json) {
  ParallelSim::Options po;
  po.shards = shards;
  po.threads = threads;
  po.lookahead = link::LinkParams::transfer_time(0);
  ParallelSim psim{po};
  core::TSeries machine{psim, dim};
  perf::CounterRegistry reg;
  if (dump_json != nullptr) {
    machine.enable_perf(reg);
    reg.meta().workload = "test alltoall";
  }
  occam::Runtime rt{machine};
  const std::size_t n = machine.size();
  std::vector<double> sums(n, 0.0);
  constexpr std::uint16_t kTag = 3;
  // Round-staged all-to-all: round r pairs every node's send to (id + r)
  // with one receive, so each node has at most one injection outstanding.
  // (An all-eager all-to-all — every node launching n-1 sends at once —
  // saturates the store-and-forward routers into a genuine communication
  // deadlock at >= 32 nodes, on the serial engine just the same; the
  // staged shape is how a real machine would run it.)
  const sim::SimTime elapsed =
      rt.run([&sums, n](occam::Ctx& ctx) -> sim::Proc {
        for (std::size_t rel = 1; rel < n; ++rel) {
          const auto peer =
              static_cast<net::NodeId>((ctx.id() + rel) % n);
          std::vector<sim::Proc> round;
          round.push_back(
              ctx.send(peer, kTag, std::vector<double>(4, 1.0 + ctx.id())));
          round.push_back([](occam::Ctx* c, double* sum) -> sim::Proc {
            occam::Msg m;
            co_await c->recv_any(kTag, &m);
            for (const double v : m.data) {
              *sum += v;
            }
          }(&ctx, &sums[ctx.id()]));
          co_await sim::WhenAll{std::move(round)};
        }
      });
  if (dump_json != nullptr) {
    *dump_json = perf::to_json(reg, elapsed).dump(2);
  }
  double total = 0.0;
  for (const double s : sums) {
    total += s;
  }
  return total;
}

double alltoall_expect(int dim) {
  const auto n = static_cast<double>(std::size_t{1} << dim);
  // Node i receives 4 doubles of value (1 + j) from every j != i.
  return 4.0 * (n * (n + 1.0) / 2.0) * (n - 1.0);
}

TEST(ParallelMachineTest, AllToAllDumpsAreIdenticalAcrossThreadCounts) {
  // 3 workers take the uneven shard blocks [0,1), [1,2) and [2,4).
  std::string t1;
  std::string t2;
  std::string t3;
  std::string t4;
  EXPECT_EQ(run_alltoall(4, 4, 1, &t1), alltoall_expect(4));
  EXPECT_EQ(run_alltoall(4, 4, 2, &t2), alltoall_expect(4));
  EXPECT_EQ(run_alltoall(4, 4, 3, &t3), alltoall_expect(4));
  EXPECT_EQ(run_alltoall(4, 4, 4, &t4), alltoall_expect(4));
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t3);
  EXPECT_EQ(t1, t4);
  EXPECT_FALSE(t1.empty());
}

TEST(ParallelMachineTest, AllToAllUnderRaceDetection) {
  // The TSan leg of CI sets FPST_HEAVY_TESTS and gets the full 10-cube
  // all-to-all the issue demands (~1M messages); the default run keeps a
  // 6-cube so sanitized local runs stay fast. Both drive every cross-shard
  // path concurrently at maximum thread count.
  const char* heavy_env = std::getenv("FPST_HEAVY_TESTS");
  const bool heavy = heavy_env != nullptr && *heavy_env != '\0';
  const int dim = heavy ? 10 : 6;
  EXPECT_EQ(run_alltoall(dim, 8, 8, nullptr), alltoall_expect(dim));
}

TEST(ParallelMachineTest, TenCubeAllreduceMatchesSerial) {
  // A 1024-node collective exercises every cross-shard dimension; the
  // result and the simulated elapsed time must not depend on threads.
  const auto run_allreduce = [](int threads) {
    ParallelSim::Options po;
    po.shards = 8;
    po.threads = threads;
    po.lookahead = link::LinkParams::transfer_time(0);
    ParallelSim psim{po};
    core::TSeries machine{psim, 10};
    occam::Runtime rt{machine};
    std::vector<double> out(machine.size(), 0.0);
    const sim::SimTime elapsed = rt.run([&out](occam::Ctx& ctx) -> sim::Proc {
      double x = 1.0 + ctx.id();
      co_await ctx.allreduce_sum(&x);
      out[ctx.id()] = x;
    });
    return std::make_pair(out, elapsed.ps());
  };
  const auto [vals2, ps2] = run_allreduce(2);
  const auto [vals4, ps4] = run_allreduce(4);
  const double expect = 1024.0 * 1025.0 / 2.0;
  for (const double v : vals2) {
    ASSERT_EQ(v, expect);
  }
  EXPECT_EQ(vals2, vals4);
  EXPECT_EQ(ps2, ps4);
}

}  // namespace
