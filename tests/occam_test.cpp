// Tests for the Occam-flavoured runtime: point-to-point messaging over
// multi-hop e-cube routes, store-and-forward costs, and the hypercube
// collectives (barrier, broadcast, reduce, allreduce).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "occam/occam.hpp"

namespace fpst::occam {
namespace {

using namespace fpst::sim::literals;
using net::NodeId;
using sim::Proc;
using sim::SimTime;
using sim::Simulator;

TEST(Occam, NeighbourPingPong) {
  Simulator sim;
  core::TSeries machine{sim, 3};
  Runtime rt{machine};
  std::vector<double> got;
  rt.run([&](Ctx& ctx) -> Proc {
    if (ctx.id() == 0) {
      std::vector<double> payload{3.25, -1.5};
      co_await ctx.send(1, 7, std::move(payload));
      std::vector<double> back;
      co_await ctx.recv(1, 8, &back);
      got = back;
    } else if (ctx.id() == 1) {
      std::vector<double> in;
      co_await ctx.recv(0, 7, &in);
      in.push_back(42.0);
      co_await ctx.send(0, 8, std::move(in));
    }
  });
  EXPECT_EQ(got, (std::vector<double>{3.25, -1.5, 42.0}));
  EXPECT_EQ(rt.packets_forwarded(), 0u) << "neighbours need no forwarding";
}

TEST(Occam, MultiHopMessagesAreForwardedOncePerIntermediateNode) {
  Simulator sim;
  core::TSeries machine{sim, 4};
  Runtime rt{machine};
  std::vector<double> got;
  rt.run([&](Ctx& ctx) -> Proc {
    if (ctx.id() == 0) {
      std::vector<double> one(1, 1.0);
      co_await ctx.send(0b1111, 1, std::move(one));
    } else if (ctx.id() == 0b1111) {
      co_await ctx.recv(0, 1, &got);
    }
  });
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(rt.packets_forwarded(), 3u) << "distance 4 => 3 transit nodes";
}

TEST(Occam, LatencyGrowsLinearlyWithHops) {
  // O(log N) distance bound: time per extra hop is one store-and-forward
  // cycle. Measure 1-hop vs 4-hop one-way latency.
  auto one_way = [](NodeId dst) {
    Simulator sim;
    core::TSeries machine{sim, 4};
    Runtime rt{machine};
    SimTime arrival{};
    rt.run([&, dst](Ctx& ctx) -> Proc {
      if (ctx.id() == 0) {
        std::vector<double> one(1, 1.0);
        co_await ctx.send(dst, 1, std::move(one));
      } else if (ctx.id() == dst) {
        std::vector<double> in;
        co_await ctx.recv(0, 1, &in);
        arrival = ctx.machine().simulator().now();
      }
    });
    return arrival;
  };
  const SimTime h1 = one_way(0b0001);
  const SimTime h2 = one_way(0b0011);
  const SimTime h4 = one_way(0b1111);
  EXPECT_GT(h2, h1);
  // Per-hop increments are equal (deterministic pipeline of equal packets).
  EXPECT_EQ((h4 - h2) / 2, h2 - h1);
  // And each hop costs at least the wire time of the packet (12 bytes
  // payload + 8 header at 2 us/byte + 5 us DMA).
  EXPECT_GT(h2 - h1, 45_us);
}

TEST(Occam, BarrierSynchronisesAllNodes) {
  Simulator sim;
  core::TSeries machine{sim, 4};
  Runtime rt{machine};
  std::vector<SimTime> after(machine.size());
  rt.run([&](Ctx& ctx) -> Proc {
    // Stagger arrival: node i works i*100 us before the barrier.
    co_await sim::Delay{static_cast<std::int64_t>(ctx.id()) * 100_us};
    co_await ctx.barrier();
    after[ctx.id()] = ctx.machine().simulator().now();
  });
  const SimTime slowest = 100_us * 15;
  for (NodeId i = 0; i < machine.size(); ++i) {
    EXPECT_GE(after[i], slowest) << "node " << i << " left too early";
  }
}

TEST(Occam, BroadcastDeliversRootData) {
  Simulator sim;
  core::TSeries machine{sim, 4};
  Runtime rt{machine};
  std::vector<std::vector<double>> got(machine.size());
  const NodeId root = 5;
  rt.run([&](Ctx& ctx) -> Proc {
    std::vector<double> data;
    if (ctx.id() == root) {
      data = {1.0, 2.0, 3.0};
    }
    co_await ctx.broadcast(root, &data);
    got[ctx.id()] = data;
  });
  for (NodeId i = 0; i < machine.size(); ++i) {
    EXPECT_EQ(got[i], (std::vector<double>{1.0, 2.0, 3.0})) << "node " << i;
  }
}

TEST(Occam, ReduceSumCollectsAllContributions) {
  Simulator sim;
  core::TSeries machine{sim, 5};
  Runtime rt{machine};
  double result = -1;
  const NodeId root = 3;
  rt.run([&](Ctx& ctx) -> Proc {
    double x = static_cast<double>(ctx.id());
    co_await ctx.reduce_sum(root, &x);
    if (ctx.id() == root) {
      result = x;
    }
  });
  EXPECT_EQ(result, 31.0 * 32.0 / 2.0);  // sum 0..31
}

TEST(Occam, AllreduceGivesEveryNodeTheSum) {
  Simulator sim;
  core::TSeries machine{sim, 4};
  Runtime rt{machine};
  std::vector<double> results(machine.size());
  rt.run([&](Ctx& ctx) -> Proc {
    double x = 1.0 + static_cast<double>(ctx.id());
    co_await ctx.allreduce_sum(&x);
    results[ctx.id()] = x;
  });
  for (NodeId i = 0; i < machine.size(); ++i) {
    EXPECT_EQ(results[i], 136.0) << "sum 1..16 at node " << i;
  }
}

TEST(Occam, VectorAllreduce) {
  Simulator sim;
  core::TSeries machine{sim, 3};
  Runtime rt{machine};
  std::vector<std::vector<double>> results(machine.size());
  rt.run([&](Ctx& ctx) -> Proc {
    std::vector<double> xs{static_cast<double>(ctx.id()), 1.0};
    co_await ctx.allreduce_sum(&xs);
    results[ctx.id()] = xs;
  });
  for (NodeId i = 0; i < machine.size(); ++i) {
    EXPECT_EQ(results[i], (std::vector<double>{28.0, 8.0}));
  }
}

TEST(Occam, VectorAllreduceOfUnequalLengthsFailsTheRun) {
  // A neighbour whose vector is shorter than the node's own fails the
  // node's add with std::out_of_range, which ends the run; the node with
  // the shorter vector adds only as many values as it holds.
  Simulator sim;
  core::TSeries machine{sim, 1};
  Runtime rt{machine};
  std::vector<double> shorter;
  try {
    rt.run([&](Ctx& ctx) -> Proc {
      std::vector<double> xs(ctx.id() == 0 ? 2 : 1, 1.0);
      co_await ctx.allreduce_sum(&xs);
      if (ctx.id() == 1) {
        shorter = xs;
      }
    });
    ADD_FAILURE() << "unequal lengths ran to completion";
  } catch (const sim::ProcError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("root process failed: ", 0), 0u)
        << e.what();
  }
  EXPECT_EQ(shorter, (std::vector<double>{2.0}));
}

TEST(Occam, RecvAnyActsAsAlt) {
  Simulator sim;
  core::TSeries machine{sim, 3};
  Runtime rt{machine};
  std::multiset<NodeId> sources;
  rt.run([&](Ctx& ctx) -> Proc {
    if (ctx.id() == 0) {
      for (int i = 0; i < 7; ++i) {
        Msg m;
        co_await ctx.recv_any(9, &m);
        sources.insert(m.src);
      }
    } else {
      co_await sim::Delay{static_cast<std::int64_t>(ctx.id()) * 10_us};
      std::vector<double> v(1, static_cast<double>(ctx.id()));
      co_await ctx.send(0, 9, std::move(v));
    }
  });
  EXPECT_EQ(sources.size(), 7u);
  for (NodeId i = 1; i < 8; ++i) {
    EXPECT_EQ(sources.count(i), 1u);
  }
}

/// Send one single-element message `v` from the calling node.
Proc send_one(Ctx& ctx, NodeId dst, std::uint16_t tag, double v) {
  std::vector<double> data(1, v);
  co_await ctx.send(dst, tag, std::move(data));
}

TEST(Occam, RecvTakesOldestMatchPastOlderNonMatches) {
  // Node 0 receives only after every message below has arrived, so each
  // recv picks from a full mailbox: messages from the other neighbour and
  // with another tag wait ahead of the one it asks for.
  Simulator sim;
  core::TSeries machine{sim, 2};
  Runtime rt{machine};
  std::vector<double> got;
  rt.run([&](Ctx& ctx) -> Proc {
    if (ctx.id() == 0) {
      co_await sim::Delay{1_ms};
      co_await ctx.recv(1, 6, &got);
    } else if (ctx.id() == 1) {
      co_await send_one(ctx, 0, 5, 10.0);
      co_await send_one(ctx, 0, 6, 11.0);
    } else if (ctx.id() == 2) {
      co_await send_one(ctx, 0, 6, 20.0);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{11.0}));
}

TEST(Occam, SameSourceAndTagComeOutInArrivalOrder) {
  Simulator sim;
  core::TSeries machine{sim, 2};
  Runtime rt{machine};
  std::vector<double> order;
  rt.run([&](Ctx& ctx) -> Proc {
    if (ctx.id() == 0) {
      co_await sim::Delay{1_ms};
      for (int i = 0; i < 3; ++i) {
        std::vector<double> in;
        co_await ctx.recv(1, 6, &in);
        order.push_back(in.at(0));
      }
    } else if (ctx.id() == 1) {
      co_await send_one(ctx, 0, 6, 1.0);
      co_await send_one(ctx, 0, 5, 99.0);
      co_await send_one(ctx, 0, 6, 2.0);
      co_await send_one(ctx, 0, 6, 3.0);
    }
  });
  EXPECT_EQ(order, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Occam, RecvAnyTakesItsTagInArrivalOrderAcrossSources) {
  // Node 0's three neighbours send 200 us apart, in an order that is not
  // their id order, and node 0 drains its mailbox only after all have
  // arrived. A message of another tag arrives first and stays.
  Simulator sim;
  core::TSeries machine{sim, 3};
  Runtime rt{machine};
  std::vector<NodeId> sources;
  std::vector<double> values;
  std::vector<double> other;
  rt.run([&](Ctx& ctx) -> Proc {
    const auto at = [&ctx](int slot) -> Proc {
      co_await sim::Delay{static_cast<std::int64_t>(slot) * 200_us};
      co_await send_one(ctx, 0, 9, 10.0 * ctx.id() + slot);
    };
    switch (ctx.id()) {
      case 0:
        co_await sim::Delay{2_ms};
        for (int i = 0; i < 4; ++i) {
          Msg m;
          co_await ctx.recv_any(9, &m);
          sources.push_back(m.src);
          values.push_back(m.data.at(0));
        }
        co_await ctx.recv(1, 8, &other);
        break;
      case 1:
        co_await send_one(ctx, 0, 8, -1.0);
        co_await at(3);
        break;
      case 2:
        co_await at(2);
        break;
      case 4:
        co_await at(1);
        co_await at(1);  // 200 us after its first, so after node 1's
        break;
      default:
        break;
    }
  });
  EXPECT_EQ(sources, (std::vector<NodeId>{4, 2, 4, 1}));
  EXPECT_EQ(values, (std::vector<double>{41.0, 22.0, 41.0, 13.0}));
  EXPECT_EQ(other, (std::vector<double>{-1.0}));
}

TEST(Occam, MessageToSelfIsReceivedLikeAnyOther) {
  Simulator sim;
  core::TSeries machine{sim, 2};
  Runtime rt{machine};
  std::vector<Msg> got(machine.size());
  std::vector<std::vector<double>> second(machine.size());
  rt.run([&](Ctx& ctx) -> Proc {
    co_await send_one(ctx, ctx.id(), 4, 1.0 + ctx.id());
    co_await send_one(ctx, ctx.id(), 4, 2.0 + ctx.id());
    co_await ctx.recv_any(4, &got[ctx.id()]);
    co_await ctx.recv(ctx.id(), 4, &second[ctx.id()]);
  });
  for (NodeId i = 0; i < machine.size(); ++i) {
    EXPECT_EQ(got[i].src, i);
    EXPECT_EQ(got[i].tag, 4u);
    EXPECT_EQ(got[i].data, (std::vector<double>{1.0 + i}));
    EXPECT_EQ(second[i], (std::vector<double>{2.0 + i}));
  }
  EXPECT_EQ(rt.packets_forwarded(), 0u);
}

TEST(Occam, CollectiveTimeScalesLogarithmically) {
  // An allreduce costs ~dimension sequential exchange steps: time(dim=6)
  // should be ~2x time(dim=3), not 8x.
  auto allreduce_time = [](int dim) {
    Simulator sim;
    core::TSeries machine{sim, dim};
    Runtime rt{machine};
    return rt.run([](Ctx& ctx) -> Proc {
      double x = 1.0;
      co_await ctx.allreduce_sum(&x);
    });
  };
  const SimTime t3 = allreduce_time(3);
  const SimTime t6 = allreduce_time(6);
  EXPECT_GT(t6 / t3, 1.5);
  EXPECT_LT(t6 / t3, 3.0) << "O(log N), not O(N)";
}

TEST(Occam, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    core::TSeries machine{sim, 4};
    Runtime rt{machine};
    return rt.run([](Ctx& ctx) -> Proc {
      double x = static_cast<double>(ctx.id() * 3 + 1);
      co_await ctx.allreduce_sum(&x);
      co_await ctx.barrier();
    }).ps();
  };
  const auto t1 = run_once();
  EXPECT_EQ(run_once(), t1);
  EXPECT_EQ(run_once(), t1);
}

TEST(Occam, DeadlockIsDetected) {
  Simulator sim;
  core::TSeries machine{sim, 3};
  Runtime rt{machine};
  EXPECT_THROW(rt.run([](Ctx& ctx) -> Proc {
                 if (ctx.id() == 0) {
                   std::vector<double> never;
                   co_await ctx.recv(1, 99, &never);  // nobody sends
                 }
               }),
               DeadlockError);
}

TEST(Occam, MismatchedCollectiveDeadlocks) {
  Simulator sim;
  core::TSeries machine{sim, 3};
  Runtime rt{machine};
  EXPECT_THROW(rt.run([](Ctx& ctx) -> Proc {
                 if (ctx.id() != 5) {  // node 5 skips the barrier
                   co_await ctx.barrier();
                 }
               }),
               DeadlockError);
}

}  // namespace
}  // namespace fpst::occam
