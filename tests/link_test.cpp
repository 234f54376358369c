// Tests for the serial link model: the paper's protocol timings (13 bit
// times per byte => 0.5 MB/s, 5 us DMA startup, 16 us per 64-bit word),
// direction independence, sublink multiplexing and FIFO bandwidth sharing,
// the cross-shard hand-off, and NodeLinks' port checks.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "link/link.hpp"

namespace fpst::link {
namespace {

using namespace fpst::sim::literals;
using sim::Proc;
using sim::SimTime;
using sim::Simulator;

// A machine holds one Link per cube edge, built and first touched on every
// job, so a cable keeps no statistics cells of its own.
static_assert(sizeof(Link) <= 448);

TEST(LinkParams, PaperConstants) {
  EXPECT_EQ(LinkParams::kPhysicalLinks, 4);
  EXPECT_EQ(LinkParams::kSublinksPerLink, 4);
  EXPECT_EQ(LinkParams::kSublinksPerNode, 16);
  EXPECT_EQ(LinkParams::kBitTimesPerByte, 13) << "8+2+1 out, 2 ack back";
  EXPECT_DOUBLE_EQ(LinkParams::unidir_bandwidth_mb_s(), 0.5);
  EXPECT_EQ(LinkParams::dma_startup(), 5_us);
  // A 64-bit word moved alone between nodes: 8 bytes at 2 us each = 16 us of
  // wire time (the paper's "16 us" excludes startup and framing).
  EXPECT_EQ(8 * LinkParams::byte_time(), 16_us);
}

/// The statistics of both directions of a standalone cable, attached to
/// it: a cable counts only into cells its owner keeps.
struct CableStats {
  explicit CableStats(Link& cable) {
    cable.attach(0, dir[0], nullptr);
    cable.attach(1, dir[1], nullptr);
  }
  std::array<LinkStats, 2> dir;
};

Packet make_packet(std::size_t n, std::uint8_t sublink = 0) {
  Packet p;
  p.sublink = sublink;
  p.set_bytes(std::vector<std::uint8_t>(n, 0xab));
  return p;
}

Proc do_send(Link* link, int side, Packet p, SimTime* done, Simulator* sim) {
  co_await link->transmit(side, std::move(p));
  if (done != nullptr) {
    *done = sim->now();
  }
}

Proc do_recv(Link* link, int side, int sublink, Packet* out, SimTime* when,
             Simulator* sim) {
  *out = co_await link->inbox(side, sublink).recv();
  if (when != nullptr) {
    *when = sim->now();
  }
}

TEST(Link, SingleTransferTiming) {
  Simulator sim;
  Link link{sim};
  const CableStats link_stats{link};
  Packet got;
  SimTime arrival{};
  sim.spawn(do_recv(&link, 1, 0, &got, &arrival, &sim));
  sim.spawn(do_send(&link, 0, make_packet(100), nullptr, &sim));
  sim.run();
  EXPECT_EQ(got.payload_bytes, 100u);
  EXPECT_EQ(got.get_bytes(101), [] {
    std::vector<std::uint8_t> sent(100, 0xab);
    sent.push_back(0);  // a byte past the carried ones reads as zero
    return sent;
  }());
  // startup + (100 payload + 8 header) bytes * 2 us
  EXPECT_EQ(arrival, 5_us + 108 * LinkParams::byte_time());
}

TEST(Link, DirectionsAreIndependent) {
  Simulator sim;
  Link link{sim};
  const CableStats link_stats{link};
  Packet a;
  Packet b;
  SimTime ta{};
  SimTime tb{};
  sim.spawn(do_recv(&link, 1, 0, &a, &ta, &sim));
  sim.spawn(do_recv(&link, 0, 0, &b, &tb, &sim));
  sim.spawn(do_send(&link, 0, make_packet(50), nullptr, &sim));
  sim.spawn(do_send(&link, 1, make_packet(50), nullptr, &sim));
  sim.run();
  // Full duplex: both directions complete in one transfer time.
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(ta, LinkParams::transfer_time(50));
}

TEST(Link, SameDirectionSendsSerialise) {
  Simulator sim;
  Link link{sim};
  const CableStats link_stats{link};
  Packet a;
  Packet b;
  SimTime ta{};
  SimTime tb{};
  sim.spawn(do_recv(&link, 1, 0, &a, &ta, &sim));
  sim.spawn(do_recv(&link, 1, 1, &b, &tb, &sim));
  sim.spawn(do_send(&link, 0, make_packet(50, 0), nullptr, &sim));
  sim.spawn(do_send(&link, 0, make_packet(50, 1), nullptr, &sim));
  sim.run();
  const SimTime one = LinkParams::transfer_time(50);
  EXPECT_EQ(ta, one);
  EXPECT_EQ(tb, 2 * one) << "sublinks share one wire FIFO";
}

TEST(Link, SublinkDemuxRoutesToMatchingInbox) {
  Simulator sim;
  Link link{sim};
  const CableStats link_stats{link};
  Packet got2;
  Packet got3;
  Packet p2 = make_packet(4, 2);
  p2.tag = 22;
  Packet p3 = make_packet(4, 3);
  p3.tag = 33;
  sim.spawn(do_recv(&link, 1, 3, &got3, nullptr, &sim));
  sim.spawn(do_recv(&link, 1, 2, &got2, nullptr, &sim));
  sim.spawn(do_send(&link, 0, std::move(p3), nullptr, &sim));
  sim.spawn(do_send(&link, 0, std::move(p2), nullptr, &sim));
  sim.run();
  EXPECT_EQ(got2.tag, 22);
  EXPECT_EQ(got3.tag, 33);
}

TEST(Link, SenderBlocksUntilReceiverTakesPacket) {
  // Transputer-style links: the byte-level acknowledge protocol means a
  // transfer only completes when the receiving end is listening.
  Simulator sim;
  Link link{sim};
  const CableStats link_stats{link};
  SimTime send_done{};
  Packet got;
  sim.spawn(do_send(&link, 0, make_packet(1), &send_done, &sim));
  sim.spawn([](Link* l, Packet* out, Simulator* s) -> Proc {
    co_await sim::Delay{1_ms};
    *out = co_await l->inbox(1, 0).recv();
    (void)s;
  }(&link, &got, &sim));
  sim.run();
  EXPECT_EQ(send_done, 1_ms);
}

TEST(Link, StatsAccumulatePerDirection) {
  Simulator sim;
  Link link{sim};
  const CableStats link_stats{link};
  Packet a;
  sim.spawn(do_recv(&link, 1, 0, &a, nullptr, &sim));
  sim.spawn(do_send(&link, 0, make_packet(92), nullptr, &sim));
  sim.run();
  EXPECT_EQ(link.bytes_sent(0), 100u);  // 92 + 8 header
  EXPECT_EQ(link.packets_sent(0), 1u);
  EXPECT_EQ(link.bytes_sent(1), 0u);
  EXPECT_EQ(link.busy_time(0), LinkParams::transfer_time(92));
}

TEST(Link, MeasuredBandwidthApproachesHalfMegabytePerSecond) {
  // Stream 100 KB in 1 KB packets and check the sustained rate lands a
  // little under 0.5 MB/s (header + startup overhead).
  Simulator sim;
  Link link{sim};
  const CableStats link_stats{link};
  constexpr int kPackets = 100;
  constexpr std::size_t kBytes = 1024;
  sim.spawn([](Link* l, Simulator*) -> Proc {
    for (int i = 0; i < kPackets; ++i) {
      co_await l->transmit(0, make_packet(kBytes));
    }
  }(&link, &sim));
  sim.spawn([](Link* l) -> Proc {
    for (int i = 0; i < kPackets; ++i) {
      (void)co_await l->inbox(1, 0).recv();
    }
  }(&link));
  sim.run();
  const double mb = kPackets * static_cast<double>(kBytes) / 1e6;
  const double rate = mb / sim.now().sec();
  EXPECT_GT(rate, 0.45);
  EXPECT_LT(rate, 0.5);
}

TEST(NodeLinks, AttachAndRoute) {
  Simulator sim;
  Link cable{sim};
  const CableStats cable_stats{cable};
  NodeLinks a;
  NodeLinks b;
  a.attach(2, cable, 0);
  b.attach(0, cable, 1);
  EXPECT_TRUE(a.attached(2));
  EXPECT_FALSE(a.attached(0));
  EXPECT_EQ(a.attached_count(), 1);

  Packet got;
  sim.spawn([](NodeLinks* links, Packet* out) -> Proc {
    *out = co_await links->inbox(0, 1).recv();
  }(&b, &got));
  sim.spawn([](NodeLinks* links) -> Proc {
    Packet p;
    p.sublink = 1;
    p.tag = 9;
    const std::vector<std::uint8_t> bytes{1, 2, 3};
    p.set_bytes(bytes);
    co_await links->send(2, std::move(p));
  }(&a));
  sim.run();
  EXPECT_EQ(got.tag, 9);
  EXPECT_EQ(got.payload_bytes, 3u);
  EXPECT_EQ(got.get_bytes(3), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Link, CrossShardHandOffMatchesSameSimulatorTiming) {
  // A cable whose sides live on two shards of a ParallelSim posts each
  // arrival through the engine mailbox. The packet lands at send start +
  // transfer_time, the sender's wire frees at that same instant, and the
  // per-direction statistics equal a same-simulator cable's.
  constexpr std::size_t kPayload = 100;
  sim::ParallelSim::Options po;
  po.shards = 2;
  po.threads = 2;
  po.lookahead = LinkParams::transfer_time(0);
  sim::ParallelSim psim{po};
  Link cross{psim, 0, 1};
  const CableStats cross_stats{cross};

  struct End {
    SimTime sent_at{};
    SimTime wire_free{};
    SimTime arrival{};
    Packet got;
  };
  std::array<End, 2> end{};  // end[s]: side s sends, side 1-s receives
  const auto sender = [](Link* l, int side, SimTime at, End* e) -> Proc {
    co_await sim::Delay{at};
    e->sent_at = (co_await sim::ThisSim{}).now();
    Packet p = make_packet(kPayload, 2);
    p.tag = static_cast<std::uint16_t>(10 + side);
    co_await l->transmit(side, std::move(p));
    e->wire_free = (co_await sim::ThisSim{}).now();
  };
  const auto receiver = [](Link* l, int side, End* e) -> Proc {
    e->got = co_await l->inbox(side, 2).recv();
    e->arrival = (co_await sim::ThisSim{}).now();
  };
  psim.shard(0).spawn(sender(&cross, 0, 0_us, &end[0]));
  psim.shard(1).spawn(receiver(&cross, 1, &end[0]));
  psim.shard(1).spawn(sender(&cross, 1, 3_us, &end[1]));
  psim.shard(0).spawn(receiver(&cross, 0, &end[1]));
  psim.run();

  for (int side = 0; side < 2; ++side) {
    const End& e = end[static_cast<std::size_t>(side)];
    SCOPED_TRACE(side);
    EXPECT_EQ(e.got.tag, 10 + side);
    EXPECT_EQ(e.got.payload_bytes, kPayload);
    EXPECT_EQ(e.arrival, e.sent_at + LinkParams::transfer_time(kPayload));
    EXPECT_EQ(e.wire_free, e.arrival);
  }

  Simulator sim;
  Link local{sim};
  const CableStats local_stats{local};
  Packet got;
  sim.spawn(do_recv(&local, 1, 2, &got, nullptr, &sim));
  sim.spawn(do_send(&local, 0, make_packet(kPayload, 2), nullptr, &sim));
  sim.run();
  for (int dir = 0; dir < 2; ++dir) {
    SCOPED_TRACE(dir);
    EXPECT_EQ(cross.bytes_sent(dir), local.bytes_sent(0));
    EXPECT_EQ(cross.packets_sent(dir), local.packets_sent(0));
    EXPECT_EQ(cross.busy_time(dir), local.busy_time(0));
  }

  EXPECT_THROW((void)cross.transmit(2, make_packet(1)), std::logic_error);
  EXPECT_THROW((void)cross.transmit(-1, make_packet(1)), std::logic_error);
  EXPECT_THROW((void)cross.transmit(0, make_packet(1, 4)), std::logic_error);
  EXPECT_THROW((void)local.transmit(1, make_packet(1, 7)), std::logic_error);
}

TEST(NodeLinks, UnwiredPortThrows) {
  NodeLinks a;
  EXPECT_THROW(a.inbox(1, 0), std::logic_error);
}

TEST(NodeLinks, OutOfRangePortThrowsOnEveryCall) {
  // A TISA hard-channel word carries a 4-bit port, so a program can name
  // ports 4-15 of a node that has only four.
  Simulator sim;
  Link cable{sim};
  const CableStats cable_stats{cable};
  NodeLinks a;
  for (int port = 0; port < LinkParams::kPhysicalLinks; ++port) {
    a.attach(port, cable, 0);
  }
  for (const int port : {-1, 4, 15}) {
    SCOPED_TRACE(port);
    EXPECT_THROW((void)a.attached(port), std::logic_error);
    EXPECT_THROW((void)a.inbox(port, 0), std::logic_error);
    std::string error;
    sim.spawn([](NodeLinks* links, int pt, std::string* out) -> Proc {
      try {
        co_await links->send(pt, make_packet(1));
      } catch (const std::logic_error& e) {
        *out = e.what();
      }
    }(&a, port, &error));
    sim.run();
    EXPECT_EQ(error, "NodeLinks::send: bad port");
  }
  EXPECT_EQ(cable.packets_sent(0), 0u);
}

}  // namespace
}  // namespace fpst::link
