// Allocation bounds for building a machine, for passing occam messages, and
// for attaching perf collection. Waiting, joining and coroutine frames
// allocate nothing once a thread's frame lists are warm, so what is left per
// message is the payload's own buffers. This binary replaces the global
// operator new to count calls, which is why it is not part of another test
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/machine.hpp"
#include "occam/occam.hpp"
#include "perf/counters.hpp"
#include "perf/timeline.hpp"
#include "sim/proc.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fpst {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Allocations, CountingReplacementSeesNewExpressions) {
  const std::uint64_t before = allocations();
  auto* v = new std::vector<int>(100);
  delete v;
  EXPECT_EQ(allocations() - before, 2u);
}

TEST(Allocations, TenCubeConstructionIsBounded) {
  // Perf off, one simulator: 3 allocations when this bound was set. The
  // 1,024 nodes, each with its port mutexes, are one array, the 5,120
  // cables (each a Link holding its direction mutexes and eight inbox
  // channels) another, and the 128 modules a third. A node's memory is
  // mapped, not allocated, and a control processor's empty queues and
  // unused on-chip RAM allocate nothing.
  sim::Simulator sim;
  const std::uint64_t before = allocations();
  const core::TSeries machine{sim, 10};
  const std::uint64_t made = allocations() - before;
  EXPECT_LE(made, 4u) << "10-cube construction made " << made
                      << " allocations";
}

TEST(Allocations, OccamMessagesAreBoundedPerMessage) {
  // Eight rounds of a 16-element dimension-exchange allreduce on a 6-cube:
  // every node sends one message per dimension per round.
  constexpr int kDim = 6;
  constexpr int kRounds = 8;
  constexpr std::size_t kElems = 16;
  sim::Simulator sim;
  core::TSeries machine{sim, kDim};
  occam::Runtime rt{machine};
  const occam::Runtime::Body body = [](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> xs(kElems, static_cast<double>(ctx.id()));
    for (int r = 0; r < kRounds; ++r) {
      co_await ctx.allreduce_sum(&xs);
    }
  };
  rt.run(body);  // warms this thread's frame lists, the event queue and
                 // the mailboxes
  const std::uint64_t bytes_before = machine.total_link_bytes();
  const std::uint64_t before = allocations();
  rt.run(body);
  const std::uint64_t made = allocations() - before;

  const std::uint64_t messages = kRounds * kDim * machine.size();
  // Every message is one single-hop packet: header, source word, payload.
  ASSERT_EQ(machine.total_link_bytes() - bytes_before,
            messages * (link::LinkParams::kHeaderBytes + 4 + 8 * kElems));
  const double per_message =
      static_cast<double>(made) / static_cast<double>(messages);
  // 0.19 when this bound was set (578 allocations): one send buffer per
  // node per allreduce, which then carries every step (a step sends in the
  // vector it received the step before), each body's starting vector, and
  // the run's lists of bodies and processes. The payload moves from the
  // sender's vector into the receiver's with no copy, and the PAR of a
  // send and a receive, the waiting, the mailboxes and the coroutine
  // frames add none once the first run has warmed them.
  EXPECT_LE(per_message, 0.25) << made << " allocations for " << messages
                               << " messages";
}

TEST(Allocations, ForwardedMessagesAreBoundedPerMessage) {
  // Every node of a 6-cube trades a 16-element vector with the node three
  // dimensions away, eight times, sending on the vector it received: each
  // message is forwarded by two routers on its way.
  constexpr int kDim = 6;
  constexpr int kRounds = 8;
  constexpr std::size_t kElems = 16;
  constexpr net::NodeId kAcross = 0b111;
  sim::Simulator sim;
  core::TSeries machine{sim, kDim};
  occam::Runtime rt{machine};
  const occam::Runtime::Body body = [](occam::Ctx& ctx) -> sim::Proc {
    const net::NodeId peer = ctx.id() ^ kAcross;
    std::vector<double> buf(kElems, static_cast<double>(ctx.id()));
    std::vector<double> in;
    for (int r = 0; r < kRounds; ++r) {
      co_await occam::Par{ctx.send(peer, 1, std::move(buf)),
                          ctx.recv(peer, 1, &in)};
      buf = std::move(in);
    }
  };
  rt.run(body);  // warms the frame lists, the event queue and the mailboxes
  const std::uint64_t forwarded_before = rt.packets_forwarded();
  const std::uint64_t before = allocations();
  rt.run(body);
  const std::uint64_t made = allocations() - before;

  const std::uint64_t messages = kRounds * machine.size();
  ASSERT_EQ(rt.packets_forwarded() - forwarded_before, 2 * messages);
  const double per_message =
      static_cast<double>(made) / static_cast<double>(messages);
  // 0.13 when this bound was set (66 allocations): each body's starting
  // vector and the run's lists of bodies and processes. The routers
  // forward a packet's payload words by moving them along.
  EXPECT_LE(per_message, 0.25) << made << " allocations for " << messages
                               << " messages";
}

/// Allocations made by a serial 10-cube's first run of an 8-round,
/// 16-element allreduce, counting enable_perf when `perf` is set.
std::uint64_t ten_cube_allreduce_allocations(bool perf) {
  sim::Simulator sim;
  core::TSeries machine{sim, 10};
  occam::Runtime rt{machine};
  perf::CounterRegistry reg;
  const std::uint64_t before = allocations();
  if (perf) {
    machine.enable_perf(reg);
  }
  rt.run([](occam::Ctx& ctx) -> sim::Proc {
    std::vector<double> xs(16, static_cast<double>(ctx.id()));
    for (int r = 0; r < 8; ++r) {
      co_await ctx.allreduce_sum(&xs);
    }
  });
  return allocations() - before;
}

TEST(Allocations, PerfOnTenCubeRunIsBounded) {
  // What perf collection adds to a run: attaching makes one track per
  // node component and port, and the run one occam track per node at its
  // first message. The registry keeps its tracks in blocks that double in
  // size, so the 8,192 tracks take eight blocks, and a counter adds
  // nothing, since a component counts into its track's cells. The span
  // ring takes its 65,536 records in one allocation at the first span.
  // An allocation per track, node, counter name or ring regrowth fails
  // this. 23 more allocations than perf off when this bound was set (39
  // while the ring grew by doubling).
  (void)ten_cube_allreduce_allocations(false);  // warms the frame lists
  const std::uint64_t off = ten_cube_allreduce_allocations(false);
  const std::uint64_t on = ten_cube_allreduce_allocations(true);
  EXPECT_LE(on - off, 26u)
      << on << " allocations with perf on, " << off << " without";
}

TEST(Allocations, SpanRingAllocatesOnceInItsLife) {
  // A timeline that records nothing allocates nothing.
  std::uint64_t before = allocations();
  { const perf::Timeline idle; }
  EXPECT_EQ(allocations() - before, 0u);

  // The first span reserves the whole ring; filling it three times over
  // copies into that one block.
  constexpr std::size_t kCapacity = 1024;
  perf::Timeline tl{kCapacity};
  perf::Span span{.n = 1, .kind = perf::SpanKind::cp_work};
  before = allocations();
  for (std::size_t i = 0; i < 3 * kCapacity; ++i) {
    span.start = sim::SimTime::picoseconds(static_cast<std::int64_t>(i));
    tl.record(span);
  }
  EXPECT_EQ(allocations() - before, 1u);
  EXPECT_EQ(tl.size(), kCapacity);
  EXPECT_EQ(tl.dropped(), 2 * kCapacity);
  const auto oldest = static_cast<std::int64_t>(2 * kCapacity);
  EXPECT_EQ(tl[0].start, sim::SimTime::picoseconds(oldest));

  // Cleared and refilled, it keeps its block.
  before = allocations();
  tl.clear();
  for (std::size_t i = 0; i < kCapacity; ++i) {
    tl.record(span);
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(tl.size(), kCapacity);
  EXPECT_EQ(tl.dropped(), 0u);
}

}  // namespace
}  // namespace fpst
