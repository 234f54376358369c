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
  // Perf off, one simulator: 15,498 allocations when this bound was set.
  // Each of the 5,120 cables is one Link object that holds its direction
  // mutexes and eight inbox channels, and each node's port mutexes share
  // the node's allocation.
  sim::Simulator sim;
  const std::uint64_t before = allocations();
  const core::TSeries machine{sim, 10};
  const std::uint64_t made = allocations() - before;
  EXPECT_LE(made, 17'000u) << "10-cube construction made " << made
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
  rt.run(body);  // warms this thread's frame lists and the event queue
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
  // 4.0 when this bound was set: the exchange's copy of the vector, its
  // encoding into a packet, its decoding and the PAR's child list. Waiting,
  // joining and coroutine frames add none once the first run has warmed
  // the frame lists.
  EXPECT_LE(per_message, 4.5) << made << " allocations for " << messages
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
  // first message. A counter adds nothing, since a component counts into
  // its track's cells, so an allocation per counter name fails this.
  // 16,404 more allocations than perf off when this bound was set.
  (void)ten_cube_allreduce_allocations(false);  // warms the frame lists
  const std::uint64_t off = ten_cube_allreduce_allocations(false);
  const std::uint64_t on = ten_cube_allreduce_allocations(true);
  EXPECT_LE(on - off, 18'000u)
      << on << " allocations with perf on, " << off << " without";
}

}  // namespace
}  // namespace fpst
