// Tests for the assembled machine: §III configuration algebra, cube wiring
// and dimension-addressed messaging, sublink bandwidth sharing, module
// grouping, and the checkpoint engine (15 s snapshots independent of size,
// restore correctness, interval optimisation).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/machine.hpp"
#include "perf/counters.hpp"

namespace fpst::core {
namespace {

using namespace fpst::sim::literals;
using sim::Proc;
using sim::SimTime;
using sim::Simulator;

TEST(ConfigReport, PaperConfigurations) {
  // Module: 8 nodes, 128 MFLOPS, 8 MB.
  EXPECT_DOUBLE_EQ(SystemParams::module_peak_mflops(), 128.0);
  EXPECT_DOUBLE_EQ(SystemParams::module_ram_mb(), 8.0);
  EXPECT_GT(SystemParams::module_internode_mb_s(), 12.0 - 1e-9)
      << "over 12 MB/s intramodule";
  EXPECT_DOUBLE_EQ(SystemParams::module_external_mb_s(), 0.5);

  // Cabinet: 16 nodes (a tesseract).
  const ConfigReport cab = ConfigReport::derive(4);
  EXPECT_EQ(cab.nodes, 16u);
  EXPECT_EQ(cab.modules, 2u);
  EXPECT_EQ(cab.cabinets, 1u);

  // Four cabinets: 64 nodes, 1 GFLOPS, 64 MB, 8 system disks.
  const ConfigReport c64 = ConfigReport::derive(6);
  EXPECT_EQ(c64.nodes, 64u);
  EXPECT_EQ(c64.cabinets, 4u);
  EXPECT_NEAR(c64.peak_gflops, 1.0, 0.03);
  EXPECT_DOUBLE_EQ(c64.ram_mb, 64.0);
  EXPECT_EQ(c64.system_disks, 8u);

  // Maximum practical: 12-cube, 4096 nodes, 65 GFLOPS, 4 GB, 256 cabinets.
  const ConfigReport c4096 = ConfigReport::derive(12);
  EXPECT_EQ(c4096.nodes, 4096u);
  EXPECT_EQ(c4096.cabinets, 256u);
  EXPECT_NEAR(c4096.peak_gflops, 65.0, 1.0);
  EXPECT_DOUBLE_EQ(c4096.ram_mb, 4096.0);
  EXPECT_EQ(c4096.io_sublinks_per_node, 2)
      << "two links per node remain for external I/O and mass storage";

  // A 14-cube is constructible but leaves nothing for I/O.
  const ConfigReport c14 = ConfigReport::derive(14);
  EXPECT_TRUE(c14.feasible);
  EXPECT_EQ(c14.io_sublinks_per_node, 0);
  EXPECT_EQ(c14.free_sublinks_per_node, 0);

  EXPECT_THROW(ConfigReport::derive(15), std::invalid_argument);
}

TEST(ConfigReport, LinkBudgetAccounting) {
  // 16 sublinks = cube dims + 2 system + io + free, at every size.
  for (int d = 0; d <= 14; ++d) {
    const ConfigReport r = ConfigReport::derive(d);
    EXPECT_EQ(r.hypercube_sublinks_per_node + r.system_sublinks_per_node +
                  r.io_sublinks_per_node + r.free_sublinks_per_node,
              16)
        << "dim " << d;
  }
  // The paper's example: 16 - 2 (system) - 2 (storage/IO) leaves 12 for the
  // cube and externals; a module's 3-cube then leaves 9 more dims => 12-cube.
  EXPECT_TRUE(ConfigReport::derive(12).feasible);
}

TEST(TSeries, BuildsAndGroupsModules) {
  Simulator sim;
  TSeries machine{sim, 4};  // one cabinet
  EXPECT_EQ(machine.size(), 16u);
  EXPECT_EQ(machine.module_count(), 2u);
  EXPECT_EQ(&machine.module(1).node(0), &machine.node(8))
      << "module m holds cube nodes [8m, 8m+8)";
  EXPECT_EQ(machine.node(5).id(), 5u);
}

Proc send_one(TSeries* m, net::NodeId from, int dim, std::uint16_t tag) {
  link::Packet p;
  p.tag = tag;
  p.dst = m->cube().neighbor(from, dim);
  p.payload_bytes = 8;
  co_await m->send_dim(from, dim, std::move(p));
}

Proc recv_one(TSeries* m, net::NodeId at, int dim, std::uint16_t* tag) {
  const link::Packet p = co_await m->inbox(at, dim).recv();
  *tag = p.tag;
}

TEST(TSeries, DimensionAddressedMessaging) {
  Simulator sim;
  TSeries machine{sim, 5};
  std::uint16_t tag = 0;
  sim.spawn(recv_one(&machine, machine.cube().neighbor(3, 4), 4, &tag));
  sim.spawn(send_one(&machine, 3, 4, 77));
  sim.run();
  EXPECT_EQ(tag, 77);
  // One 16-byte wire packet: 5 us DMA + 16 * 2 us.
  EXPECT_EQ(sim.now(), link::LinkParams::transfer_time(8));
}

Proc burst(TSeries* m, net::NodeId from, int dim) {
  link::Packet p;
  p.dst = m->cube().neighbor(from, dim);
  p.payload_bytes = 8;
  co_await m->send_dim(from, dim, std::move(p));
}

Proc drain(TSeries* m, net::NodeId at, int dim) {
  (void)co_await m->inbox(at, dim).recv();
}

TEST(TSeries, SublinksOfOnePhysicalPortShareBandwidth) {
  // Dimensions 0 and 4 share physical port 0; dimensions 0 and 1 use
  // different ports. Two simultaneous sends on (0,4) serialise; on (0,1)
  // they run in parallel.
  Simulator sim;
  TSeries machine{sim, 5};
  sim.spawn(drain(&machine, machine.cube().neighbor(0, 0), 0));
  sim.spawn(drain(&machine, machine.cube().neighbor(0, 4), 4));
  sim.spawn(burst(&machine, 0, 0));
  sim.spawn(burst(&machine, 0, 4));
  sim.run();
  const SimTime shared = sim.now();
  EXPECT_EQ(shared, 2 * link::LinkParams::transfer_time(8));

  Simulator sim2;
  TSeries machine2{sim2, 5};
  sim2.spawn(drain(&machine2, machine2.cube().neighbor(0, 0), 0));
  sim2.spawn(drain(&machine2, machine2.cube().neighbor(0, 1), 1));
  sim2.spawn(burst(&machine2, 0, 0));
  sim2.spawn(burst(&machine2, 0, 1));
  sim2.run();
  EXPECT_EQ(sim2.now(), link::LinkParams::transfer_time(8))
      << "different physical ports are independent";
}

TEST(TSeries, InfeasibleDimensionRejected) {
  Simulator sim;
  EXPECT_THROW(TSeries(sim, 15), std::invalid_argument);
}

// Host bytes this process holds resident, from /proc/self/statm.
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

// Node memory is zero-filled on demand: a 10-cube holds 1 GiB of simulated
// RAM, but building it (perf on, as serve does) must not make that
// resident.
TEST(TSeries, TenCubeConstructionLeavesNodeMemoryUnbacked) {
  const long before = resident_bytes();
  perf::CounterRegistry reg;
  Simulator sim;
  TSeries machine{sim, 10};
  machine.enable_perf(reg);
  const long grown = resident_bytes() - before;
  EXPECT_LT(grown, 256L << 20) << "resident set grew by " << (grown >> 20)
                               << " MiB";
}

Proc take_snapshot(CheckpointEngine* ck) { co_await ck->snapshot(); }

TEST(Checkpoint, SnapshotTakesFifteenSecondsRegardlessOfSize) {
  for (int dim : {3, 5}) {
    Simulator sim;
    TSeries machine{sim, dim};
    CheckpointEngine ck{machine};
    sim.spawn(take_snapshot(&ck));
    sim.run();
    EXPECT_EQ(sim.now(), 15_s) << "dim " << dim;
    EXPECT_EQ(ck.snapshots_taken(), machine.module_count());
  }
}

TEST(Checkpoint, RestoreRecoversMemoryAfterCorruption) {
  Simulator sim;
  TSeries machine{sim, 3};
  CheckpointEngine ck{machine};
  // Put recognisable state in node 2's memory.
  machine.node(2).memory().write_word(0x1234 & ~3u, 0xfeedface);
  sim.spawn(take_snapshot(&ck));
  sim.run();
  // Corrupt it (a detectable parity fault), then restore.
  machine.node(2).memory().corrupt_byte(0x1234, 2);
  (void)machine.node(2).memory().read_word(0x1234);
  EXPECT_TRUE(machine.node(2).memory().take_parity_error().has_value());
  EXPECT_TRUE(ck.restore());
  EXPECT_EQ(machine.node(2).memory().read_word(0x1234 & ~3u), 0xfeedfaceu);
  EXPECT_FALSE(machine.node(2).memory().take_parity_error().has_value());
}

// A node whose memory was never written is never mapped, and its image
// holds the zeros every port reads.
TEST(Checkpoint, SnapshotOfUnwrittenMemoryIsAllZero) {
  Simulator sim;
  TSeries machine{sim, 3};
  CheckpointEngine ck{machine};
  machine.node(2).memory().write_word(0x40, 0xfeedface);
  sim.spawn(take_snapshot(&ck));
  sim.run();
  const Disk::Image* img = machine.module(0).board().disk().last();
  ASSERT_NE(img, nullptr);
  for (int i = 0; i < Module::size(); ++i) {
    SCOPED_TRACE(i);
    const std::vector<std::uint8_t>& bytes =
        img->node_memories[static_cast<std::size_t>(i)];
    ASSERT_EQ(bytes.size(), mem::MemParams::kBytes);
    const auto nonzero = static_cast<std::size_t>(std::count_if(
        bytes.begin(), bytes.end(), [](std::uint8_t b) { return b != 0; }));
    EXPECT_EQ(nonzero, i == 2 ? 4u : 0u);
    EXPECT_EQ(machine.node(static_cast<net::NodeId>(i)).memory().mapped(),
              i == 2);
  }
}

TEST(Checkpoint, RestoreWithoutSnapshotFails) {
  Simulator sim;
  TSeries machine{sim, 3};
  CheckpointEngine ck{machine};
  EXPECT_FALSE(ck.restore());
}

TEST(Checkpoint, YoungOptimumNearTenMinutesForPlausibleMtbf) {
  // With C = 15 s, T* = 600 s corresponds to MTBF = T*^2 / (2C) = 12000 s
  // (3.3 h) — a plausible figure for early-production hardware; optima for
  // MTBF between 2 and 6 hours all land within a factor ~1.4 of 10 min.
  const double c = 15.0;
  EXPECT_NEAR(CheckpointEngine::optimal_interval_s(c, 12000.0), 600.0, 1.0);
  const double lo = CheckpointEngine::optimal_interval_s(c, 2 * 3600.0);
  const double hi = CheckpointEngine::optimal_interval_s(c, 6 * 3600.0);
  EXPECT_GT(lo, 400.0);
  EXPECT_LT(hi, 850.0);
}

TEST(Checkpoint, SimulatedRunsPreferModerateIntervals) {
  // Sweep intervals for a 24 h workload with a 3 h MTBF: both very frequent
  // and very rare checkpointing must cost more than the ~10 min compromise.
  const double work = 24.0;
  const double mtbf = 3.0;
  auto overhead = [&](double interval_s) {
    double total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      total += CheckpointEngine::simulate_run(work, interval_s, mtbf, 15.0,
                                              seed)
                   .overhead_fraction;
    }
    return total / 5;
  };
  const double at_30s = overhead(30);
  const double at_600s = overhead(600);
  const double at_3h = overhead(3 * 3600);
  EXPECT_GT(at_30s, at_600s) << "too-frequent snapshots waste time";
  EXPECT_GT(at_3h, at_600s) << "too-rare snapshots lose too much work";
  EXPECT_LT(at_600s, 0.15) << "the compromise keeps overhead modest";
}

TEST(Checkpoint, SimulatedRunsAreDeterministicInSeed) {
  const auto a = CheckpointEngine::simulate_run(10, 600, 3, 15, 42);
  const auto b = CheckpointEngine::simulate_run(10, 600, 3, 15, 42);
  EXPECT_EQ(a.elapsed_hours, b.elapsed_hours);
  EXPECT_EQ(a.failures, b.failures);
}

}  // namespace
}  // namespace fpst::core
