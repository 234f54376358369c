// Unit and property tests for the discrete-event kernel: time arithmetic,
// event ordering, coroutine processes, synchronisation primitives, the
// bounded ring buffer, and the bit primitives every layer shares.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/bits.hpp"
#include "sim/fifo.hpp"
#include "sim/proc.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace fpst::sim {
namespace {

using namespace fpst::sim::literals;

TEST(SimTime, UnitFactoriesAgree) {
  EXPECT_EQ(SimTime::nanoseconds(1).ps(), 1000);
  EXPECT_EQ(SimTime::microseconds(1), SimTime::nanoseconds(1000));
  EXPECT_EQ(SimTime::milliseconds(1), SimTime::microseconds(1000));
  EXPECT_EQ(SimTime::seconds(1), SimTime::milliseconds(1000));
  EXPECT_EQ(125_ns, SimTime::picoseconds(125'000));
}

TEST(SimTime, PaperConstantsAreExact) {
  // 62.5 ns (one 32-bit word per vector-register beat) must be exact.
  const SimTime half_cycle = 125_ns / 2;
  EXPECT_EQ(half_cycle.ps(), 62'500);
  EXPECT_EQ(half_cycle * 2, 125_ns);
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ((3_us + 500_ns).ps(), 3'500'000);
  EXPECT_EQ((3_us - 500_ns).ps(), 2'500'000);
  EXPECT_EQ(4_us / 2_us, 2.0);
  EXPECT_LT(1_ns, 1_us);
  SimTime t = 1_us;
  t += 1_us;
  t -= 250_ns;
  EXPECT_EQ(t.ps(), 1'750'000);
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ((125_ns).to_string(), "125 ns");
  EXPECT_EQ((5_us).to_string(), "5 us");
  EXPECT_EQ((15_s).to_string(), "15 s");
  EXPECT_EQ((125_ns / 2).to_string(), "62.500 ns");
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3_us, [&] { order.push_back(3); });
  sim.schedule(1_us, [&] { order.push_back(1); });
  sim.schedule(2_us, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3_us);
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1_us, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_us, [&] { fired |= 1; });
  sim.schedule(10_us, [&] { fired |= 2; });
  sim.run_until(5_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5_us);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule(5_us, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 5_us);
  // The guard must hold in release builds too (it used to be only an
  // assert, so NDEBUG builds silently corrupted deterministic ordering).
  EXPECT_THROW(sim.schedule_at(1_us, [] {}), std::logic_error);
}

TEST(Simulator, MixedArmsAtOneInstantFireInScheduleOrder) {
  // Closure events (slab arm) and coroutine resumptions (fast arm) share
  // one dispatch order: same-instant events fire in scheduling order
  // regardless of which arm carries them.
  Simulator sim;
  std::vector<int> log;
  auto marker = [](std::vector<int>* out, int id) -> Proc {
    out->push_back(id);
    co_return;
  };
  sim.schedule(SimTime{}, [&] { log.push_back(0); });
  sim.spawn(marker(&log, 1));
  sim.schedule(SimTime{}, [&] { log.push_back(2); });
  sim.spawn(marker(&log, 3));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

Proc quick_root(int* done) {
  co_await Delay{1_us};
  ++*done;
}

Proc long_root() {
  co_await Delay{100_us};
}

TEST(Simulator, FinishedRootsAreReapedMidRun) {
  // A caller driving the simulator one step() at a time must not retain
  // every completed root coroutine frame until run() returns.
  Simulator sim;
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    sim.spawn(quick_root(&done));
  }
  sim.spawn(long_root());
  EXPECT_EQ(sim.live_roots(), 9u);
  while (done < 8 && sim.step()) {
  }
  EXPECT_EQ(done, 8);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.live_roots(), 1u);
  sim.run();
  EXPECT_EQ(sim.live_roots(), 0u);
  EXPECT_EQ(sim.now(), 100_us);
}

/// Counts the destruction of the coroutine frame it is a by-value parameter
/// of: the frame's copy is the only one left holding the counter.
class FrameTracker {
 public:
  explicit FrameTracker(int* destroyed) : destroyed_{destroyed} {}
  FrameTracker(FrameTracker&& other) noexcept
      : destroyed_{std::exchange(other.destroyed_, nullptr)} {}
  FrameTracker& operator=(FrameTracker&&) = delete;
  ~FrameTracker() {
    if (destroyed_ != nullptr) {
      ++*destroyed_;
    }
  }

 private:
  int* destroyed_;
};

Proc counted_root(SimTime d, int* done, FrameTracker) {
  co_await Delay{d};
  ++*done;
}

TEST(Simulator, ManyShortRootsReapBesideLongLivedOnes) {
  // Short roots finish in an order unrelated to their spawn order while
  // long-lived roots sit between them in the root list, so most reaps move
  // another root into the freed place.
  Simulator sim;
  int short_done = 0;
  int long_done = 0;
  int frames_destroyed = 0;
  constexpr int kShort = 200;
  constexpr int kLong = 10;
  for (int i = 0; i < kShort; ++i) {
    if (i % (kShort / kLong) == 0) {
      sim.spawn(counted_root(1_ms, &long_done,
                             FrameTracker{&frames_destroyed}));
    }
    sim.spawn(counted_root(SimTime::microseconds((i * 37) % 101 + 1),
                           &short_done, FrameTracker{&frames_destroyed}));
  }
  EXPECT_EQ(sim.live_roots(), static_cast<std::size_t>(kShort + kLong));
  while (short_done < kShort && sim.step()) {
  }
  EXPECT_EQ(short_done, kShort);
  EXPECT_EQ(long_done, 0);
  EXPECT_EQ(sim.live_roots(), static_cast<std::size_t>(kLong));
  EXPECT_EQ(frames_destroyed, kShort);
  sim.run();
  EXPECT_EQ(long_done, kLong);
  EXPECT_EQ(sim.live_roots(), 0u);
  EXPECT_EQ(frames_destroyed, kShort + kLong);
  EXPECT_EQ(sim.now(), 1_ms);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  SimTime seen{};
  sim.schedule(1_us, [&] {
    sim.schedule(1_us, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 2_us);
}

Proc delay_then_mark(SimTime d, SimTime* out) {
  co_await Delay{d};
  Simulator& sim = co_await ThisSim{};
  *out = sim.now();
}

TEST(Proc, DelayAdvancesSimulatedTime) {
  Simulator sim;
  SimTime out{};
  sim.spawn(delay_then_mark(125_ns, &out));
  sim.run();
  EXPECT_EQ(out, 125_ns);
}

Proc sequential_child(std::vector<int>* log, int id, SimTime d) {
  co_await Delay{d};
  log->push_back(id);
}

Proc sequential_parent(std::vector<int>* log) {
  co_await sequential_child(log, 1, 2_us);
  co_await sequential_child(log, 2, 1_us);
  log->push_back(3);
}

TEST(Proc, StructuredJoinIsSequential) {
  Simulator sim;
  std::vector<int> log;
  sim.spawn(sequential_parent(&log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3_us);
}

Proc par_parent(std::vector<int>* log) {
  // Occam PAR: both children run concurrently; total elapsed time is the
  // max of the two, not the sum.
  co_await WhenAll{sequential_child(log, 1, 1_us),
                   sequential_child(log, 2, 3_us)};
  log->push_back(3);
}

TEST(Proc, WhenAllJoinsConcurrently) {
  Simulator sim;
  std::vector<int> log;
  sim.spawn(par_parent(&log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3_us);
}

Proc throwing_proc() {
  co_await Delay{1_us};
  throw std::runtime_error("boom");
}

TEST(Proc, RootExceptionSurfacesAsProcError) {
  Simulator sim;
  sim.spawn(throwing_proc());
  EXPECT_THROW(sim.run(), ProcError);
}

Proc catching_parent(bool* caught) {
  try {
    co_await throwing_proc();
  } catch (const std::runtime_error& e) {
    *caught = std::string(e.what()) == "boom";
  }
}

TEST(Proc, ChildExceptionPropagatesToParent) {
  Simulator sim;
  bool caught = false;
  sim.spawn(catching_parent(&caught));
  sim.run();
  EXPECT_TRUE(caught);
}

Proc event_waiter(Event* ev, int* count) {
  co_await ev->wait();
  ++*count;
}

Proc event_notifier(Event* ev) {
  co_await Delay{5_us};
  ev->notify_all();
}

TEST(Sync, EventWakesAllWaiters) {
  Simulator sim;
  Event ev{sim};
  int count = 0;
  sim.spawn(event_waiter(&ev, &count));
  sim.spawn(event_waiter(&ev, &count));
  sim.spawn(event_notifier(&ev));
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 5_us);
}

Proc sem_user(Semaphore* sem, SimTime hold, std::vector<SimTime>* acquired,
              Simulator* sim) {
  co_await sem->acquire();
  acquired->push_back(sim->now());
  co_await Delay{hold};
  sem->release();
}

TEST(Sync, SemaphoreSerialisesExclusiveResource) {
  Simulator sim;
  Semaphore sem{sim, 1};
  std::vector<SimTime> acquired;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(sem_user(&sem, 10_us, &acquired, &sim));
  }
  sim.run();
  ASSERT_EQ(acquired.size(), 3u);
  EXPECT_EQ(acquired[0], 0_us);
  EXPECT_EQ(acquired[1], 10_us);
  EXPECT_EQ(acquired[2], 20_us);
}

TEST(Sync, SemaphoreAllowsCountConcurrent) {
  Simulator sim;
  Semaphore sem{sim, 2};
  std::vector<SimTime> acquired;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(sem_user(&sem, 10_us, &acquired, &sim));
  }
  sim.run();
  ASSERT_EQ(acquired.size(), 4u);
  EXPECT_EQ(acquired[0], 0_us);
  EXPECT_EQ(acquired[1], 0_us);
  EXPECT_EQ(acquired[2], 10_us);
  EXPECT_EQ(acquired[3], 10_us);
}

Proc chan_sender(Channel<int>* ch, int base, int n) {
  for (int i = 0; i < n; ++i) {
    co_await ch->send(base + i);
    co_await Delay{1_us};
  }
}

Proc chan_receiver(Channel<int>* ch, std::vector<int>* got, int n) {
  for (int i = 0; i < n; ++i) {
    got->push_back(co_await ch->recv());
  }
}

TEST(Sync, ChannelRendezvousTransfersInOrder) {
  Simulator sim;
  Channel<int> ch{sim};
  std::vector<int> got;
  sim.spawn(chan_sender(&ch, 100, 5));
  sim.spawn(chan_receiver(&ch, &got, 5));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{100, 101, 102, 103, 104}));
}

Proc chan_blocking_sender(Channel<int>* ch, Simulator* sim, SimTime* done) {
  co_await ch->send(7);
  *done = sim->now();
}

Proc chan_late_receiver(Channel<int>* ch, int* value) {
  co_await Delay{9_us};
  *value = co_await ch->recv();
}

TEST(Sync, SendBlocksUntilReceiverArrives) {
  Simulator sim;
  Channel<int> ch{sim};
  SimTime done{};
  int value = 0;
  sim.spawn(chan_blocking_sender(&ch, &sim, &done));
  sim.spawn(chan_late_receiver(&ch, &value));
  sim.run();
  EXPECT_EQ(value, 7);
  EXPECT_EQ(done, 9_us);
}

// FIFO order of the waiter queues: which waiter a primitive serves first.
// Arrival order differs from spawn order throughout, so a queue that
// served in spawn order (or LIFO) fails.
constexpr int kArrivalNs[] = {30, 10, 40, 0, 20};

Proc named_acquirer(Semaphore* sem, int name, std::vector<int>* order) {
  co_await Delay{SimTime::nanoseconds(kArrivalNs[name])};
  co_await sem->acquire();
  order->push_back(name);
  co_await Delay{1_us};
  sem->release();
}

Proc release_once(Semaphore* sem) {
  co_await Delay{10_us};
  sem->release();
}

TEST(SyncOrder, SemaphoreHandsPermitsInArrivalOrder) {
  Simulator sim;
  Semaphore sem{sim, 0};
  std::vector<int> order;
  for (int name = 0; name < 5; ++name) {
    sim.spawn(named_acquirer(&sem, name, &order));
  }
  sim.spawn(release_once(&sem));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 4, 0, 2}));
  EXPECT_EQ(sim.now(), 15_us);
}

Proc named_sender(Channel<int>* ch, int name) {
  co_await Delay{SimTime::nanoseconds(kArrivalNs[name])};
  co_await ch->send(name);
}

Proc late_receiver(Channel<int>* ch, int n, std::vector<int>* got) {
  co_await Delay{1_us};
  for (int i = 0; i < n; ++i) {
    got->push_back(co_await ch->recv());
  }
}

TEST(SyncOrder, ChannelPairsBlockedSendersFirstComeFirstServed) {
  Simulator sim;
  Channel<int> ch{sim};
  std::vector<int> got;
  for (int name = 0; name < 3; ++name) {
    sim.spawn(named_sender(&ch, name));
  }
  sim.spawn(late_receiver(&ch, 3, &got));
  sim.run();
  // Arrivals: sender 1 at 10 ns, sender 0 at 30 ns, sender 2 at 40 ns.
  EXPECT_EQ(got, (std::vector<int>{1, 0, 2}));
}

Proc named_receiver(Channel<int>* ch, int name, std::vector<int>* got_by) {
  co_await Delay{SimTime::nanoseconds(kArrivalNs[name])};
  got_by[name].push_back(co_await ch->recv());
}

Proc late_sender(Channel<int>* ch, int n) {
  co_await Delay{1_us};
  for (int i = 0; i < n; ++i) {
    co_await ch->send(100 + i);
  }
}

TEST(SyncOrder, ChannelPairsBlockedReceiversFirstComeFirstServed) {
  Simulator sim;
  Channel<int> ch{sim};
  std::vector<int> got_by[3];
  for (int name = 0; name < 3; ++name) {
    sim.spawn(named_receiver(&ch, name, got_by));
  }
  sim.spawn(late_sender(&ch, 3));
  sim.run();
  // Receiver 1 arrived first, then 0, then 2.
  EXPECT_EQ(got_by[1], (std::vector<int>{100}));
  EXPECT_EQ(got_by[0], (std::vector<int>{101}));
  EXPECT_EQ(got_by[2], (std::vector<int>{102}));
}

Proc timed_waiter(Event* ev, Simulator* sim, SimTime* woke) {
  co_await ev->wait();
  *woke = sim->now();
}

Proc notify_then_wait(Event* ev, Simulator* sim, SimTime* woke) {
  co_await Delay{5_us};
  ev->notify_all();
  // Arrives after the notify, at the same instant: waits for the next one.
  co_await ev->wait();
  *woke = sim->now();
}

Proc notify_at(Event* ev, SimTime t) {
  co_await Delay{t};
  ev->notify_all();
}

TEST(SyncOrder, EventWaiterArrivingAfterNotifyWaitsForTheNext) {
  Simulator sim;
  Event ev{sim};
  SimTime early{};
  SimTime late{};
  sim.spawn(timed_waiter(&ev, &sim, &early));
  sim.spawn(notify_then_wait(&ev, &sim, &late));
  sim.spawn(notify_at(&ev, 10_us));
  sim.run();
  EXPECT_EQ(early, 5_us);
  EXPECT_EQ(late, 10_us);
}

Proc fail_after(SimTime d, const char* what) {
  co_await Delay{d};
  throw std::runtime_error(what);
}

Proc finish_after(SimTime d, bool* done) {
  co_await Delay{d};
  *done = true;
}

Proc join_catching(Simulator* sim, bool* slow_done, bool* slow_done_at_catch,
                   SimTime* caught_at, std::string* what) {
  try {
    co_await WhenAll{fail_after(1_us, "early"),
                     finish_after(5_us, slow_done)};
  } catch (const std::runtime_error& e) {
    *slow_done_at_catch = *slow_done;
    *caught_at = sim->now();
    *what = e.what();
  }
}

TEST(SyncOrder, WhenAllRethrowsOnlyAfterEveryChildFinished) {
  Simulator sim;
  bool slow_done = false;
  bool slow_done_at_catch = false;
  SimTime caught_at{};
  std::string what;
  sim.spawn(join_catching(&sim, &slow_done, &slow_done_at_catch, &caught_at,
                          &what));
  sim.run();
  EXPECT_EQ(what, "early");
  EXPECT_TRUE(slow_done_at_catch);
  EXPECT_EQ(caught_at, 5_us);
}

Proc first_failure(std::string* what) {
  try {
    // The second child throws first in time; the first in argument order
    // is the one rethrown.
    co_await WhenAll{fail_after(3_us, "first"), fail_after(1_us, "second")};
  } catch (const std::runtime_error& e) {
    *what = e.what();
  }
}

TEST(SyncOrder, WhenAllRethrowsTheFirstFailingChildInArgumentOrder) {
  Simulator sim;
  std::string what;
  sim.spawn(first_failure(&what));
  sim.run();
  EXPECT_EQ(what, "first");
}

Proc inner_par(std::vector<int>* log) {
  co_await WhenAll{sequential_child(log, 1, 2_us),
                   sequential_child(log, 2, 1_us)};
  log->push_back(3);
}

Proc outer_par(std::vector<int>* log) {
  co_await WhenAll{inner_par(log), sequential_child(log, 4, 4_us)};
  log->push_back(5);
}

TEST(SyncOrder, NestedWhenAllJoins) {
  Simulator sim;
  std::vector<int> log;
  sim.spawn(outer_par(&log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{2, 1, 3, 4, 5}));
  EXPECT_EQ(sim.now(), 4_us);
  EXPECT_EQ(sim.live_roots(), 0u);
}

TEST(Simulator, RandomisedSchedulesDispatchByTimeThenScheduleOrder) {
  // Stress for the bucketed event queue: heavy same-time collisions, many
  // distinct times (bucket-pool reuse, hash growth and erasure), and
  // re-entrant scheduling from inside events. The contract: dispatch is a
  // stable sort of scheduling order by time.
  Simulator sim;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<std::pair<std::int64_t, int>> fired;  // (time ps, schedule seq)
  int seq = 0;
  std::function<void(SimTime)> post = [&](SimTime t) {
    const int my_seq = seq++;
    sim.schedule_at(t, [&, t, my_seq] {
      fired.emplace_back(t.ps(), my_seq);
      // A quarter of the events re-entrantly schedule a follow-up.
      if (next() % 4 == 0) {
        post(sim.now() + SimTime::picoseconds(
                             static_cast<std::int64_t>(next() % 7)));
      }
    });
  };
  for (int i = 0; i < 2000; ++i) {
    // Two clustering regimes: dense collisions (mod 97) and mostly-unique
    // times (mod 1'000'003).
    const std::uint64_t r = next();
    const std::int64_t ps = static_cast<std::int64_t>(
        i % 2 == 0 ? r % 97 : r % 1'000'003);
    post(SimTime::picoseconds(ps));
  }
  sim.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(seq));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    // Strictly increasing in (time, seq): equal times must preserve
    // scheduling order, and seq values never repeat.
    EXPECT_LT(fired[i - 1], fired[i])
        << "event " << i << " dispatched out of order";
  }
}

// Determinism property: the same program must produce the identical event
// trace on every run.
class DeterminismTest : public ::testing::TestWithParam<int> {};

Proc det_worker(Channel<int>* ch, int id, std::vector<int>* log) {
  co_await Delay{SimTime::nanoseconds(100 * (id % 3))};
  co_await ch->send(id);
  log->push_back(id);
}

Proc det_sink(Channel<int>* ch, int n, std::vector<int>* log) {
  for (int i = 0; i < n; ++i) {
    log->push_back(1000 + co_await ch->recv());
  }
}

std::vector<int> run_det_workload(int workers) {
  Simulator sim;
  Channel<int> ch{sim};
  std::vector<int> log;
  for (int i = 0; i < workers; ++i) {
    sim.spawn(det_worker(&ch, i, &log));
  }
  sim.spawn(det_sink(&ch, workers, &log));
  sim.run();
  return log;
}

TEST_P(DeterminismTest, RepeatedRunsProduceIdenticalTraces) {
  const int workers = GetParam();
  const std::vector<int> first = run_det_workload(workers);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(run_det_workload(workers), first) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DeterminismTest,
                         ::testing::Values(1, 2, 5, 16, 64));

TEST(Fifo, MatchesADequeAcrossWrapAndGrowth) {
  // A third each of push_back, push_front and pop_front: the queue grows
  // while its ring is wrapped, and pops in the order a deque would.
  Fifo<int> q;
  std::deque<int> model;
  std::uint32_t lcg = 7;
  for (int i = 0; i < 1000; ++i) {
    lcg = lcg * 1664525u + 1013904223u;
    const std::uint32_t op = (lcg >> 16) % 3;
    if (op == 0 || model.empty()) {
      q.push_back(i);
      model.push_back(i);
    } else if (op == 1) {
      q.push_front(i);
      model.push_front(i);
    } else {
      ASSERT_EQ(q.pop_front(), model.front());
      model.pop_front();
    }
    ASSERT_EQ(q.empty(), model.empty());
  }
  for (; !model.empty(); model.pop_front()) {
    ASSERT_EQ(q.pop_front(), model.front());
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingBuffer, IndexingEmptyRingThrows) {
  // Regression: operator[] used to compute `% buf_.size()`, which is a
  // division by zero (UB) on an empty ring. The guard must throw instead.
  RingBuffer<int> rb{4};
  EXPECT_TRUE(rb.empty());
  EXPECT_THROW(static_cast<void>(rb[0]), std::out_of_range);
}

TEST(RingBuffer, PartiallyFilledIndexingIsInsertionOrdered) {
  RingBuffer<int> rb{4};
  rb.push(10);
  rb.push(11);
  EXPECT_EQ(rb[0], 10);
  EXPECT_EQ(rb[1], 11);
  EXPECT_THROW(static_cast<void>(rb[2]), std::out_of_range);
  rb.push(12);
  rb.push(13);
  rb.push(14);  // wraps: 10 is overwritten
  EXPECT_EQ(rb.dropped(), 1u);
  EXPECT_EQ(rb[0], 11);
  EXPECT_EQ(rb[3], 14);
  EXPECT_THROW(static_cast<void>(rb[4]), std::out_of_range);
}

TEST(RingBuffer, ThreeTimesCapacityKeepsTheNewestOldestFirst) {
  constexpr std::size_t kCap = 5;
  RingBuffer<int> rb{kCap};
  for (std::size_t i = 0; i < 3 * kCap; ++i) {
    rb.push(static_cast<int>(i));
  }
  EXPECT_EQ(rb.size(), kCap);
  EXPECT_EQ(rb.dropped(), 2 * kCap);
  const std::vector<int> newest{10, 11, 12, 13, 14};
  EXPECT_EQ(rb.snapshot(), newest);
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(rb[i], newest[i]);
  }
}

// Known answers from the reference definitions. FNV-1a("") is the offset
// basis itself, so a mistyped basis fails the first line.
TEST(Bits, Fnv1aKnownAnswers) {
  EXPECT_EQ(bits::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(bits::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(bits::fnv1a("foobar"), 0x85944171f73967e8ULL);
  // The byte step folds into the same hash as the string form.
  std::uint64_t h = bits::kFnvOffset;
  for (const char c : std::string("foobar")) {
    h = bits::fnv1a(h, static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(h, bits::fnv1a("foobar"));
}

TEST(Bits, Splitmix64KnownAnswers) {
  EXPECT_EQ(bits::splitmix64(0), 0xe220a8397b1dcdafULL);
  // The generator form seeded with 0 yields the reference stream.
  std::uint64_t state = 0;
  EXPECT_EQ(bits::splitmix64_next(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(bits::splitmix64_next(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(bits::splitmix64_next(state), 0x06c45d188009454fULL);
  EXPECT_EQ(state, 3 * bits::kGoldenGamma);
}

}  // namespace
}  // namespace fpst::sim
