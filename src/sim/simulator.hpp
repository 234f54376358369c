// Deterministic discrete-event simulation kernel.
//
// All model activity — control-processor instruction stepping, vector-form
// completion, link DMA, disk transfers — is expressed as events on a single
// priority queue ordered by (time, insertion sequence). Coroutine processes
// (see proc.hpp) never resume each other directly; every resumption is posted
// to this queue, so simulations are bit-for-bit reproducible regardless of
// the host machine.
#pragma once

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace fpst::sim {

class Proc;

/// Thrown by Simulator::run when a root process escaped with an exception.
class ProcError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ~Simulator();

  /// Current simulated time. Advances only inside run()/run_until().
  SimTime now() const { return now_; }

  /// Post `fn` to execute `delay` after the current time. A zero delay is
  /// legal and runs after all events already queued for the current instant.
  void schedule(SimTime delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Post `fn` at absolute time `t`. Throws std::logic_error when `t` is in
  /// the past — unconditionally, not just in debug builds, because a
  /// past-time event would silently corrupt deterministic ordering.
  void schedule_at(SimTime t, std::function<void()> fn);

  /// Post resumption of a suspended coroutine after `delay` (must not be
  /// negative; throws std::logic_error). This is the non-allocating fast
  /// path: the handle rides inside the queue entry, no closure is built.
  void schedule_resume(SimTime delay, std::coroutine_handle<> h);

  /// Launch a root process. The simulator takes ownership of the coroutine
  /// frame; it is destroyed when the process completes (or when the
  /// simulator is destroyed). Exceptions escaping a root process abort the
  /// run with ProcError.
  void spawn(Proc p);

  /// Execute the single earliest event (advancing now() to its timestamp).
  /// Returns false when the queue is empty. Public so harnesses and benches
  /// can drive the simulator one event at a time; finished root frames are
  /// reaped opportunistically, so a step()-driven run does not accumulate
  /// completed coroutine frames.
  bool step();

  /// Process events until the queue drains. Returns the number of events
  /// executed. Throws ProcError if a root process failed.
  std::size_t run();

  /// Process events with timestamps <= `deadline`; afterwards now() ==
  /// min(deadline, time of queue exhaustion... never beyond deadline).
  std::size_t run_until(SimTime deadline);

  /// True when no events remain.
  bool idle() const { return queue_.empty(); }

  /// Timestamp of the earliest queued event. Precondition: !idle().
  SimTime next_event_time() const { return queue_.next_time(); }

  /// Timestamp of the latest event actually executed — unlike now(), never
  /// padded forward by a run_until() deadline, so it reports the true
  /// completion time of the model's activity.
  SimTime last_event_time() const { return last_event_; }

  /// Total events executed since construction. Safe to call from *any*
  /// thread while a different thread drives run()/step() — the serve
  /// layer's status streaming reads it while a worker executes the job.
  ///
  /// Memory-order contract: the counter is written only by the driving
  /// thread (step() is single-threaded by construction) with a relaxed
  /// store, and read here with a relaxed load. A reader therefore gets a
  /// monotonically nondecreasing value that is never ahead of the true
  /// count, but the read does not *synchronize-with* the simulation: it
  /// orders with no other simulator state. Any inference about model state
  /// (results, queues, roots) must go through an external acquire/release
  /// edge such as joining the driving thread or a mutex handoff.
  std::uint64_t events_processed() const {
    return events_processed_.load(std::memory_order_relaxed);
  }

  /// Root processes whose coroutine frames are still owned by the
  /// simulator (finished roots are reaped as the run proceeds).
  std::size_t live_roots() const;

  /// Used by Proc's final awaiter to report a root-process failure.
  void report_root_failure(std::exception_ptr e) { root_failure_ = e; }

  /// Used by Proc's final awaiter: the root frame at `index` of the root
  /// list finished and is reaped when the current step() ends. Out of line,
  /// so the vector growth path is not inlined into every coroutine body.
  void note_root_finished(std::size_t index);

 private:
  /// Swap-remove each finished root: O(1) per root, whatever the number of
  /// live roots.
  void reap_finished_roots();
  [[noreturn]] void rethrow_root_failure();

  SimTime now_{};
  SimTime last_event_{};
  /// Single writer (the thread inside step()); see events_processed() for
  /// the cross-thread read contract. Relaxed load+store keeps the hot event
  /// loop at plain-move cost — no lock prefix — because there is exactly
  /// one writer.
  std::atomic<std::uint64_t> events_processed_{0};
  /// Root-list indices of roots that finished during the current event.
  std::vector<std::size_t> finished_roots_;
  EventQueue queue_;
  /// The root frames the simulator owns; each root's promise records its
  /// index here.
  std::vector<Proc> roots_;
  std::exception_ptr root_failure_{};
};

}  // namespace fpst::sim
