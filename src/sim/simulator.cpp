#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/proc.hpp"

namespace fpst::sim {

Simulator::~Simulator() = default;

std::size_t Simulator::live_roots() const { return roots_.size(); }

void Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) {
    throw std::logic_error("Simulator::schedule_at: event time " +
                           t.to_string() + " is before now() " +
                           now_.to_string());
  }
  queue_.push_call(t, std::move(fn));
}

void Simulator::schedule_resume(SimTime delay, std::coroutine_handle<> h) {
  if (delay < SimTime{}) {
    throw std::logic_error(
        "Simulator::schedule_resume: negative delay " + delay.to_string());
  }
  queue_.push_resume(now_ + delay, h);
}

void Simulator::spawn(Proc p) {
  Proc::promise_type& promise = p.handle().promise();
  promise.sim = this;
  promise.is_root = true;
  schedule_resume(SimTime{}, p.handle());
  roots_.push_back(std::move(p));
}

bool Simulator::step() {
  if (queue_.empty()) {
    return false;
  }
  const EventQueue::Entry ev = queue_.pop_min();
  now_ = ev.t;
  last_event_ = ev.t;
  if (ev.resume) {
    ev.resume.resume();
  } else {
    queue_.take_slot(ev.slot)();
  }
  // Single-writer counter: a relaxed load+store (not fetch_add) avoids the
  // locked RMW in the hot loop while staying exact, since only this thread
  // writes. Cross-thread readers go through events_processed().
  events_processed_.store(events_processed_.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
  if (finished_roots_ > 0) {
    reap_finished_roots();
  }
  if (root_failure_) {
    rethrow_root_failure();
  }
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) {
    ++n;
  }
  return n;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline && step()) {
    ++n;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

void Simulator::reap_finished_roots() {
  std::erase_if(roots_, [](const Proc& p) { return p.done(); });
  finished_roots_ = 0;
}

void Simulator::rethrow_root_failure() {
  std::exception_ptr e = std::exchange(root_failure_, nullptr);
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& inner) {
    throw ProcError(std::string("root process failed: ") + inner.what());
  } catch (...) {
    throw ProcError("root process failed with a non-std exception");
  }
}

}  // namespace fpst::sim
