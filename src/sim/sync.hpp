// Synchronisation primitives for simulated processes: condition events,
// counting semaphores and CSP rendezvous channels. All wake-ups go through
// the simulator event queue at the current instant (zero simulated delay),
// preserving determinism; any real latency (link bit times, memory cycles)
// is charged explicitly by the hardware models.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/proc.hpp"
#include "sim/simulator.hpp"

namespace fpst::sim {

/// A broadcast condition: processes wait(); notify_all() wakes every current
/// waiter (processes arriving after the notify wait for the next one).
class Event {
 public:
  explicit Event(Simulator& sim) : sim_{&sim} {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  struct Awaiter {
    Event* ev;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Proc::promise_type> h) {
      ev->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait() { return Awaiter{this}; }

  void notify_all() {
    for (auto h : waiters_) {
      sim_->schedule_resume(SimTime{}, h);
    }
    waiters_.clear();
  }

 private:
  Simulator* sim_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// FIFO counting semaphore. Used for exclusive hardware resources (a
/// physical link wire, the memory random-access port, the bus in the
/// shared-memory baseline).
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::size_t initial)
      : sim_{&sim}, count_{initial} {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Awaiter {
    Semaphore* sem;
    bool await_ready() const noexcept {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<Proc::promise_type> h) {
      sem->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter acquire() { return Awaiter{this}; }

  void release() {
    if (!waiters_.empty()) {
      // Hand the permit directly to the longest waiter.
      sim_->schedule_resume(SimTime{}, waiters_.front());
      waiters_.pop_front();
    } else {
      ++count_;
    }
  }

 private:
  Simulator* sim_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Unbuffered CSP channel (Occam's `!` and `?`): a send rendezvouses with
/// exactly one receive. Both sides resume at the instant the rendezvous is
/// formed; transfer latency is modelled by whoever owns the wire.
template <class T>
class Channel {
 public:
  explicit Channel(Simulator& sim) : sim_{&sim} {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  struct SendAwaiter {
    Channel* ch;
    T value;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Proc::promise_type> h) {
      if (!ch->receivers_.empty()) {
        PendingRecv r = std::move(ch->receivers_.front());
        ch->receivers_.pop_front();
        *r.slot = std::move(value);
        ch->sim_->schedule_resume(SimTime{}, r.h);
        ch->sim_->schedule_resume(SimTime{}, h);
      } else {
        ch->senders_.push_back(PendingSend{std::move(value), h});
      }
    }
    void await_resume() const noexcept {}
  };

  struct RecvAwaiter {
    Channel* ch;
    std::optional<T> slot{};
    bool await_ready() noexcept { return false; }
    void await_suspend(std::coroutine_handle<Proc::promise_type> h) {
      if (!ch->senders_.empty()) {
        PendingSend s = std::move(ch->senders_.front());
        ch->senders_.pop_front();
        slot = std::move(s.value);
        ch->sim_->schedule_resume(SimTime{}, s.h);
        ch->sim_->schedule_resume(SimTime{}, h);
      } else {
        ch->receivers_.push_back(PendingRecv{&slot, h});
      }
    }
    T await_resume() { return std::move(*slot); }
  };

  [[nodiscard]] SendAwaiter send(T value) {
    return SendAwaiter{this, std::move(value)};
  }
  [[nodiscard]] RecvAwaiter recv() { return RecvAwaiter{this}; }

 private:
  struct PendingSend {
    T value;
    std::coroutine_handle<> h;
  };
  struct PendingRecv {
    std::optional<T>* slot;
    std::coroutine_handle<> h;
  };

  Simulator* sim_;
  std::deque<PendingSend> senders_;
  std::deque<PendingRecv> receivers_;

  friend struct SendAwaiter;
  friend struct RecvAwaiter;
};

}  // namespace fpst::sim
