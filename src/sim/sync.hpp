// Synchronisation primitives for simulated processes: condition events,
// counting semaphores and CSP rendezvous channels. All wake-ups go through
// the simulator event queue at the current instant (zero simulated delay),
// preserving determinism; any real latency (link bit times, memory cycles)
// is charged explicitly by the hardware models.
//
// Waiting allocates nothing. As on the transputer, where a channel is one
// word naming the waiting process, each primitive keeps only the head and
// tail of an intrusive FIFO linked through the awaiters themselves: an
// awaiter lives in the suspended coroutine's frame for as long as it waits,
// and a blocked send keeps its value there until a receiver takes it.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>

#include "sim/proc.hpp"
#include "sim/simulator.hpp"

namespace fpst::sim {

namespace detail {

/// FIFO of waiters linked through their own `next` pointers. The waiters
/// are awaiters inside suspended coroutine frames, so they stay put until
/// popped; the queue owns nothing.
template <class Waiter>
class WaitQueue {
 public:
  bool empty() const { return head_ == nullptr; }

  void push(Waiter* w) {
    w->next = nullptr;
    if (tail_ == nullptr) {
      head_ = w;
    } else {
      tail_->next = w;
    }
    tail_ = w;
  }

  /// Precondition: !empty().
  Waiter* pop() {
    Waiter* w = head_;
    head_ = w->next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    return w;
  }

  /// Detach the whole queue, oldest first.
  Waiter* take_all() {
    tail_ = nullptr;
    return std::exchange(head_, nullptr);
  }

 private:
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
};

}  // namespace detail

/// A broadcast condition: processes wait(); notify_all() wakes every current
/// waiter (processes arriving after the notify wait for the next one).
class Event {
 public:
  explicit Event(Simulator& sim) : sim_{&sim} {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  struct Awaiter {
    Event* ev;
    std::coroutine_handle<> h{};
    Awaiter* next = nullptr;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Proc::promise_type> handle) {
      h = handle;
      ev->waiters_.push(this);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait() { return Awaiter{this}; }

  void notify_all() {
    for (Awaiter* w = waiters_.take_all(); w != nullptr;) {
      Awaiter* next = w->next;
      sim_->schedule_resume(SimTime{}, w->h);
      w = next;
    }
  }

 private:
  Simulator* sim_;
  detail::WaitQueue<Awaiter> waiters_;
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
    std::coroutine_handle<> h{};
    Awaiter* next = nullptr;
    bool await_ready() const noexcept {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<Proc::promise_type> handle) {
      h = handle;
      sem->waiters_.push(this);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter acquire() { return Awaiter{this}; }

  void release() {
    if (!waiters_.empty()) {
      // Hand the permit directly to the longest waiter.
      sim_->schedule_resume(SimTime{}, waiters_.pop()->h);
    } else {
      ++count_;
    }
  }

 private:
  Simulator* sim_;
  std::size_t count_;
  detail::WaitQueue<Awaiter> waiters_;
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
    std::coroutine_handle<> h{};
    SendAwaiter* next = nullptr;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Proc::promise_type> handle) {
      if (!ch->receivers_.empty()) {
        RecvAwaiter* r = ch->receivers_.pop();
        r->slot.emplace(std::move(value));
        ch->sim_->schedule_resume(SimTime{}, r->h);
        ch->sim_->schedule_resume(SimTime{}, handle);
      } else {
        h = handle;
        ch->senders_.push(this);  // the value waits here, in this frame
      }
    }
    void await_resume() const noexcept {}
  };

  struct RecvAwaiter {
    Channel* ch;
    std::optional<T> slot{};
    std::coroutine_handle<> h{};
    RecvAwaiter* next = nullptr;
    bool await_ready() noexcept { return false; }
    void await_suspend(std::coroutine_handle<Proc::promise_type> handle) {
      if (!ch->senders_.empty()) {
        SendAwaiter* s = ch->senders_.pop();
        slot.emplace(std::move(s->value));
        ch->sim_->schedule_resume(SimTime{}, s->h);
        ch->sim_->schedule_resume(SimTime{}, handle);
      } else {
        h = handle;
        ch->receivers_.push(this);
      }
    }
    T await_resume() { return std::move(*slot); }
  };

  [[nodiscard]] SendAwaiter send(T value) {
    return SendAwaiter{this, std::move(value)};
  }
  [[nodiscard]] RecvAwaiter recv() { return RecvAwaiter{this}; }

 private:
  Simulator* sim_;
  detail::WaitQueue<SendAwaiter> senders_;
  detail::WaitQueue<RecvAwaiter> receivers_;

  friend struct SendAwaiter;
  friend struct RecvAwaiter;
};

}  // namespace fpst::sim
