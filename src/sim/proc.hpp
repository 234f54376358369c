// Coroutine processes for the simulation kernel.
//
// A `Proc` is a lazily-started coroutine representing one concurrent activity
// (an Occam process, a DMA engine, a disk). Processes are composed
// structurally:
//
//   Proc worker(Simulator& sim) {
//     co_await Delay{SimTime::microseconds(5)};     // advance simulated time
//     co_await child(sim);                           // run child to completion
//     co_await WhenAll{child(sim), child(sim)};      // fork-join (Occam PAR)
//   }
//
// Every suspension resumes through the simulator's event queue, never by
// direct transfer, which keeps execution order a pure function of
// (time, schedule sequence) — i.e. deterministic.
#pragma once

#include <sanitizer/asan_interface.h>

#include <array>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace fpst::sim {

namespace detail {

/// Recycler for coroutine frames. Every `co_await` of a child, every PAR
/// branch and every stripe of a vector op creates and destroys a `Proc`
/// frame, so malloc/free would sit on the simulator's hottest path. Frames
/// cluster into a handful of sizes (one per coroutine body), so each size
/// bucket keeps a free list linked through the dead frames themselves, and
/// a freed frame always goes back on its list, so after warm-up a run
/// allocates no frame at all. Thread-local because the parallel engine runs
/// one simulator per shard thread. A thread's lists hold at most the most
/// frames it ever had live at once, plus the frames it freed that another
/// thread allocated (a frame migrates to the freeing thread's list). A
/// thread's lists go back to the heap when it exits.
///
/// A listed frame is poisoned for AddressSanitizer (the macros compile to
/// nothing in other builds), so resuming or reading a destroyed frame is
/// still reported as it would be if the frame had gone back to the heap.
inline constexpr std::size_t kFrameGrain = 64;
inline constexpr std::size_t kFrameBuckets = 16;  // covers frames < 1 KiB

struct FrameCache {
  void* head[kFrameBuckets] = {};

  ~FrameCache() {
    for (std::size_t b = 0; b < kFrameBuckets; ++b) {
      while (head[b] != nullptr) {
        ::operator delete(pop(b));
      }
    }
  }

  /// Precondition: head[b] != nullptr.
  void* pop(std::size_t b) {
    void* p = head[b];
    ASAN_UNPOISON_MEMORY_REGION(p, (b + 1) * kFrameGrain);
    head[b] = *static_cast<void**>(p);
    return p;
  }

  void push(std::size_t b, void* p) {
    *static_cast<void**>(p) = head[b];
    head[b] = p;
    ASAN_POISON_MEMORY_REGION(p, (b + 1) * kFrameGrain);
  }
};

inline FrameCache& frame_cache() {
  thread_local FrameCache cache;
  return cache;
}

/// Bucket index for a frame of `size` bytes; kFrameBuckets = too large.
inline std::size_t frame_bucket(std::size_t size) {
  return (size - 1) / kFrameGrain;
}

inline void* frame_alloc(std::size_t size) {
  const std::size_t b = frame_bucket(size);
  if (b < kFrameBuckets) {
    FrameCache& c = frame_cache();
    if (c.head[b] != nullptr) {
      return c.pop(b);
    }
    // Allocate the full bucket width so any same-bucket frame can reuse it.
    return ::operator new((b + 1) * kFrameGrain);
  }
  return ::operator new(size);
}

inline void frame_free(void* p, std::size_t size) {
  const std::size_t b = frame_bucket(size);
  if (b < kFrameBuckets) {
    frame_cache().push(b, p);
    return;
  }
  ::operator delete(p);
}

}  // namespace detail

class WhenAll;

class Proc {
 public:
  struct promise_type {
    /// `root` of a process the simulator does not own.
    static constexpr std::size_t kNotRoot = static_cast<std::size_t>(-1);

    Simulator* sim = nullptr;
    /// Parent coroutine co_awaiting this process (structured join).
    std::coroutine_handle<> continuation{};
    /// The fork-join this process is a branch of (see WhenAll), or null.
    WhenAll* join = nullptr;
    std::exception_ptr exception{};
    /// Position in the simulator's root list while the simulator owns the
    /// frame (a root process), else kNotRoot. The final awaiter hands it
    /// back so the simulator reaps the frame without searching.
    std::size_t root = kNotRoot;

    Proc get_return_object() {
      return Proc{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }

    static void* operator new(std::size_t size) {
      return detail::frame_alloc(size);
    }
    static void operator delete(void* p, std::size_t size) {
      detail::frame_free(p, size);
    }
  };

  Proc() = default;
  explicit Proc(std::coroutine_handle<promise_type> h) : handle_{h} {}

  Proc(Proc&& other) noexcept : handle_{std::exchange(other.handle_, {})} {}
  Proc& operator=(Proc&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;
  ~Proc() { destroy(); }

  /// Awaiting a Proc starts it (inheriting the parent's simulator) and
  /// suspends the parent until it completes; exceptions propagate.
  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> parent) {
        promise_type& cp = child.promise();
        cp.sim = parent.promise().sim;
        cp.continuation = parent;
        cp.sim->schedule_resume(SimTime{}, child);
      }
      void await_resume() {
        if (child.promise().exception) {
          std::rethrow_exception(child.promise().exception);
        }
      }
    };
    return Awaiter{handle_};
  }

  /// Internal: used by Simulator and WhenAll.
  std::coroutine_handle<promise_type> handle() const { return handle_; }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_{};
};

/// Suspend the current process for a simulated duration.
struct Delay {
  SimTime duration;
  bool await_ready() const noexcept { return duration < SimTime{}; }
  void await_suspend(std::coroutine_handle<Proc::promise_type> h) const {
    h.promise().sim->schedule_resume(duration, h);
  }
  void await_resume() const noexcept {}
};

/// Awaitable yielding the owning simulator (lets library code written as a
/// Proc discover its simulator without threading it through every call).
struct ThisSim {
  Simulator* sim = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<Proc::promise_type> h) {
    sim = h.promise().sim;
    return false;  // resume immediately; we only needed the promise
  }
  Simulator& await_resume() const noexcept { return *sim; }
};

/// Fork-join over a set of child processes — the Occam PAR construct. The
/// parent resumes once every child has completed. If any child threw, the
/// exception of the first such child (in argument order) is rethrown in the
/// parent. Each child's promise points at this awaiter, which lives in the
/// parent's frame; the child that finishes last schedules the parent. Up to
/// two children listed as arguments are held in the awaiter itself, so a
/// PAR of a send and a receive, the shape of every message exchange,
/// allocates nothing.
class WhenAll {
 public:
  explicit WhenAll(std::vector<Proc> children) : many_{std::move(children)} {}

  template <class... Procs>
  explicit WhenAll(Procs&&... procs) {
    if constexpr (sizeof...(procs) <= kInline) {
      ((few_[few_count_++] = std::forward<Procs>(procs)), ...);
    } else {
      many_.reserve(sizeof...(procs));
      (many_.push_back(std::forward<Procs>(procs)), ...);
    }
  }

  bool await_ready() const noexcept {
    return few_count_ == 0 && many_.empty();
  }

  void await_suspend(std::coroutine_handle<Proc::promise_type> parent) {
    parent_ = parent;
    const std::span<Proc> all = children();
    remaining_ = all.size();
    for (Proc& child : all) {
      Proc::promise_type& cp = child.handle().promise();
      cp.sim = parent.promise().sim;
      cp.join = this;
      cp.sim->schedule_resume(SimTime{}, child.handle());
    }
  }

  void await_resume() {
    for (Proc& child : children()) {
      if (child.handle().promise().exception) {
        std::rethrow_exception(child.handle().promise().exception);
      }
    }
  }

 private:
  friend struct Proc::promise_type::FinalAwaiter;

  static constexpr std::size_t kInline = 2;

  /// The children in argument order, wherever they are held. Computed on
  /// each use, so moving the awaiter before it is awaited is safe.
  std::span<Proc> children() {
    return few_count_ != 0 ? std::span<Proc>{few_.data(), few_count_}
                           : std::span<Proc>{many_};
  }

  /// One child finished; the last one schedules the parent.
  void child_done() {
    if (--remaining_ == 0) {
      parent_.promise().sim->schedule_resume(SimTime{}, parent_);
    }
  }

  std::array<Proc, kInline> few_{};
  std::size_t few_count_ = 0;
  std::vector<Proc> many_;
  std::coroutine_handle<Proc::promise_type> parent_{};
  std::size_t remaining_ = 0;
};

inline void Proc::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  promise_type& p = h.promise();
  if (p.root != kNotRoot) {
    // Let the simulator reap this frame after the current event: a caller
    // driving step() directly must not retain every completed root frame
    // until run() returns.
    p.sim->note_root_finished(p.root);
    if (p.exception) {
      p.sim->report_root_failure(p.exception);
    }
  }
  if (p.continuation) {
    p.sim->schedule_resume(SimTime{}, p.continuation);
  }
  if (p.join != nullptr) {
    p.join->child_done();
  }
}

}  // namespace fpst::sim
