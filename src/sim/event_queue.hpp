// Zero-allocation event queue for the discrete-event kernel.
//
// The simulator's hot loop is pop-min / dispatch / push, millions of times
// per simulated second. The previous implementation paid for each event
// three ways: a `std::function` closure (type-erased, potentially
// heap-backed), `std::priority_queue` sift operations moving those 48-byte
// elements through a multi-megabyte heap, and a `const_cast` extraction
// hack because `priority_queue` only exposes a const top(). This queue
// replaces all of that with a structure shaped like the workload:
//
//   * Events are grouped into *buckets*, one per distinct pending
//     timestamp. A bucket is a flat FIFO of 8-byte tagged payload words —
//     appends and pops are pointer bumps with perfect cache behaviour.
//     Within one timestamp, FIFO order *is* insertion-sequence order, so
//     the `(time, seq)` dispatch contract of the old queue holds by
//     construction, without storing a sequence number at all.
//
//   * The buckets themselves sit in an intrusive 4-ary min-heap keyed on
//     time. Timestamps in the heap are unique, so the heap holds one
//     16-byte POD entry per *distinct time*, not per event — for the
//     fan-out-heavy workloads of this machine model (synchronisation
//     storms where dozens of processes wake at the same instant, vector
//     forms completing on cycle boundaries) the heap stays a few KB and
//     cache-resident.
//
//   * A payload word is either a `std::coroutine_handle<>` address (the
//     dominant event kind — resumption — never touches a closure) or a
//     tagged index into a slab of recycled `std::function` slots for the
//     general path. Buckets and closure slots are pool-allocated and
//     recycled with their storage intact, so steady-state scheduling
//     performs no allocation.
//
// Determinism contract: dispatch order is a pure function of
// (time, scheduling order) — identical to the (time, seq) ordering of the
// priority-queue implementation this replaces. The tperf dump of a traced
// run is byte-identical across the swap; tests/perf_test.cpp pins this.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace fpst::sim {

class EventQueue {
 public:
  /// A dispatched event: trivially copyable, extracted by value (no
  /// const_cast trickery). `resume` non-null marks the coroutine fast
  /// path; otherwise `slot` indexes the closure slab.
  struct Entry {
    SimTime t;
    std::coroutine_handle<> resume{};
    std::uint32_t slot = 0;
  };

  EventQueue() noexcept = default;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  SimTime next_time() const { return heap_.front().t; }

  /// Fast path: schedule a coroutine resumption. The handle address is the
  /// payload word — no closure, no per-event allocation.
  void push_resume(SimTime t, std::coroutine_handle<> h) {
    push_word(t, reinterpret_cast<std::uint64_t>(h.address()));
  }

  /// General path: schedule a closure. The `std::function` lands in a
  /// recycled slab slot; the payload word carries the tagged slot index.
  void push_call(SimTime t, std::function<void()> fn) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(fn);
    }
    push_word(t, (static_cast<std::uint64_t>(slot) << 1) | 1u);
  }

  /// Extract the earliest event. Precondition: !empty().
  Entry pop_min() {
    const BucketRef top = heap_.front();
    Bucket& b = buckets_[top.bucket];
    const std::uint64_t w = b.fifo[b.head++];
    if (b.head == b.fifo.size()) {
      // Bucket drained: drop it from the heap, the time-lookup table and
      // back onto the bucket free list (its FIFO keeps its storage).
      pop_heap_root();
      map_erase(top.t.ps());
      b.fifo.clear();
      b.head = 0;
      free_buckets_.push_back(top.bucket);
    }
    --count_;
    Entry e;
    e.t = top.t;
    if (w & 1u) {
      e.slot = static_cast<std::uint32_t>(w >> 1);
    } else {
      e.resume = std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(w));
    }
    return e;
  }

  /// Move the closure out of `slot` and recycle the slot. The function is
  /// extracted *before* invocation so a closure that schedules further
  /// events (growing or reusing the slab) cannot invalidate itself.
  std::function<void()> take_slot(std::uint32_t slot) {
    std::function<void()> fn = std::move(slab_[slot]);
    slab_[slot] = nullptr;
    free_slots_.push_back(slot);
    return fn;
  }

 private:
  /// 4-ary heap entry: one per distinct pending timestamp (times in the
  /// heap are unique, so time alone is the key).
  struct BucketRef {
    SimTime t;
    std::uint32_t bucket = 0;
  };

  struct Bucket {
    std::vector<std::uint64_t> fifo;
    std::uint32_t head = 0;
  };

  /// Open-addressed time -> bucket-index table (linear probing, backward-
  /// shift deletion). Simulated times are non-negative, so kEmptyKey is a
  /// safe sentinel.
  struct MapSlot {
    std::int64_t key = kEmptyKey;
    std::uint32_t bucket = 0;
  };
  static constexpr std::int64_t kEmptyKey = -1;

  static std::size_t hash_key(std::int64_t key) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(key) *
                                    0x9E3779B97F4A7C15ull);
  }

  void push_word(SimTime t, std::uint64_t w) {
    Bucket& b = buckets_[bucket_for(t)];
    b.fifo.push_back(w);
    ++count_;
  }

  /// Bucket for timestamp `t`, creating (and heap-inserting) it if absent.
  std::uint32_t bucket_for(SimTime t) {
    if (map_.empty()) {
      map_grow(16);
    }
    const std::int64_t key = t.ps();
    std::size_t i = hash_key(key) & map_mask_;
    while (map_[i].key != kEmptyKey) {
      if (map_[i].key == key) {
        return map_[i].bucket;
      }
      i = (i + 1) & map_mask_;
    }
    std::uint32_t idx;
    if (free_buckets_.empty()) {
      idx = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      idx = free_buckets_.back();
      free_buckets_.pop_back();
    }
    map_[i] = MapSlot{key, idx};
    ++map_live_;
    push_heap(BucketRef{t, idx});
    // Keep the load factor under ~0.7 (rehash invalidates `i`, but the
    // slot is already written).
    if (map_live_ * 10 > map_.size() * 7) {
      map_grow(map_.size() * 2);
    }
    return idx;
  }

  void map_grow(std::size_t new_cap) {
    std::vector<MapSlot> old = std::move(map_);
    map_.assign(new_cap, MapSlot{});
    map_mask_ = new_cap - 1;
    for (const MapSlot& s : old) {
      if (s.key == kEmptyKey) {
        continue;
      }
      std::size_t i = hash_key(s.key) & map_mask_;
      while (map_[i].key != kEmptyKey) {
        i = (i + 1) & map_mask_;
      }
      map_[i] = s;
    }
  }

  void map_erase(std::int64_t key) {
    std::size_t i = hash_key(key) & map_mask_;
    while (map_[i].key != key) {
      i = (i + 1) & map_mask_;
    }
    // Backward-shift deletion keeps probe chains intact with no
    // tombstones.
    std::size_t j = i;
    for (;;) {
      map_[i].key = kEmptyKey;
      for (;;) {
        j = (j + 1) & map_mask_;
        if (map_[j].key == kEmptyKey) {
          --map_live_;
          return;
        }
        const std::size_t k = hash_key(map_[j].key) & map_mask_;
        // Move map_[j] up unless its ideal slot k lies cyclically in
        // (i, j] — in that case the probe chain is intact without it.
        const bool in_range = i <= j ? (i < k && k <= j) : (i < k || k <= j);
        if (!in_range) {
          break;
        }
      }
      map_[i] = map_[j];
      i = j;
    }
  }

  void push_heap(BucketRef e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (heap_[parent].t <= e.t) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void pop_heap_root() {
    const BucketRef last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) {
      return;
    }
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (heap_[c].t < heap_[best].t) {
          best = c;
        }
      }
      if (heap_[best].t >= last.t) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  std::size_t count_ = 0;
  std::vector<BucketRef> heap_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::vector<MapSlot> map_;
  std::size_t map_mask_ = 0;
  std::size_t map_live_ = 0;
  std::vector<std::function<void()>> slab_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace fpst::sim
