// Bounded ring buffer for trace/telemetry records.
//
// Long simulations (checkpoint-interval studies span minutes of simulated
// time) must not accumulate unbounded trace state, so the perf timeline
// stores its records in one of these: a fixed-capacity circular store that
// overwrites the oldest record once full and counts how many were dropped,
// so consumers can tell a complete trace from a truncated one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fpst::sim {

template <typename T>
class RingBuffer {
 public:
  /// A capacity of 0 is clamped to 1 (a ring must hold something).
  explicit RingBuffer(std::size_t capacity)
      : cap_{capacity == 0 ? 1 : capacity} {}

  /// Append, overwriting the oldest element once the ring is full. The
  /// first push reserves the whole capacity, so the store is allocated
  /// once and never copied, and a ring that records nothing allocates
  /// nothing.
  void push(T value) {
    if (buf_.size() < cap_) {
      if (buf_.capacity() < cap_) {
        buf_.reserve(cap_);
      }
      buf_.push_back(std::move(value));
      return;
    }
    buf_[head_] = std::move(value);
    if (++head_ == cap_) {
      head_ = 0;
    }
    ++dropped_;
  }

  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return buf_.empty(); }
  /// Elements overwritten so far (0 while the trace is still complete).
  std::uint64_t dropped() const { return dropped_; }

  /// Element `i` in insertion order: 0 is the oldest retained record.
  /// Throws std::out_of_range for i >= size(); in particular indexing an
  /// empty ring must not reach the modulo below (division by zero is UB).
  const T& operator[](std::size_t i) const {
    if (i >= buf_.size()) {
      throw std::out_of_range("RingBuffer::operator[]: index out of range");
    }
    std::size_t idx = head_ + i;
    if (idx >= buf_.size()) {
      idx -= buf_.size();
    }
    return buf_[idx];
  }

  /// Retained elements, oldest first.
  std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      out.push_back((*this)[i]);
    }
    return out;
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t cap_;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<T> buf_;
};

}  // namespace fpst::sim
