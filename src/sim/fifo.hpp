// A first-in first-out queue that allocates nothing while it has never
// held anything.
//
// libstdc++'s std::deque allocates a map and a 512-byte node even when it
// is empty. Every node's control processor keeps four queues that most
// runs never use (no serve program runs TISA code), so a Fifo is a ring
// over a vector whose capacity doubles when it is full.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace fpst::sim {

template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }

  void push_back(T v) {
    grow();
    ring_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }

  /// Queue `v` ahead of everything already queued.
  void push_front(T v) {
    grow();
    head_ = wrap(head_ + ring_.size() - 1);
    ring_[head_] = std::move(v);
    ++size_;
  }

  /// Remove and return the oldest element; the queue must not be empty.
  T pop_front() {
    T v = std::move(ring_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

 private:
  /// An index below twice the capacity, folded into the ring.
  std::size_t wrap(std::size_t i) const {
    return i < ring_.size() ? i : i - ring_.size();
  }

  void grow() {
    if (size_ < ring_.size()) {
      return;
    }
    std::vector<T> next(ring_.empty() ? 4 : 2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(ring_[wrap(head_ + i)]);
    }
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fpst::sim
