// A fixed number of objects built in place, in one allocation, that never
// move.
//
// Semaphores, channels and events cannot move: suspended processes point
// into their wait queues. So a machine's links, nodes and mailboxes cannot
// live in a std::vector, and holding each behind its own unique_ptr costs
// one allocation per object and scatters them over the heap. A PinnedArray
// builds element i from a factory's prvalue, which C++17 constructs in
// place, so its type needs no move or copy.
#pragma once

#include <cstddef>
#include <new>
#include <stdexcept>
#include <utility>

namespace fpst::sim {

template <typename T>
class PinnedArray {
 public:
  PinnedArray() = default;

  /// Build `n` elements, element i from `make(i)`, in index order.
  template <typename Make>
  PinnedArray(std::size_t n, Make make)
      : data_{n == 0 ? nullptr
                     : static_cast<T*>(::operator new(
                           n * sizeof(T), std::align_val_t{alignof(T)}))} {
    try {
      for (; size_ < n; ++size_) {
        ::new (static_cast<void*>(data_ + size_)) T(make(size_));
      }
    } catch (...) {
      clear();
      throw;
    }
  }

  /// Moving the array hands over its storage; the elements stay put.
  PinnedArray(PinnedArray&& other) noexcept
      : data_{std::exchange(other.data_, nullptr)},
        size_{std::exchange(other.size_, 0)} {}
  PinnedArray& operator=(PinnedArray&& other) noexcept {
    if (this != &other) {
      clear();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~PinnedArray() { clear(); }

  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& at(std::size_t i) {
    if (i >= size_) {
      throw std::out_of_range("PinnedArray::at");
    }
    return data_[i];
  }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  /// Destroy the elements, last first, and free the storage.
  void clear() {
    while (size_ > 0) {
      data_[--size_].~T();
    }
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{alignof(T)});
      data_ = nullptr;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace fpst::sim
