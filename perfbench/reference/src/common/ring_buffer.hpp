// Fixed-capacity circular buffer.
//
// This mirrors the hardware structure the paper uses everywhere: the eFIFO
// queues and the EXBAR routing-information memory are both "proactive
// circular buffers" (§V-B). Capacity is fixed at construction, exactly like
// a synthesized FIFO whose depth is a generic parameter.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace axihc {

template <typename T>
class RingBuffer {
 public:
  /// Creates a buffer holding at most `capacity` elements. A zero-capacity
  /// FIFO is meaningless in hardware and rejected.
  explicit RingBuffer(std::size_t capacity)
      : slots_(capacity) {
    AXIHC_CHECK(capacity > 0);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == slots_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t free_slots() const { return capacity() - size_; }

  /// Appends an element. The caller must have checked `!full()` — pushing
  /// into a full hardware FIFO is a protocol violation, not a resize.
  void push(T value) {
    AXIHC_CHECK_MSG(!full(), "push into full RingBuffer(capacity="
                                 << capacity() << ")");
    slots_[tail_] = std::move(value);
    tail_ = next(tail_);
    ++size_;
  }

  /// Oldest element. Requires `!empty()`.
  [[nodiscard]] const T& front() const {
    AXIHC_CHECK(!empty());
    return slots_[head_];
  }

  [[nodiscard]] T& front() {
    AXIHC_CHECK(!empty());
    return slots_[head_];
  }

  /// Removes and returns the oldest element. Requires `!empty()`.
  T pop() {
    AXIHC_CHECK(!empty());
    T value = std::move(slots_[head_]);
    head_ = next(head_);
    --size_;
    return value;
  }

  /// Element `i` positions behind the head (0 == front). Requires i < size().
  [[nodiscard]] const T& at(std::size_t i) const {
    AXIHC_CHECK(i < size_);
    return slots_[(head_ + i) % slots_.size()];
  }

  /// Drops all contents (hardware reset).
  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) % slots_.size();
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

}  // namespace axihc
