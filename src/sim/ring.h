// Growable FIFO ring with recycled slots.
//
// Backs the two queues whose elements are appended in order and retired from
// the front: the event queue's sorted runs and FRAGMENT's send cache. The
// capacity is a power of two, so the logical-to-physical index is one mask.
//
// Slots are recycled, not destroyed: PopFront() only moves the front, and
// PushBack() hands back the slot at the new back exactly as it was last left
// (default-constructed the first time). A slot that owns a buffer therefore
// keeps its capacity from one use to the next; the caller overwrites what it
// reads.

#ifndef XK_SRC_SIM_RING_H_
#define XK_SRC_SIM_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace xk {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Element `i` counted from the front.
  T& operator[](size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](size_t i) const { return slots_[(head_ + i) & mask_]; }
  const T& front() const { return slots_[head_]; }
  const T& back() const { return (*this)[size_ - 1]; }

  // Appends a slot and returns it (see the reuse contract above).
  T& PushBack() {
    if (size_ == slots_.size()) {
      Grow();
    }
    return (*this)[size_++];
  }

  void PopFront() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  // Keeps the first `n` elements; the rest become recycled slots.
  void Truncate(size_t n) { size_ = n; }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 16 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move((*this)[i]);
    }
    slots_.swap(bigger);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_SIM_RING_H_
