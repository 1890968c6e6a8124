// FixedVec: a vector with inline, fixed-capacity storage.
//
// The per-shootdown lists (target cpus, batched flush infos) have small hard
// bounds: kMaxCpus targets, PerCpu::kBatchSlots infos. Holding them inline —
// in a coroutine frame, which FramePool recycles, or in a CFD — keeps
// std::vector's heap round trip off the per-IPI path. The contiguous
// begin()/end() make a FixedVec convert to std::span<const T>, the type the
// APIC and tlbcheck interfaces take.
#ifndef TLBSIM_SRC_SIM_FIXED_VEC_H_
#define TLBSIM_SRC_SIM_FIXED_VEC_H_

#include <cassert>
#include <cstddef>

namespace tlbsim {

template <typename T, size_t N>
class FixedVec {
 public:
  FixedVec() = default;
  // Copies [first, last), which must fit.
  template <typename It>
  FixedVec(It first, It last) {
    for (; first != last; ++first) {
      push_back(*first);
    }
  }

  void push_back(const T& v) {
    assert(size_ < N && "FixedVec capacity exceeded");
    items_[size_++] = v;
  }
  void clear() { size_ = 0; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& front() const { return items_[0]; }

  T* begin() { return items_; }
  T* end() { return items_ + size_; }
  const T* begin() const { return items_; }
  const T* end() const { return items_ + size_; }
  T* data() { return items_; }
  const T* data() const { return items_; }

 private:
  T items_[N];
  size_t size_ = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_FIXED_VEC_H_
