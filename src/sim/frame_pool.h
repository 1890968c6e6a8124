// FramePool: size-bucketed free lists for coroutine frames.
//
// Every simulated kernel function is a Co<> coroutine, so a single syscall
// allocates and frees a handful of frames; under a shootdown storm that is
// millions of round trips through the global allocator. Frames cluster into
// a few dozen distinct sizes per build, so recycling freed frames by size
// bucket turns steady-state frame allocation into a pointer pop.
//
// Buckets are kGranule-wide up to kMaxBucketed bytes; larger frames (rare:
// only coroutines with huge local state) fall through to the global
// allocator. Pools are thread_local — the simulator is single-threaded, and
// this keeps the pool lock-free without assuming it. Pooled memory is
// retained for the life of the thread and released when the thread exits:
// a thread_local Releaser, armed the first time a frame is pushed into an
// empty bucket, frees every bucket from its destructor. A frame freed after
// that goes straight back to the global allocator. Pushing into an empty
// bucket is not rare (an alloc/free ping-pong does it on every free), so it
// checks a plain thread_local bool before it touches the Releaser: access to
// a non-trivially destructible thread_local goes through a TLS wrapper call.
#ifndef TLBSIM_SRC_SIM_FRAME_POOL_H_
#define TLBSIM_SRC_SIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace tlbsim {

class FramePool {
 public:
  struct Stats {
    uint64_t pool_hits;        // allocations served from a free list
    uint64_t pool_misses;      // bucketed allocations that hit the heap
    uint64_t fallback_allocs;  // frames too large for any bucket
  };

  static void* Alloc(std::size_t n) {
    std::size_t b = Bucket(n);
    if (b >= kBuckets) {
      ++stats_.fallback_allocs;
      return ::operator new(n);
    }
    if (Node* node = buckets_[b]) {
      buckets_[b] = node->next;
      ++stats_.pool_hits;
      return node;
    }
    ++stats_.pool_misses;
    return ::operator new((b + 1) * kGranule);
  }

  static void Free(void* p, std::size_t n) noexcept {
    std::size_t b = Bucket(n);
    if (b >= kBuckets) {
      ::operator delete(p, n);
      return;
    }
    if (buckets_[b] == nullptr && !ArmReleaser()) {
      ::operator delete(p, (b + 1) * kGranule);  // thread exit: lists already released
      return;
    }
    Node* node = static_cast<Node*>(p);
    node->next = buckets_[b];
    buckets_[b] = node;
  }

  static const Stats& stats() { return stats_; }

 private:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxBucketed = 4096;
  static constexpr std::size_t kBuckets = kMaxBucketed / kGranule;

  struct Node {
    Node* next;
  };

  static std::size_t Bucket(std::size_t n) {
    return n == 0 ? 0 : (n + kGranule - 1) / kGranule - 1;
  }

  // Frees this thread's free lists when the thread exits.
  struct Releaser {
    bool armed;  // zero-initialized: thread storage duration
    ~Releaser() {
      armed_ = false;
      released_ = true;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        while (Node* node = buckets_[b]) {
          buckets_[b] = node->next;
          ::operator delete(node, (b + 1) * kGranule);
        }
      }
    }
  };

  // Constructs (and so registers the destructor of) this thread's Releaser.
  // False once it has run: the thread is exiting and must not pool.
  static bool ArmReleaser() noexcept {
    if (armed_) {
      return true;
    }
    if (released_) {
      return false;
    }
    releaser_.armed = true;
    armed_ = true;
    return true;
  }

  static inline thread_local Node* buckets_[kBuckets] = {};
  static inline thread_local Stats stats_{};
  static inline thread_local bool armed_ = false;     // releaser_ constructed, not yet run
  static inline thread_local bool released_ = false;  // releaser_ has run
  static inline thread_local Releaser releaser_;
};

// Base class injecting pooled frame allocation into a coroutine promise:
// the compiler looks up operator new/delete on the promise type and uses
// them for the whole frame.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::Alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept { FramePool::Free(p, n); }
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_FRAME_POOL_H_
