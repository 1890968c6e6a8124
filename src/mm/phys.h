// Physical frame allocator with reference counting (for CoW sharing).
//
// Frames carry no data; the simulator only needs identity + refcounts.
//
// Bookkeeping is flat. Every memory node owns a slot table indexed by pfn
// offset that covers the node's bump-allocated range. A multi-frame
// (huge-page) allocation keeps its refcount and frame count in the head
// slot; each interior slot records its distance back to the head, so
// Ref/Unref/RefCount/IsAllocated resolve any pfn with one array index. A
// range handed out by the bump pointer keeps its (head, count) shape for
// life: freed allocations are only ever reused whole, at the same count.
//
// Free allocations sit on one `free_` list in the legacy order (push_back on
// free, swap-with-back removal), and a per-(node, count) bucket marks their
// `free_` indices in a two-level bitset. Alloc takes the lowest marked index
// — the entry the old linear scan found first — so every pfn, and with it
// every data-line address, matches the legacy allocator. A free head slot
// remembers its `free_` index, which makes TryAllocSpecific O(1). In steady
// state (tables, bitsets and `free_` at their final capacity) an
// alloc/free cycle never reaches the heap.
//
// NUMA (src/mm/numa.h): after ConfigureNuma(n > 1), each node owns a disjoint
// pfn range and AllocOn places allocations per the configured policy. The
// default single-node setup hands out exactly the legacy pfn sequence.
#ifndef TLBSIM_SRC_MM_PHYS_H_
#define TLBSIM_SRC_MM_PHYS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/mm/numa.h"

namespace tlbsim {

class FrameAllocator {
 public:
  // `first_pfn` reserves a low range (e.g. for "kernel image" frames).
  explicit FrameAllocator(uint64_t first_pfn = 0x1000) : first_pfn_(first_pfn) {
    nodes_.emplace_back(first_pfn);
  }

  // Splits the pfn space into per-node ranges. Must be called before the
  // first allocation (typically by the kernel at construction, from
  // MachineConfig::numa). Idempotent for the default single-node setup.
  void ConfigureNuma(int nodes, NumaPlacement placement);

  // Allocates one frame with refcount 1 on node 0. `count` contiguous frames
  // for huge pages (returns the first pfn; all share the head's refcount).
  uint64_t Alloc(uint64_t count = 1) { return AllocOn(0, count); }

  // Node-aware allocation: `node_hint` is the requesting CPU's node; the
  // placement policy decides the actual node (kInterleave ignores the hint).
  uint64_t AllocOn(int node_hint, uint64_t count = 1);

  // Claims one specific free single-frame allocation (Optimization #7: the
  // fault path asks for the exact frame a reuse record promises, the
  // per-CPU-cache affinity real allocators give such refaults). Returns
  // false when `pfn` is not free as a single frame; on success the frame is
  // allocated with refcount 1. Never fires the reuse observer — the caller
  // IS the reuse consult.
  bool TryAllocSpecific(uint64_t pfn);

  // Increments the sharing count (fork/CoW). Interior pfns of a multi-frame
  // allocation resolve to the head slot.
  void Ref(uint64_t pfn);

  // Drops a reference; frees the whole allocation when it reaches zero.
  // Returns the refcount after the drop.
  uint64_t Unref(uint64_t pfn);

  uint64_t RefCount(uint64_t pfn) const;
  bool IsAllocated(uint64_t pfn) const { return Resolve(pfn) != nullptr; }

  // Memory node holding `pfn` (0 when NUMA-flat).
  int NodeOf(uint64_t pfn) const;

  // Reuse hook (Optimization #7): invoked with the head pfn whenever a
  // previously-freed allocation is handed out again from the free list.
  // Fresh bump-pointer frames never fire it — only recycled ones can carry
  // stale TLB state. Unset (the default) costs nothing on the alloc path.
  void set_reuse_observer(std::function<void(uint64_t)> cb) { reuse_observer_ = std::move(cb); }

  int nodes() const { return static_cast<int>(nodes_.size()); }
  uint64_t allocated_frames() const { return allocated_frames_; }
  uint64_t total_allocs() const { return total_allocs_; }
  uint64_t node_allocs(int node) const { return nodes_.at(static_cast<size_t>(node)).allocs; }

 private:
  // One per pfn of a node's bump-allocated range.
  struct Slot {
    uint64_t refs = 0;    // head: live references, 0 while free
    uint32_t frames = 0;  // head: frames in the allocation; 0 on interior slots
    uint32_t link = 0;    // head while free: index in free_; interior: pfns back to head
  };

  // The `free_` indices of one (node, frame count): a bit per index, and a
  // summary bit per nonzero word, so the lowest index is two scans away.
  struct FreeBucket {
    uint64_t frames = 0;
    uint64_t size = 0;  // marked indices
    std::vector<uint64_t> words;
    std::vector<uint64_t> summary;

    void Mark(uint32_t idx);
    void Unmark(uint32_t idx);
    uint32_t Lowest() const;  // precondition: size > 0
  };

  struct Node {
    explicit Node(uint64_t base_pfn) : base(base_pfn) {}
    uint64_t base;  // first pfn of the node's range
    uint64_t allocs = 0;
    // pfn base + i -> slots[i]; base + slots.size() is the bump pointer.
    std::vector<Slot> slots;
    std::vector<FreeBucket> buckets;  // one per frame count ever freed here
  };

  // Per-node pfn span. Generous: the simulator allocates thousands of
  // frames, not millions.
  static constexpr uint64_t kNodeSpan = 1ULL << 24;

  // Slot of `pfn` itself (head or interior), or null beyond any bump range.
  Slot* SlotOf(uint64_t pfn);
  const Slot* SlotOf(uint64_t pfn) const {
    return const_cast<FrameAllocator*>(this)->SlotOf(pfn);
  }
  // Head slot of the live allocation covering `pfn`, or null.
  Slot* Resolve(uint64_t pfn);
  const Slot* Resolve(uint64_t pfn) const {
    return const_cast<FrameAllocator*>(this)->Resolve(pfn);
  }

  // Bucket for (node, frames); Find returns null when none exists yet.
  FreeBucket* FindBucket(int node, uint64_t frames);
  FreeBucket& BucketFor(int node, uint64_t frames);

  // Free-list maintenance in the legacy order (see the header comment).
  void PushFree(uint64_t pfn, uint64_t count);
  uint64_t TakeFreeAt(uint32_t idx);

  std::vector<Node> nodes_;
  std::function<void(uint64_t)> reuse_observer_;
  std::vector<std::pair<uint64_t, uint64_t>> free_;  // (head pfn, count) free list
  uint64_t first_pfn_;
  NumaPlacement placement_ = NumaPlacement::kLocal;
  uint64_t interleave_next_ = 0;  // deterministic round-robin cursor
  uint64_t total_allocs_ = 0;
  uint64_t allocated_frames_ = 0;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_MM_PHYS_H_
