#include "src/mm/phys.h"

#include <bit>
#include <cassert>
#include <cstddef>

namespace tlbsim {

void FrameAllocator::FreeBucket::Mark(uint32_t idx) {
  size_t w = idx / 64;
  if (w >= words.size()) {
    words.resize(w + 1, 0);
    summary.resize(w / 64 + 1, 0);
  }
  words[w] |= 1ULL << (idx % 64);
  summary[w / 64] |= 1ULL << (w % 64);
  ++size;
}

void FrameAllocator::FreeBucket::Unmark(uint32_t idx) {
  size_t w = idx / 64;
  assert(w < words.size() && (words[w] >> (idx % 64) & 1) != 0);
  words[w] &= ~(1ULL << (idx % 64));
  if (words[w] == 0) {
    summary[w / 64] &= ~(1ULL << (w % 64));
  }
  --size;
}

uint32_t FrameAllocator::FreeBucket::Lowest() const {
  assert(size > 0);
  size_t s = 0;
  while (summary[s] == 0) {
    ++s;
  }
  size_t w = s * 64 + static_cast<size_t>(std::countr_zero(summary[s]));
  return static_cast<uint32_t>(w * 64 + static_cast<size_t>(std::countr_zero(words[w])));
}

void FrameAllocator::ConfigureNuma(int nodes, NumaPlacement placement) {
  assert(nodes >= 1);
  assert(total_allocs_ == 0 && "ConfigureNuma after first allocation");
  placement_ = placement;
  nodes_.clear();
  for (int n = 0; n < nodes; ++n) {
    nodes_.emplace_back(first_pfn_ + (nodes == 1 ? 0 : static_cast<uint64_t>(n) * kNodeSpan));
  }
}

FrameAllocator::Slot* FrameAllocator::SlotOf(uint64_t pfn) {
  if (pfn < first_pfn_) {
    return nullptr;
  }
  Node& n = nodes_[static_cast<size_t>(NodeOf(pfn))];
  uint64_t off = pfn - n.base;
  return off < n.slots.size() ? &n.slots[off] : nullptr;
}

FrameAllocator::Slot* FrameAllocator::Resolve(uint64_t pfn) {
  Slot* s = SlotOf(pfn);
  if (s == nullptr) {
    return nullptr;
  }
  if (s->frames == 0) {
    s -= s->link;  // interior: step back to the head
  }
  return s->refs > 0 ? s : nullptr;
}

FrameAllocator::FreeBucket* FrameAllocator::FindBucket(int node, uint64_t frames) {
  for (FreeBucket& b : nodes_[static_cast<size_t>(node)].buckets) {
    if (b.frames == frames) {
      return &b;
    }
  }
  return nullptr;
}

FrameAllocator::FreeBucket& FrameAllocator::BucketFor(int node, uint64_t frames) {
  if (FreeBucket* b = FindBucket(node, frames)) {
    return *b;
  }
  FreeBucket& b = nodes_[static_cast<size_t>(node)].buckets.emplace_back();
  b.frames = frames;
  return b;
}

void FrameAllocator::PushFree(uint64_t pfn, uint64_t count) {
  auto idx = static_cast<uint32_t>(free_.size());
  free_.emplace_back(pfn, count);
  BucketFor(NodeOf(pfn), count).Mark(idx);
  SlotOf(pfn)->link = idx;
}

uint64_t FrameAllocator::TakeFreeAt(uint32_t idx) {
  auto [pfn, count] = free_[idx];
  FindBucket(NodeOf(pfn), count)->Unmark(idx);
  auto last = static_cast<uint32_t>(free_.size() - 1);
  if (idx != last) {
    // Legacy swap-with-back removal: the moved entry's index changes.
    auto [mpfn, mcount] = free_[last];
    FreeBucket* moved = FindBucket(NodeOf(mpfn), mcount);
    moved->Unmark(last);
    moved->Mark(idx);
    free_[idx] = free_[last];
    SlotOf(mpfn)->link = idx;
  }
  free_.pop_back();
  SlotOf(pfn)->link = 0;
  return pfn;
}

uint64_t FrameAllocator::AllocOn(int node_hint, uint64_t count) {
  assert(count >= 1 && count <= UINT32_MAX);
  ++total_allocs_;
  int node = 0;
  if (nodes() > 1) {
    switch (placement_) {
      case NumaPlacement::kLocal:
      case NumaPlacement::kFirstTouch:
        node = node_hint;
        break;
      case NumaPlacement::kInterleave:
        node = static_cast<int>(interleave_next_++ % static_cast<uint64_t>(nodes()));
        break;
    }
    assert(node >= 0 && node < nodes());
  }
  Node& n = nodes_[static_cast<size_t>(node)];
  ++n.allocs;
  allocated_frames_ += count;
  FreeBucket* bucket = FindBucket(node, count);
  if (bucket != nullptr && bucket->size > 0) {
    uint64_t pfn = TakeFreeAt(bucket->Lowest());
    SlotOf(pfn)->refs = 1;
    if (reuse_observer_) {
      reuse_observer_(pfn);
    }
    return pfn;
  }
  size_t head = n.slots.size();
  uint64_t pfn = n.base + head;
  n.slots.resize(head + count);
  assert(nodes() == 1 || n.slots.size() <= kNodeSpan);
  n.slots[head] = Slot{1, static_cast<uint32_t>(count), 0};
  for (uint32_t i = 1; i < count; ++i) {
    n.slots[head + i].link = i;
  }
  return pfn;
}

bool FrameAllocator::TryAllocSpecific(uint64_t pfn) {
  Slot* s = SlotOf(pfn);
  if (s == nullptr || s->frames != 1 || s->refs != 0) {
    return false;  // never handed out, interior, multi-frame or allocated
  }
  ++total_allocs_;
  ++nodes_[static_cast<size_t>(NodeOf(pfn))].allocs;
  ++allocated_frames_;
  TakeFreeAt(s->link);
  s->refs = 1;
  return true;
}

void FrameAllocator::Ref(uint64_t pfn) {
  Slot* s = Resolve(pfn);
  assert(s != nullptr && "Ref of unallocated frame");
  if (s == nullptr) {
    return;  // Release-mode: reject instead of resurrecting a free frame
  }
  ++s->refs;
}

uint64_t FrameAllocator::Unref(uint64_t pfn) {
  Slot* s = Resolve(pfn);
  assert(s != nullptr && "Unref of unallocated frame");
  if (s == nullptr) {
    return 0;
  }
  if (--s->refs == 0) {
    allocated_frames_ -= s->frames;
    PushFree(pfn - static_cast<uint64_t>(SlotOf(pfn) - s), s->frames);
    return 0;
  }
  return s->refs;
}

uint64_t FrameAllocator::RefCount(uint64_t pfn) const {
  const Slot* s = Resolve(pfn);
  return s == nullptr ? 0 : s->refs;
}

int FrameAllocator::NodeOf(uint64_t pfn) const {
  if (nodes() == 1 || pfn < first_pfn_) {
    return 0;
  }
  uint64_t node = (pfn - first_pfn_) / kNodeSpan;
  return node < nodes_.size() ? static_cast<int>(node) : nodes() - 1;
}

}  // namespace tlbsim
