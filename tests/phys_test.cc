// FrameAllocator: alloc/free, refcounting, reuse.
#include "src/mm/phys.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace tlbsim {
namespace {

TEST(FrameAllocatorTest, AllocReturnsDistinctFrames) {
  FrameAllocator fa;
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(seen.insert(fa.Alloc()).second);
  }
  EXPECT_EQ(fa.allocated_frames(), 100u);
}

TEST(FrameAllocatorTest, FreshFrameHasRefcountOne) {
  FrameAllocator fa;
  uint64_t pfn = fa.Alloc();
  EXPECT_EQ(fa.RefCount(pfn), 1u);
  EXPECT_TRUE(fa.IsAllocated(pfn));
}

TEST(FrameAllocatorTest, RefUnrefCycle) {
  FrameAllocator fa;
  uint64_t pfn = fa.Alloc();
  fa.Ref(pfn);
  fa.Ref(pfn);
  EXPECT_EQ(fa.RefCount(pfn), 3u);
  EXPECT_EQ(fa.Unref(pfn), 2u);
  EXPECT_EQ(fa.Unref(pfn), 1u);
  EXPECT_EQ(fa.Unref(pfn), 0u);
  EXPECT_FALSE(fa.IsAllocated(pfn));
}

TEST(FrameAllocatorTest, FreedFrameIsReused) {
  FrameAllocator fa;
  uint64_t pfn = fa.Alloc();
  fa.Unref(pfn);
  EXPECT_EQ(fa.Alloc(), pfn);
}

TEST(FrameAllocatorTest, HugeAllocationSpansFrames) {
  FrameAllocator fa;
  uint64_t a = fa.Alloc(512);  // 2MB worth of 4K frames
  uint64_t b = fa.Alloc();
  EXPECT_GE(b, a + 512);
  EXPECT_EQ(fa.allocated_frames(), 513u);
}

TEST(FrameAllocatorTest, HugeFreeListMatchesBySize) {
  FrameAllocator fa;
  uint64_t huge = fa.Alloc(512);
  fa.Unref(huge);
  uint64_t small = fa.Alloc(1);
  EXPECT_NE(small, huge);  // 512-frame block not split for a 1-frame request
  uint64_t huge2 = fa.Alloc(512);
  EXPECT_EQ(huge2, huge);
}

TEST(FrameAllocatorTest, RefCountOfUnknownIsZero) {
  FrameAllocator fa;
  EXPECT_EQ(fa.RefCount(0xdead), 0u);
  EXPECT_FALSE(fa.IsAllocated(0xdead));
}

TEST(FrameAllocatorTest, TotalAllocsMonotone) {
  FrameAllocator fa;
  fa.Alloc();
  uint64_t p = fa.Alloc();
  fa.Unref(p);
  fa.Alloc();
  EXPECT_EQ(fa.total_allocs(), 3u);
}

// Regression: interior pfns of a multi-frame allocation used to miss refs_
// entirely — Ref() grew a phantom record and Unref() read an uninitialized
// one (UB in Release builds). All of them must resolve to the head record.
TEST(FrameAllocatorTest, InteriorPfnResolvesToHeadRecord) {
  FrameAllocator fa;
  uint64_t head = fa.Alloc(512);
  EXPECT_TRUE(fa.IsAllocated(head + 7));
  EXPECT_TRUE(fa.IsAllocated(head + 511));
  EXPECT_FALSE(fa.IsAllocated(head + 512));
  EXPECT_EQ(fa.RefCount(head + 255), 1u);

  fa.Ref(head + 7);  // CoW share via an interior pfn
  EXPECT_EQ(fa.RefCount(head), 2u);
  EXPECT_EQ(fa.RefCount(head + 511), 2u);

  EXPECT_EQ(fa.Unref(head + 300), 1u);
  EXPECT_EQ(fa.Unref(head + 3), 0u);  // frees the whole allocation
  EXPECT_FALSE(fa.IsAllocated(head));
  EXPECT_FALSE(fa.IsAllocated(head + 511));
  EXPECT_EQ(fa.allocated_frames(), 0u);
}

TEST(FrameAllocatorTest, InteriorPfnOfFreedHugeBlockIsUnknown) {
  FrameAllocator fa;
  uint64_t head = fa.Alloc(512);
  uint64_t next = fa.Alloc();  // survives the huge free
  fa.Unref(head + 100);
  EXPECT_EQ(fa.RefCount(head + 100), 0u);
  EXPECT_TRUE(fa.IsAllocated(next));
}

// The O(1) free-index rewrite must keep the legacy reuse order bit-identical:
// the old linear scan took the lowest matching index and removed it by
// swapping the back entry in, so freeing a,b,c replays as a,c,b.
TEST(FrameAllocatorTest, ReuseOrderMatchesLegacyFreeList) {
  FrameAllocator fa;
  uint64_t a = fa.Alloc();
  uint64_t b = fa.Alloc();
  uint64_t c = fa.Alloc();
  fa.Unref(a);
  fa.Unref(b);
  fa.Unref(c);
  EXPECT_EQ(fa.Alloc(), a);  // [a,b,c]: lowest index
  EXPECT_EQ(fa.Alloc(), c);  // swap-with-back left [c,b]
  EXPECT_EQ(fa.Alloc(), b);
}

TEST(FrameAllocatorTest, MixedSizeChurnReusesExactBlocks) {
  FrameAllocator fa;
  uint64_t small1 = fa.Alloc();
  uint64_t huge = fa.Alloc(512);
  uint64_t small2 = fa.Alloc();
  fa.Unref(huge);
  fa.Unref(small1);
  fa.Unref(small2);
  EXPECT_EQ(fa.Alloc(512), huge);  // size-matched despite later small frees
  // Taking the huge block swapped small2 into index 0.
  EXPECT_EQ(fa.Alloc(), small2);
  EXPECT_EQ(fa.Alloc(), small1);
  EXPECT_EQ(fa.allocated_frames(), 514u);
}

TEST(FrameAllocatorTest, NumaNodesOwnDisjointRanges) {
  FrameAllocator fa;
  fa.ConfigureNuma(2, NumaPlacement::kLocal);
  EXPECT_EQ(fa.nodes(), 2);
  uint64_t on0 = fa.AllocOn(0);
  uint64_t on1 = fa.AllocOn(1);
  EXPECT_EQ(fa.NodeOf(on0), 0);
  EXPECT_EQ(fa.NodeOf(on1), 1);
  EXPECT_NE(fa.NodeOf(on0), fa.NodeOf(on1));
  EXPECT_EQ(fa.node_allocs(0), 1u);
  EXPECT_EQ(fa.node_allocs(1), 1u);
}

TEST(FrameAllocatorTest, LocalPlacementFollowsHint) {
  FrameAllocator fa;
  fa.ConfigureNuma(2, NumaPlacement::kLocal);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fa.NodeOf(fa.AllocOn(1)), 1);
  }
  EXPECT_EQ(fa.node_allocs(1), 8u);
  EXPECT_EQ(fa.node_allocs(0), 0u);
}

TEST(FrameAllocatorTest, InterleavePlacementIgnoresHint) {
  FrameAllocator fa;
  fa.ConfigureNuma(2, NumaPlacement::kInterleave);
  // Round-robin regardless of the (constant) hint.
  EXPECT_EQ(fa.NodeOf(fa.AllocOn(0)), 0);
  EXPECT_EQ(fa.NodeOf(fa.AllocOn(0)), 1);
  EXPECT_EQ(fa.NodeOf(fa.AllocOn(0)), 0);
  EXPECT_EQ(fa.NodeOf(fa.AllocOn(0)), 1);
  EXPECT_EQ(fa.node_allocs(0), 2u);
  EXPECT_EQ(fa.node_allocs(1), 2u);
}

TEST(FrameAllocatorTest, NumaFreeListIsPerNode) {
  FrameAllocator fa;
  fa.ConfigureNuma(2, NumaPlacement::kLocal);
  uint64_t on1 = fa.AllocOn(1);
  fa.Unref(on1);
  // A node-0 request must not steal node 1's freed frame.
  uint64_t on0 = fa.AllocOn(0);
  EXPECT_EQ(fa.NodeOf(on0), 0);
  // The node-1 request reuses it.
  EXPECT_EQ(fa.AllocOn(1), on1);
}

TEST(FrameAllocatorTest, FlatDefaultKeepsLegacySequence) {
  FrameAllocator legacy;
  FrameAllocator flat;
  flat.ConfigureNuma(1, NumaPlacement::kLocal);  // idempotent no-op
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(flat.AllocOn(0), legacy.Alloc());
  }
  EXPECT_EQ(flat.NodeOf(flat.Alloc()), 0);
}

// The legacy allocator, kept as the reference the flat tables must replay:
// refcount records in an ordered map keyed by head pfn, and a free list
// searched linearly for the lowest index of the requested (node, count),
// removed by swapping the back entry in.
class LegacyFrames {
 public:
  static constexpr uint64_t kFirstPfn = 0x1000;
  static constexpr uint64_t kNodeSpan = 1ULL << 24;

  void ConfigureNuma(int nodes, NumaPlacement placement) {
    placement_ = placement;
    next_.assign(static_cast<size_t>(nodes), 0);
    allocs_.assign(static_cast<size_t>(nodes), 0);
    for (int n = 0; n < nodes; ++n) {
      next_[static_cast<size_t>(n)] = kFirstPfn + (nodes == 1 ? 0 : n * kNodeSpan);
    }
  }

  uint64_t AllocOn(int hint, uint64_t count) {
    ++total_;
    int node = 0;
    if (nodes() > 1) {
      node = placement_ == NumaPlacement::kInterleave
                 ? static_cast<int>(interleave_++ % static_cast<uint64_t>(nodes()))
                 : hint;
    }
    ++allocs_[static_cast<size_t>(node)];
    for (size_t i = 0; i < free_.size(); ++i) {
      if (NodeOf(free_[i].first) == node && free_[i].second == count) {
        uint64_t pfn = Take(i);
        refs_[pfn] = {1, count};
        reused.push_back(pfn);
        return pfn;
      }
    }
    uint64_t pfn = next_[static_cast<size_t>(node)];
    next_[static_cast<size_t>(node)] += count;
    refs_[pfn] = {1, count};
    return pfn;
  }

  bool TryAllocSpecific(uint64_t pfn) {
    for (size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].first == pfn && free_[i].second == 1) {
        ++total_;
        ++allocs_[static_cast<size_t>(NodeOf(pfn))];
        Take(i);
        refs_[pfn] = {1, 1};
        return true;
      }
    }
    return false;
  }

  void Ref(uint64_t pfn) { ++Resolve(pfn)->second.first; }

  uint64_t Unref(uint64_t pfn) {
    auto it = Resolve(pfn);
    if (--it->second.first > 0) {
      return it->second.first;
    }
    free_.emplace_back(it->first, it->second.second);
    refs_.erase(it);
    return 0;
  }

  uint64_t RefCount(uint64_t pfn) {
    auto it = Resolve(pfn);
    return it == refs_.end() ? 0 : it->second.first;
  }
  bool IsAllocated(uint64_t pfn) { return Resolve(pfn) != refs_.end(); }

  int NodeOf(uint64_t pfn) const {
    if (nodes() == 1 || pfn < kFirstPfn) {
      return 0;
    }
    uint64_t node = (pfn - kFirstPfn) / kNodeSpan;
    return node < next_.size() ? static_cast<int>(node) : nodes() - 1;
  }

  int nodes() const { return static_cast<int>(next_.size()); }
  uint64_t allocated_frames() const {
    uint64_t n = 0;
    for (const auto& [pfn, rec] : refs_) {
      n += rec.second;
    }
    return n;
  }
  uint64_t total_allocs() const { return total_; }
  uint64_t node_allocs(int node) const { return allocs_[static_cast<size_t>(node)]; }
  uint64_t bump(int node) const { return next_[static_cast<size_t>(node)]; }

  std::vector<uint64_t> reused;  // reuse-observer calls, in order

 private:
  using RefMap = std::map<uint64_t, std::pair<uint64_t, uint64_t>>;  // head -> (refs, count)

  RefMap::iterator Resolve(uint64_t pfn) {
    auto it = refs_.upper_bound(pfn);
    if (it == refs_.begin()) {
      return refs_.end();
    }
    --it;
    return pfn < it->first + it->second.second ? it : refs_.end();
  }

  uint64_t Take(size_t i) {
    uint64_t pfn = free_[i].first;
    free_[i] = free_.back();
    free_.pop_back();
    return pfn;
  }

  RefMap refs_;
  std::vector<std::pair<uint64_t, uint64_t>> free_;
  std::vector<uint64_t> next_{kFirstPfn};
  std::vector<uint64_t> allocs_{0};
  NumaPlacement placement_ = NumaPlacement::kLocal;
  uint64_t interleave_ = 0;
  uint64_t total_ = 0;
};

// Drives FrameAllocator and LegacyFrames through one seeded mix of every
// mutating call and checks, after each call, that both return the same
// values, agree on refcounts and allocation state for head, interior, freed
// and never-allocated pfns, and fire the same reuse-observer calls.
void RunDifferential(int nodes, NumaPlacement placement, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "nodes=" << nodes << " placement="
                                    << NumaPlacementName(placement) << " seed=" << seed);
  FrameAllocator fa;
  LegacyFrames ref;
  if (nodes > 1) {
    fa.ConfigureNuma(nodes, placement);
  }
  ref.ConfigureNuma(nodes, placement);
  std::vector<uint64_t> observed;
  fa.set_reuse_observer([&observed](uint64_t pfn) { observed.push_back(pfn); });

  std::mt19937_64 rng(seed);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<std::pair<uint64_t, uint64_t>> live;  // (head, count), one entry per reference
  std::set<std::pair<uint64_t, uint64_t>> ever;     // every (head, count) handed out
  auto any_pfn_of = [&](const std::pair<uint64_t, uint64_t>& a) {
    return a.first + (a.second == 1 || rng() % 2 == 0 ? 0 : 1 + pick(a.second - 1));
  };
  auto note_alloc = [&](uint64_t pfn, uint64_t count) {
    live.emplace_back(pfn, count);
    ever.emplace(pfn, count);
  };

  auto compare_state = [&](int step) {
    ASSERT_EQ(fa.allocated_frames(), ref.allocated_frames()) << "step " << step;
    ASSERT_EQ(fa.total_allocs(), ref.total_allocs()) << "step " << step;
    for (int n = 0; n < nodes; ++n) {
      ASSERT_EQ(fa.node_allocs(n), ref.node_allocs(n)) << "step " << step;
    }
    ASSERT_EQ(observed, ref.reused) << "step " << step;
    std::vector<uint64_t> probes = {0, LegacyFrames::kFirstPfn - 1, ~0ULL};
    for (int n = 0; n < nodes; ++n) {
      probes.push_back(ref.bump(n));       // first never-allocated pfn of the node
      probes.push_back(ref.bump(n) + 600);  // well past it
    }
    if (!ever.empty()) {
      auto it = ever.begin();
      std::advance(it, static_cast<long>(pick(ever.size())));
      probes.push_back(it->first);            // head, live or freed
      probes.push_back(any_pfn_of(*it));      // interior when multi-frame
      probes.push_back(it->first + it->second - 1);
    }
    for (uint64_t pfn : probes) {
      ASSERT_EQ(fa.RefCount(pfn), ref.RefCount(pfn)) << "step " << step << " pfn " << pfn;
      ASSERT_EQ(fa.IsAllocated(pfn), ref.IsAllocated(pfn)) << "step " << step << " pfn " << pfn;
      ASSERT_EQ(fa.NodeOf(pfn), ref.NodeOf(pfn)) << "step " << step << " pfn " << pfn;
    }
  };

  constexpr int kSteps = 6000;
  for (int step = 0; step < kSteps; ++step) {
    // Phases bias the mix so the free list alternately deepens and drains.
    bool draining = (step / 500) % 2 == 1;
    int op = static_cast<int>(pick(100));
    uint64_t count = pick(8) == 0 ? 512 : 1;
    if (op < (draining ? 15 : 35)) {
      int hint = static_cast<int>(pick(static_cast<size_t>(nodes)));
      uint64_t got = fa.AllocOn(hint, count);
      ASSERT_EQ(got, ref.AllocOn(hint, count)) << "step " << step;
      note_alloc(got, count);
    } else if (op < (draining ? 20 : 45)) {
      uint64_t got = fa.Alloc(count);
      ASSERT_EQ(got, ref.AllocOn(0, count)) << "step " << step;
      note_alloc(got, count);
    } else if (op < 55) {
      if (live.empty()) {
        continue;
      }
      uint64_t pfn = any_pfn_of(live[pick(live.size())]);
      fa.Ref(pfn);
      ref.Ref(pfn);
      for (const auto& a : live) {
        if (pfn >= a.first && pfn < a.first + a.second) {
          live.push_back(a);
          break;
        }
      }
    } else if (op < 85) {
      if (live.empty()) {
        continue;
      }
      size_t i = pick(live.size());
      uint64_t pfn = any_pfn_of(live[i]);
      live[i] = live.back();
      live.pop_back();
      ASSERT_EQ(fa.Unref(pfn), ref.Unref(pfn)) << "step " << step;
    } else {
      // A freed, live, interior or never-allocated pfn.
      uint64_t pfn = ref.bump(0) + pick(4);
      if (!ever.empty() && pick(4) != 0) {
        auto it = ever.begin();
        std::advance(it, static_cast<long>(pick(ever.size())));
        pfn = any_pfn_of(*it);
      }
      bool got = fa.TryAllocSpecific(pfn);
      ASSERT_EQ(got, ref.TryAllocSpecific(pfn)) << "step " << step << " pfn " << pfn;
      if (got) {
        note_alloc(pfn, 1);
      }
    }
    compare_state(step);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(observed.size(), 100u);  // the mix really recycled frames
}

TEST(FrameAllocatorTest, DifferentialAgainstLegacyAllocator) {
  const NumaPlacement kPlacements[] = {NumaPlacement::kLocal, NumaPlacement::kFirstTouch,
                                       NumaPlacement::kInterleave};
  for (uint64_t seed : {1ULL, 104729ULL}) {
    RunDifferential(1, NumaPlacement::kLocal, seed);
    for (NumaPlacement placement : kPlacements) {
      RunDifferential(3, placement, seed);
    }
  }
}

}  // namespace
}  // namespace tlbsim
