#include "src/hw/tlb.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace tlbsim {

namespace {

uint64_t VpnOf(uint64_t va, PageSize s) { return va >> ShiftOf(s); }

// Calls fn(way) for each set bit of `mask`, lowest way first.
template <typename Fn>
void ForEachWay(uint32_t mask, Fn&& fn) {
  for (; mask != 0; mask &= mask - 1) {
    fn(std::countr_zero(mask));
  }
}

}  // namespace

void Tlb::Array::Init(int num_sets, int num_ways) {
  if (num_sets < 1 || !std::has_single_bit(static_cast<unsigned>(num_sets)) ||
      num_ways < 1 || num_ways > kMaxWays) {
    std::fprintf(stderr,
                 "tlbsim: TLB geometry %d sets x %d ways; sets must be a power of two and "
                 "ways at most %d (the valid-mask width)\n",
                 num_sets, num_ways, kMaxWays);
    std::abort();
  }
  sets = num_sets;
  ways = num_ways;
  size_t n = static_cast<size_t>(num_sets) * static_cast<size_t>(num_ways);
  slots = std::make_unique_for_overwrite<Slot[]>(n);
#ifndef NDEBUG
  std::memset(static_cast<void*>(slots.get()), 0xA5, n * sizeof(Slot));
#endif
  valid.assign(static_cast<size_t>(num_sets), 0);
}

Tlb::Tlb(const TlbGeometry& geo) {
  static_assert(std::is_trivially_default_constructible_v<Slot>);
  arr_4k_.Init(geo.sets_4k, geo.ways_4k);
  arr_2m_.Init(geo.sets_2m, geo.ways_2m);
}

std::optional<TlbEntry> Tlb::Lookup(uint16_t pcid, uint64_t va) {
  // Fast path: same page, same PCID, nothing mutated since the arm. The full
  // scan would restamp exactly the armed slot (uniqueness was established at
  // arm time and no mutation can have added or killed a match since), so
  // short-circuit to it. Restamps keep the cache armed: they only raise
  // stamps, never move flush marks or change which slots match.
  if (fast_slot_ != nullptr && fast_gen_ == mut_gen_ && pcid == fast_pcid_ &&
      (va >> fast_shift_) == fast_vpn_) {
    ++stats_.lookups;
    ++stats_.hits;
    ++stats_.fastpath_hits;
    fast_slot_->stamp = ++clock_;
    return fast_slot_->entry();
  }
  ++stats_.lookups;
  auto r = Probe(pcid, va);
  if (r.has_value()) {
    ++stats_.hits;
    // Refresh LRU stamp. A live entry's new stamp is newer than every flush
    // mark by construction, so refreshing never resurrects anything.
    Slot* match = nullptr;
    int matches = 0;
    int match_shift = 0;
    for (PageSize s : {PageSize::k4K, PageSize::k2M}) {
      if (Skip2M(s)) continue;
      uint64_t vpn = VpnOf(va, s);
      const Array& arr = ArrayFor(s);
      int set = arr.SetOf(vpn);
      Slot* base = arr.Set(set);
      ForEachWay(arr.valid[static_cast<size_t>(set)], [&](int w) {
        Slot& slot = base[w];
        if (IsLive(slot) && slot.entry().vpn == vpn &&
            (slot.entry().global || slot.entry().pcid == pcid)) {
          slot.stamp = ++clock_;
          match = &slot;
          ++matches;
          match_shift = ShiftOf(s);
        }
      });
    }
    // Arm only on a unique match: with two matches (e.g. a global and a
    // non-global entry, or a 4K entry under a 2M one) the scan restamps
    // both, which the one-slot fast hit cannot reproduce.
    if (matches == 1) {
      fast_slot_ = match;
      fast_vpn_ = va >> match_shift;
      fast_pcid_ = pcid;
      fast_shift_ = match_shift;
      fast_gen_ = mut_gen_;
    } else {
      fast_slot_ = nullptr;
    }
  } else {
    ++stats_.misses;
    fast_slot_ = nullptr;
  }
  return r;
}

std::optional<TlbEntry> Tlb::Probe(uint16_t pcid, uint64_t va) const {
  for (PageSize s : {PageSize::k4K, PageSize::k2M}) {
    if (Skip2M(s)) continue;
    uint64_t vpn = VpnOf(va, s);
    const Array& arr = ArrayFor(s);
    int set = arr.SetOf(vpn);
    const Slot* base = arr.Set(set);
    for (uint32_t bits = arr.valid[static_cast<size_t>(set)]; bits != 0; bits &= bits - 1) {
      const Slot& slot = base[std::countr_zero(bits)];
      if (IsLive(slot) && slot.entry().vpn == vpn &&
          (slot.entry().global || slot.entry().pcid == pcid)) {
        return slot.entry();
      }
    }
  }
  return std::nullopt;
}

void Tlb::Insert(const TlbEntry& e) {
  ++mut_gen_;  // disarm the fast path: this may evict or shadow the armed entry
  if (observer_ != nullptr) {
    observer_->OnTlbInsert(e);
  }
  ++stats_.inserts;
  if (!e.global) {
    GrowPcidArrays(e.pcid);
  }
  Array& arr = ArrayFor(e.size);
  int set = arr.SetOf(e.vpn);
  Slot* base = arr.Set(set);
  uint16_t& valid = arr.valid[static_cast<size_t>(set)];
  // Victim preference: a stale duplicate, else the first dead way in way
  // order (invalid, or valid but epoch-dead), else LRU among live ways.
  // Epoch-dead slots count as dead here, which keeps victim choice identical
  // to the eager-invalidate scheme. Only ways whose valid bit is set are read.
  int victim = -1;
  int lru = -1;
  uint64_t lru_stamp = UINT64_MAX;
  uint32_t live = 0;
  // Visits way w; true once a stale duplicate is found (the scan stops).
  auto visit = [&](int w) {
    const Slot& slot = base[w];
    if (!IsLive(slot)) return false;
    if (slot.entry().vpn == e.vpn && slot.entry().pcid == e.pcid) {
      victim = w;  // overwrite stale duplicate
      return true;
    }
    live |= 1u << w;
    if (slot.stamp < lru_stamp) {
      lru = w;
      lru_stamp = slot.stamp;
    }
    return false;
  };
  const uint32_t all_ways = (1u << arr.ways) - 1;
  if (valid == all_ways) {
    // Full set, the steady state of a warm TLB: a counted loop, free of the
    // bit walk's dependency on the mask. Same ways, same order.
    for (int w = 0; w < arr.ways && !visit(w); ++w) {
    }
  } else {
    for (uint32_t bits = valid; bits != 0 && !visit(std::countr_zero(bits)); bits &= bits - 1) {
    }
  }
  bool victim_live = true;
  if (victim < 0) {
    uint32_t dead = ~live & all_ways;
    victim_live = dead == 0;
    victim = victim_live ? lru : std::countr_zero(dead);
  }
  Slot& v = base[victim];
  if (victim_live) {
    ++stats_.evictions;
    if (v.entry().pcid != e.pcid) {
      ++stats_.cross_pcid_evictions;  // PCID-sharing pressure (paper §3.3)
    }
    if (v.entry().fractured) {
      NoteFracturedDrop(v.entry());
    }
  }
  uint16_t bit = static_cast<uint16_t>(1u << victim);
  if ((valid & bit) == 0) {
    valid |= bit;
    if (e.size == PageSize::k2M) {
      ++valid_2m_;
    }
  }
  v.Fill(e, ++clock_);
  if (e.fractured) {
    NoteFracturedInsert(e);
  }
}

int Tlb::DropMatching(PageSize s, uint16_t pcid, uint64_t va, bool match_globals) {
  if (Skip2M(s)) {
    return 0;
  }
  uint64_t vpn = VpnOf(va, s);
  Array& arr = ArrayFor(s);
  int set = arr.SetOf(vpn);
  Slot* base = arr.Set(set);
  uint16_t& valid = arr.valid[static_cast<size_t>(set)];
  int dropped = 0;
  ForEachWay(valid, [&](int w) {
    const TlbEntry& en = base[w].entry();
    if (!IsLive(base[w]) || en.vpn != vpn) {
      return;
    }
    bool pcid_match = en.pcid == pcid;
    bool global_match = match_globals && en.global;
    if (pcid_match || global_match) {
      if (en.fractured) {
        NoteFracturedDrop(en);
      }
      valid = static_cast<uint16_t>(valid & ~(1u << w));
      if (s == PageSize::k2M) {
        --valid_2m_;
      }
      ++dropped;
    }
  });
  return dropped;
}

bool Tlb::InvlPg(uint16_t current_pcid, uint64_t va) {
  ++mut_gen_;
  ++stats_.selective_flushes;
  if (fractured_resident_ && fracture_degrade_) {
    ++stats_.fracture_forced_full;
    FlushAll(/*keep_globals=*/false);
    return true;
  }
  DropMatching(PageSize::k4K, current_pcid, va, /*match_globals=*/true);
  DropMatching(PageSize::k2M, current_pcid, va, /*match_globals=*/true);
  return false;
}

bool Tlb::InvPcidAddr(uint16_t pcid, uint64_t va) {
  ++mut_gen_;
  ++stats_.selective_flushes;
  if (fractured_resident_ && fracture_degrade_) {
    ++stats_.fracture_forced_full;
    FlushAll(/*keep_globals=*/false);
    return true;
  }
  DropMatching(PageSize::k4K, pcid, va, /*match_globals=*/false);
  DropMatching(PageSize::k2M, pcid, va, /*match_globals=*/false);
  return false;
}

void Tlb::DropTranslation(uint16_t pcid, uint64_t va) {
  ++mut_gen_;
  DropMatching(PageSize::k4K, pcid, va, /*match_globals=*/true);
  DropMatching(PageSize::k2M, pcid, va, /*match_globals=*/true);
}

void Tlb::FlushPcid(uint16_t pcid) {
  ++mut_gen_;
  ++stats_.full_flushes;
  GrowPcidArrays(pcid);
  uint32_t& frac = FracCount(pcid);
  fractured_total_ -= frac;
  frac = 0;
  pcid_mark_[PcidIndex(pcid)] = clock_;
  fractured_resident_ = fractured_total_ > 0;
}

void Tlb::FlushAll(bool keep_globals) {
  ++mut_gen_;
  ++stats_.full_flushes;
  if (keep_globals) {
    mark_nonglobal_ = clock_;
    fractured_total_ = frac_global_;
  } else {
    mark_all_ = clock_;
    fractured_total_ = 0;
    frac_global_ = 0;
  }
  ++frac_gen_;  // every per-PCID fractured count drops to zero, O(1)
  fractured_resident_ = fractured_total_ > 0;
}

void Tlb::NoteFracturedInsert(const TlbEntry& e) {
  if (e.global) {
    ++frac_global_;
  } else {
    ++FracCount(e.pcid);
  }
  ++fractured_total_;
  fractured_resident_ = true;
}

void Tlb::NoteFracturedDrop(const TlbEntry& e) {
  // Deliberately leaves fractured_resident_ alone: the flag is sticky until
  // the next flush, matching hardware-conservative degrade behavior.
  if (e.global) {
    --frac_global_;
  } else {
    --FracCount(e.pcid);
  }
  --fractured_total_;
}

template <typename Fn>
void Tlb::ForEachLive(Fn&& fn) const {
  for (const Array* arr : {&arr_4k_, &arr_2m_}) {
    for (int set = 0; set < arr->sets; ++set) {
      const Slot* base = arr->Set(set);
      ForEachWay(arr->valid[static_cast<size_t>(set)], [&](int w) {
        if (IsLive(base[w])) fn(base[w]);
      });
    }
  }
}

size_t Tlb::Occupancy() const {
  size_t n = 0;
  ForEachLive([&](const Slot&) { ++n; });
  return n;
}

std::vector<TlbEntry> Tlb::Entries() const {
  std::vector<TlbEntry> out;
  ForEachLive([&](const Slot& slot) { out.push_back(slot.entry()); });
  return out;
}

bool PageWalkCache::Lookup(uint16_t pcid, uint64_t va) {
  ++stats_.lookups;
  uint64_t region = va >> kHugeShift;
  for (Entry& e : entries_) {
    if (Live(e) && e.pcid == pcid && e.region == region) {
      e.stamp = ++clock_;
      ++stats_.hits;
      return true;
    }
  }
  return false;
}

void PageWalkCache::Insert(uint16_t pcid, uint64_t va) {
  uint64_t region = va >> kHugeShift;
  Entry* dead = nullptr;
  for (Entry& e : entries_) {
    if (Live(e) && e.pcid == pcid && e.region == region) {
      e.stamp = ++clock_;
      return;
    }
    if (!Live(e) && dead == nullptr) {
      dead = &e;
    }
  }
  if (dead != nullptr) {
    *dead = Entry{pcid, region, ++clock_};
    return;
  }
  if (entries_.size() < static_cast<size_t>(capacity_)) {
    entries_.push_back(Entry{pcid, region, ++clock_});
    return;
  }
  auto victim = std::min_element(entries_.begin(), entries_.end(),
                                 [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
  *victim = Entry{pcid, region, ++clock_};
}

void PageWalkCache::FlushAll() {
  ++stats_.full_flushes;
  mark_ = clock_;  // O(1): everything born so far is dead
}

void PageWalkCache::FlushAddress(uint16_t pcid, uint64_t va) {
  uint64_t region = va >> kHugeShift;
  for (Entry& e : entries_) {
    if (Live(e) && e.pcid == pcid && e.region == region) {
      e.stamp = 0;
    }
  }
}

void PageWalkCache::FlushPcid(uint16_t pcid) {
  for (Entry& e : entries_) {
    if (Live(e) && e.pcid == pcid) {
      e.stamp = 0;
    }
  }
}

size_t PageWalkCache::size() const {
  size_t n = 0;
  for (const Entry& e : entries_) {
    if (Live(e)) {
      ++n;
    }
  }
  return n;
}

}  // namespace tlbsim
