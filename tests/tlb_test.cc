// Tlb: PCID tagging, global entries, INVLPG/INVPCID/CR3 semantics, LRU
// eviction, fracture-forced full flushes, stats.
#include "src/hw/tlb.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/sim/rng.h"

namespace tlbsim {
namespace {

TlbEntry E(uint64_t va, uint16_t pcid, uint64_t pfn, bool global = false,
           PageSize size = PageSize::k4K, bool fractured = false) {
  TlbEntry e;
  e.vpn = va >> ShiftOf(size);
  e.pcid = pcid;
  e.pfn = pfn;
  e.flags = PteFlags::kPresent | PteFlags::kUser | (global ? PteFlags::kGlobal : 0);
  e.size = size;
  e.global = global;
  e.fractured = fractured;
  return e;
}

TEST(TlbTest, InsertThenLookupHits) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x42));
  auto r = tlb.Lookup(5, 0x1ABC);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pfn, 0x42u);
  EXPECT_EQ(tlb.stats().hits, 1u);
}

TEST(TlbTest, MissForDifferentPcid) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x42));
  EXPECT_FALSE(tlb.Lookup(6, 0x1000).has_value());
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(TlbTest, GlobalEntryMatchesAnyPcid) {
  Tlb tlb;
  tlb.Insert(E(0x2000, 5, 0x42, /*global=*/true));
  EXPECT_TRUE(tlb.Lookup(6, 0x2000).has_value());
  EXPECT_TRUE(tlb.Lookup(99, 0x2000).has_value());
}

TEST(TlbTest, TwoMbEntryCoversRegion) {
  Tlb tlb;
  tlb.Insert(E(0x40000000, 1, 0x200, false, PageSize::k2M));
  EXPECT_TRUE(tlb.Lookup(1, 0x40000000 + 0x1FFFFF).has_value());
  EXPECT_FALSE(tlb.Lookup(1, 0x40200000).has_value());
}

TEST(TlbTest, InvlpgDropsCurrentPcidAndGlobals) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x1000, 6, 2));
  tlb.Insert(E(0x1000, 7, 3, /*global=*/true));
  bool degraded = tlb.InvlPg(5, 0x1000);
  EXPECT_FALSE(degraded);
  EXPECT_FALSE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_TRUE(tlb.Probe(6, 0x1000).has_value());   // other PCID survives
  EXPECT_FALSE(tlb.Probe(7, 0x1000).has_value());  // global dropped
}

TEST(TlbTest, InvPcidAddrDropsOnlyThatPcid) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x1000, 6, 2));
  tlb.Insert(E(0x3000, 7, 3, /*global=*/true));
  // INVPCID individual-address ignores globals of other PCIDs; our model
  // drops only the (pcid, va) pair.
  tlb.InvPcidAddr(6, 0x1000);
  EXPECT_TRUE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_FALSE(tlb.Probe(6, 0x1000).has_value());
  EXPECT_TRUE(tlb.Probe(7, 0x3000).has_value());
}

TEST(TlbTest, FlushPcidKeepsGlobalsAndOtherPcids) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x2000, 5, 2, /*global=*/true));
  tlb.Insert(E(0x3000, 6, 3));
  tlb.FlushPcid(5);
  EXPECT_FALSE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_TRUE(tlb.Probe(5, 0x2000).has_value());  // global kept
  EXPECT_TRUE(tlb.Probe(6, 0x3000).has_value());
}

TEST(TlbTest, FlushAllKeepGlobals) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x2000, 6, 2, /*global=*/true));
  tlb.FlushAll(/*keep_globals=*/true);
  EXPECT_FALSE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_TRUE(tlb.Probe(6, 0x2000).has_value());
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.Probe(6, 0x2000).has_value());
  EXPECT_EQ(tlb.Occupancy(), 0u);
}

TEST(TlbTest, DropTranslationRemovesWithoutStats) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  uint64_t flushes_before = tlb.stats().selective_flushes;
  tlb.DropTranslation(5, 0x1000);
  EXPECT_FALSE(tlb.Probe(5, 0x1000).has_value());
  EXPECT_EQ(tlb.stats().selective_flushes, flushes_before);
}

TEST(TlbTest, InsertOverwritesStaleDuplicate) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 1));
  tlb.Insert(E(0x1000, 5, 2));
  auto r = tlb.Probe(5, 0x1000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pfn, 2u);
  EXPECT_EQ(tlb.Occupancy(), 1u);
}

TEST(TlbTest, SetAssociativeEvictionLru) {
  TlbGeometry geo;
  geo.sets_4k = 1;
  geo.ways_4k = 2;
  Tlb tlb(geo);
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Insert(E(0x2000, 1, 2));
  tlb.Lookup(1, 0x1000);            // touch to make 0x2000 the LRU victim
  tlb.Insert(E(0x3000, 1, 3));      // evicts 0x2000
  EXPECT_TRUE(tlb.Probe(1, 0x1000).has_value());
  EXPECT_FALSE(tlb.Probe(1, 0x2000).has_value());
  EXPECT_TRUE(tlb.Probe(1, 0x3000).has_value());
  EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(TlbTest, FracturedEntryDegradesSelectiveFlushToFull) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Insert(E(0x5000, 1, 5, false, PageSize::k4K, /*fractured=*/true));
  EXPECT_TRUE(tlb.has_fractured());
  // Flushing an UNRELATED address still wipes the whole TLB (paper §7).
  bool degraded = tlb.InvlPg(1, 0x9000);
  EXPECT_TRUE(degraded);
  EXPECT_EQ(tlb.Occupancy(), 0u);
  EXPECT_EQ(tlb.stats().fracture_forced_full, 1u);
  EXPECT_FALSE(tlb.has_fractured());
}

TEST(TlbTest, FractureDegradeCanBeDisabled) {
  Tlb tlb;
  tlb.set_fracture_degrade_enabled(false);
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Insert(E(0x5000, 1, 5, false, PageSize::k4K, /*fractured=*/true));
  bool degraded = tlb.InvlPg(1, 0x9000);
  EXPECT_FALSE(degraded);
  EXPECT_EQ(tlb.Occupancy(), 2u);
}

TEST(TlbTest, FullFlushClearsFractureFlag) {
  Tlb tlb;
  tlb.Insert(E(0x5000, 1, 5, false, PageSize::k4K, /*fractured=*/true));
  tlb.FlushAll(false);
  EXPECT_FALSE(tlb.has_fractured());
  tlb.Insert(E(0x1000, 1, 1));
  EXPECT_FALSE(tlb.InvlPg(1, 0x1000));  // selective again
}

TEST(TlbTest, EntriesEnumeration) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Insert(E(0x40000000, 2, 2, false, PageSize::k2M));
  auto all = tlb.Entries();
  EXPECT_EQ(all.size(), 2u);
}

TEST(TlbTest, StatsCounters) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 1, 1));
  tlb.Lookup(1, 0x1000);
  tlb.Lookup(1, 0x2000);
  tlb.InvlPg(1, 0x1000);
  tlb.FlushPcid(1);
  auto& s = tlb.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.selective_flushes, 1u);
  EXPECT_EQ(s.full_flushes, 1u);
  tlb.ResetStats();
  EXPECT_EQ(tlb.stats().lookups, 0u);
}

// Property: against a shadow map, a TLB lookup may MISS spuriously (capacity
// eviction is always legal) but must never HIT with a wrong value, must never
// hit something the shadow flushed, and a global entry must match any PCID.
// Epoch-flush edge cases: flushes are O(1) marks, and these pin down the
// places where marked-dead slots could be confused with live ones.

TEST(TlbEpochTest, InsertAfterFlushReusesDeadSlotsAndStaysLive) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x42));
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_EQ(tlb.Occupancy(), 0u);
  // Same set, same tag: must be a fresh insert into a dead slot, not a
  // resurrecting duplicate-overwrite, and must be visible immediately.
  tlb.Insert(E(0x1000, 5, 0x43));
  EXPECT_EQ(tlb.Occupancy(), 1u);
  auto r = tlb.Lookup(5, 0x1000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pfn, 0x43u);
  EXPECT_EQ(tlb.stats().evictions, 0u);  // dead victims are not evictions
}

TEST(TlbEpochTest, LookupRefreshCannotResurrectFlushedEntry) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x42));
  tlb.Insert(E(0x2000, 5, 0x43));
  tlb.FlushPcid(5);
  // Misses on flushed entries must not refresh their stamps back to life.
  EXPECT_FALSE(tlb.Lookup(5, 0x1000).has_value());
  EXPECT_FALSE(tlb.Lookup(5, 0x2000).has_value());
  EXPECT_EQ(tlb.Occupancy(), 0u);
}

TEST(TlbEpochTest, FlushPcidMarkOnlyKillsEntriesBornBefore) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x1));
  tlb.FlushPcid(5);
  tlb.Insert(E(0x1000, 5, 0x2));  // born after the mark
  auto r = tlb.Probe(5, 0x1000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pfn, 0x2u);
  // A second flush of an unrelated PCID leaves the new entry alone.
  tlb.FlushPcid(9);
  EXPECT_TRUE(tlb.Probe(5, 0x1000).has_value());
}

TEST(TlbEpochTest, GlobalSurvivesNonGlobalFlushesButNotFullOne) {
  Tlb tlb;
  tlb.Insert(E(0x5000, 5, 0x7, /*global=*/true));
  tlb.FlushPcid(5);
  EXPECT_TRUE(tlb.Probe(5, 0x5000).has_value());
  tlb.FlushAll(/*keep_globals=*/true);
  EXPECT_TRUE(tlb.Probe(5, 0x5000).has_value());
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.Probe(5, 0x5000).has_value());
  EXPECT_EQ(tlb.Occupancy(), 0u);
}

TEST(TlbEpochTest, FracturedCountersTrackFlushesPerPcid) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 5, 0x1, false, PageSize::k4K, /*fractured=*/true));
  tlb.Insert(E(0x2000, 9, 0x2, false, PageSize::k4K, /*fractured=*/true));
  EXPECT_TRUE(tlb.has_fractured());
  tlb.FlushPcid(5);  // one fractured entry left (pcid 9)
  EXPECT_TRUE(tlb.has_fractured());
  tlb.FlushPcid(9);
  EXPECT_FALSE(tlb.has_fractured());
  // Reinsert after the flushes: counters must have restarted cleanly.
  tlb.Insert(E(0x3000, 5, 0x3, false, PageSize::k4K, /*fractured=*/true));
  EXPECT_TRUE(tlb.has_fractured());
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.has_fractured());
}

TEST(TlbEpochTest, GlobalFracturedSurvivesKeepGlobalsFlush) {
  Tlb tlb;
  tlb.Insert(E(0x5000, 5, 0x7, /*global=*/true, PageSize::k4K, /*fractured=*/true));
  tlb.FlushAll(/*keep_globals=*/true);
  EXPECT_TRUE(tlb.has_fractured());  // the fractured entry is still resident
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.has_fractured());
}

TEST(TlbEpochTest, FracturedFlagStaysStickyAcrossEviction) {
  // Hardware-conservative semantics: evicting the only fractured entry does
  // not clear the resident flag — only a flush recomputes it.
  TlbGeometry tiny;
  tiny.sets_4k = 1;
  tiny.ways_4k = 2;
  tiny.sets_2m = 1;
  tiny.ways_2m = 1;
  Tlb tlb(tiny);
  tlb.Insert(E(0x1000, 5, 0x1, false, PageSize::k4K, /*fractured=*/true));
  tlb.Insert(E(0x2000, 5, 0x2));
  tlb.Insert(E(0x3000, 5, 0x3));  // evicts the fractured entry (LRU)
  EXPECT_TRUE(tlb.has_fractured());
  tlb.FlushAll(/*keep_globals=*/false);
  EXPECT_FALSE(tlb.has_fractured());  // flush recomputes from exact counters
}

TEST(PwcEpochTest, InsertAfterFlushAllReusesDeadEntries) {
  PageWalkCache pwc(4);
  pwc.Insert(5, 0x200000);
  pwc.Insert(5, 0x400000);
  pwc.FlushAll();
  EXPECT_EQ(pwc.size(), 0u);
  pwc.Insert(5, 0x600000);
  EXPECT_EQ(pwc.size(), 1u);
  EXPECT_TRUE(pwc.Lookup(5, 0x600000));
  EXPECT_FALSE(pwc.Lookup(5, 0x200000));  // dead entry must not hit
  // Capacity is not consumed by dead entries: all four regions fit.
  pwc.Insert(5, 0x800000);
  pwc.Insert(5, 0xA00000);
  pwc.Insert(5, 0xC00000);
  EXPECT_EQ(pwc.size(), 4u);
  EXPECT_TRUE(pwc.Lookup(5, 0x600000));
}

TEST(TlbPropertyTest, AgreesWithShadowModel) {
  Rng rng(77);
  Tlb tlb;
  struct Key {
    uint16_t pcid;
    uint64_t vpn;
    bool operator<(const Key& o) const {
      return pcid != o.pcid ? pcid < o.pcid : vpn < o.vpn;
    }
  };
  std::map<Key, TlbEntry> shadow;  // 4K entries only, non-global
  auto va_of = [](uint64_t vpn) { return vpn << kPageShift; };

  for (int step = 0; step < 20000; ++step) {
    uint16_t pcid = static_cast<uint16_t>(rng.UniformInt(1, 3));
    uint64_t vpn = static_cast<uint64_t>(rng.UniformInt(0, 511));
    switch (rng.UniformInt(0, 4)) {
      case 0: {
        TlbEntry e = E(va_of(vpn), pcid, rng.UniformU64() % (1 << 20));
        tlb.Insert(e);
        shadow[Key{pcid, vpn}] = e;
        break;
      }
      case 1:
        tlb.InvlPg(pcid, va_of(vpn));
        shadow.erase(Key{pcid, vpn});
        break;
      case 2:
        tlb.InvPcidAddr(pcid, va_of(vpn));
        shadow.erase(Key{pcid, vpn});
        break;
      case 3: {
        tlb.FlushPcid(pcid);
        for (auto it = shadow.begin(); it != shadow.end();) {
          it = it->first.pcid == pcid ? shadow.erase(it) : std::next(it);
        }
        break;
      }
      case 4: {
        auto hit = tlb.Probe(pcid, va_of(vpn));
        auto it = shadow.find(Key{pcid, vpn});
        if (hit.has_value()) {
          ASSERT_NE(it, shadow.end()) << "hit after flush, step " << step;
          EXPECT_EQ(hit->pfn, it->second.pfn) << "stale value, step " << step;
        }
        // A miss is always legal (eviction).
        break;
      }
    }
  }
  // Final sweep: every resident entry must be shadow-backed.
  for (const TlbEntry& e : tlb.Entries()) {
    auto it = shadow.find(Key{e.pcid, e.vpn});
    ASSERT_NE(it, shadow.end());
    EXPECT_EQ(e.pfn, it->second.pfn);
  }
}

TEST(TlbPropertyTest, OccupancyNeverExceedsCapacity) {
  TlbGeometry geo;
  geo.sets_4k = 4;
  geo.ways_4k = 2;
  geo.sets_2m = 1;
  geo.ways_2m = 2;
  Tlb tlb(geo);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    tlb.Insert(E(static_cast<uint64_t>(rng.UniformInt(0, 63)) << kPageShift,
                 static_cast<uint16_t>(rng.UniformInt(1, 4)), static_cast<uint64_t>(i)));
    EXPECT_LE(tlb.Occupancy(), 10u);  // 4*2 + 1*2
  }
}

// --- differential test against a naive scanning TLB -----------------------

// Eagerly-invalidating set-associative TLB: every flush scans and clears
// slots, fractured residency is recomputed by a scan, and the one-entry hit
// cache is modelled from its definition. `valid_bit` mirrors the hardware
// valid bit the 2M count tracks: set by an insert, cleared only by a
// targeted drop (a flush kills a slot without clearing it).
class ReferenceTlb {
 public:
  explicit ReferenceTlb(const TlbGeometry& geo) : geo_(geo) {
    slots_4k_.resize(static_cast<size_t>(geo.sets_4k * geo.ways_4k));
    slots_2m_.resize(static_cast<size_t>(geo.sets_2m * geo.ways_2m));
  }

  std::optional<TlbEntry> Lookup(uint16_t pcid, uint64_t va) {
    ++stats_.lookups;
    if (fast_ != nullptr && pcid == fast_pcid_ && (va >> fast_shift_) == fast_vpn_) {
      ++stats_.hits;
      ++stats_.fastpath_hits;
      fast_->stamp = ++clock_;
      return fast_->entry;
    }
    std::optional<TlbEntry> first;
    Slot* match = nullptr;
    int matches = 0;
    for (PageSize sz : {PageSize::k4K, PageSize::k2M}) {
      for (Slot* slot : SetOf(sz, va >> ShiftOf(sz))) {
        if (Matches(*slot, sz, va, pcid)) {
          if (!first) first = slot->entry;
          slot->stamp = ++clock_;
          match = slot;
          ++matches;
        }
      }
    }
    if (first) {
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
    fast_ = matches == 1 ? match : nullptr;
    if (fast_ != nullptr) {
      fast_pcid_ = pcid;
      fast_shift_ = static_cast<int>(ShiftOf(match->entry.size));
      fast_vpn_ = va >> fast_shift_;
    }
    return first;
  }

  void Insert(const TlbEntry& e) {
    fast_ = nullptr;
    ++stats_.inserts;
    std::vector<Slot*> set = SetOf(e.size, e.vpn);
    // A live duplicate, else the first dead slot, else the LRU live slot.
    Slot* victim = nullptr;
    for (Slot* slot : set) {
      if (slot->live && slot->entry.vpn == e.vpn && slot->entry.pcid == e.pcid &&
          slot->entry.size == e.size) {
        victim = slot;
        break;
      }
    }
    for (Slot* slot : set) {
      if (victim == nullptr && !slot->live) victim = slot;
    }
    if (victim == nullptr) {
      victim = set[0];
      for (Slot* slot : set) {
        if (slot->stamp < victim->stamp) victim = slot;
      }
    }
    if (victim->live) {
      ++stats_.evictions;
      if (victim->entry.pcid != e.pcid) ++stats_.cross_pcid_evictions;
    }
    victim->entry = e;
    victim->stamp = ++clock_;
    victim->live = true;
    victim->valid_bit = true;
    if (e.fractured) fractured_flag_ = true;
  }

  bool InvlPg(uint16_t pcid, uint64_t va) { return Selective(pcid, va, /*globals=*/true); }
  bool InvPcidAddr(uint16_t pcid, uint64_t va) { return Selective(pcid, va, /*globals=*/false); }

  void DropTranslation(uint16_t pcid, uint64_t va) {
    fast_ = nullptr;
    Drop(pcid, va, /*globals=*/true);
  }

  void FlushPcid(uint16_t pcid) {
    fast_ = nullptr;
    ++stats_.full_flushes;
    for (Slot* slot : All()) {
      if (!slot->entry.global && slot->entry.pcid == pcid) slot->live = false;
    }
    RecomputeFractured();
  }

  void FlushAll(bool keep_globals) {
    fast_ = nullptr;
    ++stats_.full_flushes;
    for (Slot* slot : All()) {
      if (!keep_globals || !slot->entry.global) slot->live = false;
    }
    RecomputeFractured();
  }

  void set_fracture_degrade_enabled(bool on) { degrade_ = on; }
  bool has_fractured() const { return fractured_flag_; }
  const Tlb::Stats& stats() const { return stats_; }

  std::vector<TlbEntry> Entries() {
    std::vector<TlbEntry> out;
    for (Slot* slot : All()) {
      if (slot->live) out.push_back(slot->entry);
    }
    return out;
  }

  size_t valid_2m_slots() const {
    size_t n = 0;
    for (const Slot& slot : slots_2m_) n += slot.valid_bit ? 1 : 0;
    return n;
  }

 private:
  struct Slot {
    TlbEntry entry;
    uint64_t stamp = 0;
    bool live = false;
    bool valid_bit = false;
  };

  static bool Matches(const Slot& slot, PageSize sz, uint64_t va, uint16_t pcid) {
    return slot.live && slot.entry.size == sz && slot.entry.vpn == (va >> ShiftOf(sz)) &&
           (slot.entry.global || slot.entry.pcid == pcid);
  }

  std::vector<Slot*> SetOf(PageSize sz, uint64_t vpn) {
    bool small = sz == PageSize::k4K;
    int sets = small ? geo_.sets_4k : geo_.sets_2m;
    int ways = small ? geo_.ways_4k : geo_.ways_2m;
    std::vector<Slot>& arr = small ? slots_4k_ : slots_2m_;
    size_t base = static_cast<size_t>(vpn % static_cast<uint64_t>(sets)) * static_cast<size_t>(ways);
    std::vector<Slot*> out;
    for (int w = 0; w < ways; ++w) out.push_back(&arr[base + static_cast<size_t>(w)]);
    return out;
  }

  std::vector<Slot*> All() {
    std::vector<Slot*> out;
    for (Slot& slot : slots_4k_) out.push_back(&slot);
    for (Slot& slot : slots_2m_) out.push_back(&slot);
    return out;
  }

  bool Selective(uint16_t pcid, uint64_t va, bool globals) {
    fast_ = nullptr;
    ++stats_.selective_flushes;
    if (fractured_flag_ && degrade_) {
      ++stats_.fracture_forced_full;
      FlushAll(/*keep_globals=*/false);
      return true;
    }
    Drop(pcid, va, globals);
    return false;
  }

  void Drop(uint16_t pcid, uint64_t va, bool globals) {
    for (PageSize sz : {PageSize::k4K, PageSize::k2M}) {
      for (Slot* slot : SetOf(sz, va >> ShiftOf(sz))) {
        if (slot->live && slot->entry.size == sz && slot->entry.vpn == (va >> ShiftOf(sz)) &&
            (slot->entry.pcid == pcid || (globals && slot->entry.global))) {
          slot->live = false;
          slot->valid_bit = false;
        }
      }
    }
  }

  void RecomputeFractured() {
    fractured_flag_ = false;
    for (Slot* slot : All()) {
      if (slot->live && slot->entry.fractured) fractured_flag_ = true;
    }
  }

  TlbGeometry geo_;
  std::vector<Slot> slots_4k_;
  std::vector<Slot> slots_2m_;
  uint64_t clock_ = 0;
  bool fractured_flag_ = false;
  bool degrade_ = true;
  Tlb::Stats stats_;
  Slot* fast_ = nullptr;
  uint16_t fast_pcid_ = 0;
  int fast_shift_ = 0;
  uint64_t fast_vpn_ = 0;
};

void ExpectSameEntry(const TlbEntry& a, const TlbEntry& b, int step) {
  EXPECT_EQ(a.vpn, b.vpn) << "step " << step;
  EXPECT_EQ(a.pcid, b.pcid) << "step " << step;
  EXPECT_EQ(a.pfn, b.pfn) << "step " << step;
  EXPECT_EQ(a.flags, b.flags) << "step " << step;
  EXPECT_EQ(a.size, b.size) << "step " << step;
  EXPECT_EQ(a.global, b.global) << "step " << step;
  EXPECT_EQ(a.fractured, b.fractured) << "step " << step;
}

void ExpectSameTlb(const Tlb& tlb, ReferenceTlb& ref, int step) {
  const Tlb::Stats& s = tlb.stats();
  const Tlb::Stats& r = ref.stats();
  ASSERT_EQ(s.lookups, r.lookups) << "step " << step;
  ASSERT_EQ(s.hits, r.hits) << "step " << step;
  ASSERT_EQ(s.misses, r.misses) << "step " << step;
  ASSERT_EQ(s.inserts, r.inserts) << "step " << step;
  ASSERT_EQ(s.evictions, r.evictions) << "step " << step;
  ASSERT_EQ(s.cross_pcid_evictions, r.cross_pcid_evictions) << "step " << step;
  ASSERT_EQ(s.selective_flushes, r.selective_flushes) << "step " << step;
  ASSERT_EQ(s.full_flushes, r.full_flushes) << "step " << step;
  ASSERT_EQ(s.fracture_forced_full, r.fracture_forced_full) << "step " << step;
  ASSERT_EQ(s.fastpath_hits, r.fastpath_hits) << "step " << step;
  ASSERT_EQ(tlb.has_fractured(), ref.has_fractured()) << "step " << step;
  ASSERT_EQ(tlb.valid_2m_slots(), ref.valid_2m_slots()) << "step " << step;
  std::vector<TlbEntry> got = tlb.Entries();
  std::vector<TlbEntry> want = ref.Entries();
  ASSERT_EQ(tlb.Occupancy(), want.size()) << "step " << step;
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t i = 0; i < got.size(); ++i) ExpectSameEntry(got[i], want[i], step);
}

// Seeded random Insert / Lookup / InvlPg / InvPcidAddr / DropTranslation /
// FlushPcid / FlushAll sequences over 4K and 2M, global and fractured
// entries and PCIDs up to 4095, including flushes of PCIDs never inserted.
// Geometries: a small one, the default, the valid mask's full width (16
// ways) and a single set. The first kFreshSteps steps spread addresses over
// 512 pages and insert rarely, so flushes, probes and inserts land in sets
// that were never written (on the default geometry, sets the later steps
// never reach as well).
TEST(TlbDifferentialTest, MatchesScanningReference) {
  TlbGeometry small;
  small.sets_4k = 4;
  small.ways_4k = 3;
  small.sets_2m = 2;
  small.ways_2m = 2;
  TlbGeometry wide;
  wide.sets_4k = 4;
  wide.ways_4k = Tlb::kMaxWays;
  wide.sets_2m = 2;
  wide.ways_2m = Tlb::kMaxWays;
  TlbGeometry one_set;
  one_set.sets_4k = 1;
  one_set.ways_4k = 5;
  one_set.sets_2m = 1;
  one_set.ways_2m = 3;
  constexpr int kFreshSteps = 3000;
  for (const TlbGeometry& geo : {small, TlbGeometry{}, wide, one_set}) {
    for (uint64_t seed : {1ULL, 2ULL, 104729ULL}) {
      Tlb tlb(geo);
      ReferenceTlb ref(geo);
      Rng rng(seed);
      const uint16_t pcids[] = {0, 1, 2, 7, 4095};
      auto pick_pcid = [&]() -> uint16_t {
        if (rng.Chance(0.1)) return static_cast<uint16_t>(rng.UniformInt(0, 4095));
        return pcids[rng.UniformInt(0, 4)];
      };
      // 4 huge regions with 16 small pages each (512 in the fresh phase), so
      // 4K and 2M entries overlap.
      auto pick_va = [&](int pages) {
        return (static_cast<uint64_t>(rng.UniformInt(0, 3)) << kHugeShift) |
               (static_cast<uint64_t>(rng.UniformInt(0, pages - 1)) << kPageShift) |
               static_cast<uint64_t>(rng.UniformInt(0, 4095));
      };
      for (int step = 0; step < 20000; ++step) {
        bool fresh = step < kFreshSteps;
        int64_t op = rng.UniformInt(0, 99);
        uint16_t pcid = pick_pcid();
        uint64_t va = pick_va(fresh ? 512 : 16);
        if (fresh && op < 35 && !rng.Chance(0.15)) {
          op = 98;  // mostly probe instead of insert
        }
        if (op < 35) {
          PageSize size = rng.Chance(0.25) ? PageSize::k2M : PageSize::k4K;
          TlbEntry e = E(PageAlignDown(va, size), pcid, rng.UniformU64() % (1 << 20),
                         /*global=*/rng.Chance(0.1), size, /*fractured=*/rng.Chance(0.03));
          tlb.Insert(e);
          ref.Insert(e);
        } else if (op < 65) {
          std::optional<TlbEntry> got = tlb.Lookup(pcid, va);
          std::optional<TlbEntry> want = ref.Lookup(pcid, va);
          ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed << " step " << step;
          if (got) ExpectSameEntry(*got, *want, step);
        } else if (op < 75) {
          ASSERT_EQ(tlb.InvlPg(pcid, va), ref.InvlPg(pcid, va)) << "step " << step;
        } else if (op < 83) {
          ASSERT_EQ(tlb.InvPcidAddr(pcid, va), ref.InvPcidAddr(pcid, va)) << "step " << step;
        } else if (op < 89) {
          tlb.DropTranslation(pcid, va);
          ref.DropTranslation(pcid, va);
        } else if (op < 95) {
          tlb.FlushPcid(pcid);
          ref.FlushPcid(pcid);
        } else if (op < 97) {
          bool keep = rng.Chance(0.5);
          tlb.FlushAll(keep);
          ref.FlushAll(keep);
        } else if (op < 98) {
          bool on = rng.Chance(0.7);
          tlb.set_fracture_degrade_enabled(on);
          ref.set_fracture_degrade_enabled(on);
        } else {
          tlb.Probe(pcid, va);  // must not count or restamp
        }
        // Full state every step on the small geometries, sampled on the default.
        if (geo.sets_4k * geo.ways_4k <= 64 || step % 64 == 0) {
          ExpectSameTlb(tlb, ref, step);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// The 2M count returns to zero once every 2M entry has been dropped, so the
// skip comes back after a workload stops using huge pages.
TEST(TlbDifferentialTest, TwoMegCountFallsBackToZero) {
  Tlb tlb;
  tlb.Insert(E(0x200000, 1, 9, false, PageSize::k2M));
  tlb.Insert(E(0x400000, 2, 9, true, PageSize::k2M));
  EXPECT_EQ(tlb.valid_2m_slots(), 2u);
  tlb.InvPcidAddr(1, 0x200000);
  tlb.DropTranslation(5, 0x400000);
  EXPECT_EQ(tlb.valid_2m_slots(), 0u);
  EXPECT_FALSE(tlb.Probe(1, 0x200000).has_value());
  EXPECT_FALSE(tlb.Lookup(5, 0x400000).has_value());
}

// Flushes and probes into sets that never held an entry change nothing, and
// a later insert there evicts nothing.
TEST(TlbTest, UntouchedSetsStayEmpty) {
  Tlb tlb;
  tlb.Insert(E(0x1000, 1, 7));
  for (uint64_t page = 2; page < 128; ++page) {
    EXPECT_FALSE(tlb.InvlPg(1, page << kPageShift));
    EXPECT_FALSE(tlb.Probe(1, page << kPageShift).has_value());
  }
  EXPECT_EQ(tlb.Occupancy(), 1u);
  tlb.Insert(E(0x5000, 1, 9));
  std::vector<TlbEntry> entries = tlb.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].pfn, 7u);
  EXPECT_EQ(entries[1].pfn, 9u);
  EXPECT_EQ(tlb.stats().evictions, 0u);
}

// The per-set valid masks are 16 bits wide, and sets are picked by mask.
TEST(TlbDeathTest, RejectsGeometriesTheMasksCannotHold) {
  TlbGeometry wide;
  wide.ways_4k = Tlb::kMaxWays + 1;
  EXPECT_DEATH(Tlb{wide}, "at most 16");
  TlbGeometry wide_2m;
  wide_2m.ways_2m = Tlb::kMaxWays + 1;
  EXPECT_DEATH(Tlb{wide_2m}, "at most 16");
  TlbGeometry odd;
  odd.sets_4k = 96;
  EXPECT_DEATH(Tlb{odd}, "power of two");
}

// A copy would keep the source's fast-path slot pointer.
static_assert(!std::is_copy_constructible_v<Tlb>);
static_assert(!std::is_copy_assignable_v<Tlb>);

}  // namespace
}  // namespace tlbsim
