#include "src/cache/coherence.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace tlbsim {

CoherenceModel::CoherenceModel(const Topology& topo, const CacheCosts& costs)
    : costs_(costs), cpu_masks_(static_cast<size_t>(topo.num_cpus())) {
  assert(topo.num_cpus() <= CpuMask::kMaxCpus);
  // Cpu ids are socket-major and thread-minor, so every core and socket is a
  // contiguous id range: build each range mask once and copy it to its cpus.
  auto range = [](int lo, int hi) {
    CpuMask m;
    for (int c = lo; c < hi; ++c) m.Set(c);
    return m;
  };
  int per_socket = topo.cpus_per_socket();
  for (int lo = 0; lo < topo.num_cpus(); lo += per_socket) {
    CpuMask socket = range(lo, lo + per_socket);
    for (int c = lo; c < lo + per_socket; ++c) cpu_masks_[static_cast<size_t>(c)].socket = socket;
  }
  for (int lo = 0; lo < topo.num_cpus(); lo += topo.smt) {
    CpuMask core = range(lo, lo + topo.smt);
    for (int c = lo; c < lo + topo.smt; ++c) cpu_masks_[static_cast<size_t>(c)].core = core;
  }
}

LineId CoherenceModel::AllocateLine(std::string name) {
  LineId id = next_named_++;
  NameRec rec;
  rec.first = id;
  rec.custom = std::move(name);
  named_.push_back(std::move(rec));
  return id;
}

LineId CoherenceModel::AllocateLine(const char* prefix, uint64_t index, const char* suffix) {
  LineId id = next_named_++;
  NameRec rec;
  rec.first = id;
  rec.prefix = prefix;
  rec.index = index;
  rec.mid = suffix;
  named_.push_back(std::move(rec));
  return id;
}

LineId CoherenceModel::AllocateLine(const char* prefix, uint64_t index, const char* mid,
                                    uint64_t index2, const char* suffix) {
  LineId id = next_named_++;
  NameRec rec;
  rec.first = id;
  rec.prefix = prefix;
  rec.index = index;
  rec.mid = mid;
  rec.index2 = index2;
  rec.suffix = suffix;
  named_.push_back(std::move(rec));
  return id;
}

LineId CoherenceModel::AllocateLines(const char* prefix, uint64_t index, const char* mid,
                                     uint64_t count, const char* suffix) {
  LineId first = next_named_;
  if (count == 0) return first;
  next_named_ += count;
  NameRec rec;
  rec.first = first;
  rec.prefix = prefix;
  rec.index = index;
  rec.mid = mid;
  rec.suffix = suffix;
  named_.push_back(std::move(rec));
  return first;
}

Topology::Distance CoherenceModel::DistanceTo(int cpu, int other) const {
  const CpuMasks& m = cpu_masks_[static_cast<size_t>(cpu)];
  if (other == cpu) return Topology::Distance::kSelf;
  if (m.core.Test(other)) return Topology::Distance::kSmtSibling;
  if (m.socket.Test(other)) return Topology::Distance::kSameSocket;
  return Topology::Distance::kCrossSocket;
}

Topology::Distance CoherenceModel::NearestHolder(int cpu, const LineState& s) const {
  if (!s.sharers.Any()) {
    // Nothing at all holds the line: the loop over holders found none.
    return s.owner >= 0 ? DistanceTo(cpu, s.owner) : Topology::Distance::kCrossSocket;
  }
  CpuMask holders = s.sharers;
  if (s.owner >= 0) holders.Set(s.owner);
  const CpuMasks& m = cpu_masks_[static_cast<size_t>(cpu)];
  if (holders.Test(cpu)) return Topology::Distance::kSelf;
  if (holders.Intersects(m.core)) return Topology::Distance::kSmtSibling;
  if (holders.Intersects(m.socket)) return Topology::Distance::kSameSocket;
  return Topology::Distance::kCrossSocket;
}

void CoherenceModel::AddSharer(LineState& s, int cpu) {
  if (!s.sharers.Any()) s.first_sharer = cpu;
  s.sharers.Set(cpu);
}

const CoherenceModel::Entry* CoherenceModel::Bank::Find(LineId line, bool is_named) const {
  if (!is_named) {
    auto it = data.find(line);
    return it == data.end() ? nullptr : &it->second;
  }
  uint32_t slot = line < slot_of.size() ? slot_of[line] : 0;
  return slot == 0 ? nullptr : &named[slot - 1];
}

CoherenceModel::Entry& CoherenceModel::Bank::FindOrAdd(LineId line, bool is_named) {
  if (!is_named) return data[line];
  if (line >= slot_of.size()) slot_of.resize(line + 1, 0);
  uint32_t& slot = slot_of[line];
  if (slot == 0) {
    named.emplace_back();
    slot = static_cast<uint32_t>(named.size());
  }
  return named[slot - 1];
}

Cycles CoherenceModel::TransferCost(Topology::Distance d) const {
  switch (d) {
    case Topology::Distance::kSelf:
      return costs_.l1_hit;
    case Topology::Distance::kSmtSibling:
      return costs_.smt_transfer;
    case Topology::Distance::kSameSocket:
      return costs_.same_socket_transfer;
    case Topology::Distance::kCrossSocket:
      return costs_.cross_socket_transfer;
  }
  return costs_.memory_fill;
}

// tlblint: setup — single-threaded Machine construction
void CoherenceModel::ConfigureBanks(int banks, int cpus_per_bank) {
  if (banks < 1) banks = 1;
  if (cpus_per_bank < 1) cpus_per_bank = 1;
  std::vector<Bank> old = std::move(banks_);
  banks_.assign(static_cast<size_t>(banks), Bank{});
  cpus_per_bank_ = cpus_per_bank;
  // Migrate resident lines into the bank of their current holder so warmth
  // built during the serial setup phase survives re-banking. Access cost is
  // a function of LineState *contents* (owner/sharer distances), not of which
  // bank holds the entry, so every access whose line keeps a single resident
  // copy replays its serial cost exactly; a line with no holder (invalidated
  // everywhere) lands in bank 0. Aggregate counters accumulate into bank 0 so
  // global_stats() sums are unchanged. A line resident in several old banks
  // keeps the copy met first (old bank order) in each destination bank.
  auto home = [this](const LineState& s) {
    int holder = s.owner >= 0 ? s.owner : (s.first_sharer >= 0 ? s.first_sharer : 0);
    return BankIndexFor(holder);
  };
  for (Bank& b : old) {
    for (LineId id = 0; id < b.slot_of.size(); ++id) {
      if (b.slot_of[id] == 0) continue;
      Entry& e = b.named[b.slot_of[id] - 1];
      if (!e.state.valid_anywhere) continue;  // evicted: holds nothing to migrate
      Bank& dst = banks_[home(e.state)];
      if (id >= dst.slot_of.size()) dst.slot_of.resize(id + 1, 0);
      if (dst.slot_of[id] != 0) continue;
      dst.named.push_back(std::move(e));
      dst.slot_of[id] = static_cast<uint32_t>(dst.named.size());
    }
    for (auto& [id, e] : b.data) {  // det-ok: destination maps are keyed, never order-iterated
      banks_[home(e.state)].data.emplace(id, std::move(e));
    }
    AccumulateStats(banks_[0].stats, b.stats);
  }
}

// tlblint: setup — aggregation between runs, engine quiescent
CoherenceModel::GlobalStats CoherenceModel::global_stats() const {
  GlobalStats sum;
  for (const Bank& b : banks_) {
    AccumulateStats(sum, b.stats);
  }
  return sum;
}

void CoherenceModel::AccumulateStats(GlobalStats& into, const GlobalStats& from) {
  into.accesses += from.accesses;
  into.hits += from.hits;
  into.transfers += from.transfers;
  into.cross_socket_transfers += from.cross_socket_transfers;
  into.invalidations += from.invalidations;
  into.memory_fills += from.memory_fills;
}

Cycles CoherenceModel::Access(int cpu, LineId line, AccessType type) {
  Bank& bank = BankFor(cpu);
  Entry& e = bank.FindOrAdd(line, IsNamed(line));
  GlobalStats& global_ = bank.stats;
  LineState& s = e.state;
  ++e.stats.accesses;
  ++global_.accesses;

  bool is_write = type != AccessType::kRead;
  bool cpu_is_owner = s.owner == cpu;
  bool cpu_is_sharer = s.sharers.Test(cpu);

  if (!s.valid_anywhere) {
    // Cold miss: fill from memory; requester becomes exclusive owner.
    s.valid_anywhere = true;
    s.owner = cpu;
    s.sharers.Clear();
    s.first_sharer = -1;
    ++global_.memory_fills;
    return costs_.memory_fill;
  }

  if (!is_write) {
    if (cpu_is_owner || cpu_is_sharer) {
      ++e.stats.hits;
      ++global_.hits;
      return costs_.l1_hit;
    }
    // Read miss: fetch from nearest holder; owner (if any) downgrades M->S.
    Topology::Distance d = NearestHolder(cpu, s);
    Cycles cost = TransferCost(d);
    ++e.stats.transfers;
    ++global_.transfers;
    if (d == Topology::Distance::kCrossSocket) {
      ++e.stats.cross_socket_transfers;
      ++global_.cross_socket_transfers;
    }
    if (s.owner >= 0) {
      AddSharer(s, s.owner);
      s.owner = -1;
    }
    AddSharer(s, cpu);
    return cost;
  }

  // Write / atomic RMW.
  if (cpu_is_owner && !s.sharers.Any()) {
    ++e.stats.hits;
    ++global_.hits;
    return costs_.l1_hit;
  }
  // Need exclusive ownership: invalidate every other copy; cost dominated by
  // the farthest current holder we must reach.
  Topology::Distance farthest;
  uint64_t invalidated;
  Cycles cost;
  if (s.owner >= 0 && !s.sharers.Any()) {
    // One holder, the owner, and it is not `cpu` (that was a hit above).
    farthest = DistanceTo(cpu, s.owner);
    invalidated = 1;
    cost = TransferCost(farthest);
  } else {
    const CpuMasks& m = cpu_masks_[static_cast<size_t>(cpu)];
    CpuMask others = s.sharers;
    if (s.owner >= 0) others.Set(s.owner);
    others.Reset(cpu);
    invalidated = static_cast<uint64_t>(others.Count());
    farthest = !others.Any()                 ? Topology::Distance::kSelf
               : others.AnyOutside(m.socket) ? Topology::Distance::kCrossSocket
               : others.AnyOutside(m.core)   ? Topology::Distance::kSameSocket
                                             : Topology::Distance::kSmtSibling;
    cost = cpu_is_owner || cpu_is_sharer
               ? TransferCost(farthest)  // upgrade: invalidate others
               : TransferCost(NearestHolder(cpu, s));
  }
  if (invalidated > 0) {
    ++e.stats.transfers;
    ++global_.transfers;
    if (farthest == Topology::Distance::kCrossSocket) {
      ++e.stats.cross_socket_transfers;
      ++global_.cross_socket_transfers;
    }
  } else {
    ++e.stats.hits;
    ++global_.hits;
  }
  e.stats.invalidations += invalidated;
  global_.invalidations += invalidated;
  s.owner = cpu;
  s.sharers.Clear();
  s.first_sharer = -1;
  return cost;
}

// tlblint: shard-local — line is socket-confined
void CoherenceModel::EvictAll(LineId line) {
  bool is_named = IsNamed(line);
  for (Bank& b : banks_) {
    if (!is_named) {
      b.data.erase(line);
    } else if (line < b.slot_of.size() && b.slot_of[line] != 0) {
      b.named[b.slot_of[line] - 1] = Entry{};  // keeps the slot; reads as untouched
    }
  }
}

// tlblint: setup — between runs, engine quiescent
void CoherenceModel::ResetStats() {
  for (Bank& b : banks_) {
    b.stats = GlobalStats{};
    for (Entry& e : b.named) {
      e.stats = LineStats{};
    }
    for (auto& [id, e] : b.data) {  // det-ok: order-independent (zeroes every entry)
      e.stats = LineStats{};
    }
  }
}

// tlblint: setup — observability between runs, engine quiescent
CoherenceModel::LineStats CoherenceModel::StatsFor(LineId line) const {
  // A line normally resides in exactly one bank; summing tolerates the
  // (contract-violating) case of copies in several.
  LineStats sum;
  bool is_named = IsNamed(line);
  for (const Bank& b : banks_) {
    const Entry* e = b.Find(line, is_named);
    if (e == nullptr) continue;
    sum.accesses += e->stats.accesses;
    sum.hits += e->stats.hits;
    sum.transfers += e->stats.transfers;
    sum.cross_socket_transfers += e->stats.cross_socket_transfers;
    sum.invalidations += e->stats.invalidations;
  }
  return sum;
}

// tlblint: setup — observability between runs, engine quiescent
size_t CoherenceModel::DirectoryEntries() const {
  size_t n = 0;
  for (const Bank& b : banks_) {
    n += b.named.size() + b.data.size();
  }
  return n;
}

std::string CoherenceModel::NameOf(LineId line) const {
  if (!IsNamed(line)) {
    return "<data>";
  }
  // The last record whose run starts at or before `line`.
  auto it = std::upper_bound(named_.begin(), named_.end(), line,
                             [](LineId l, const NameRec& r) { return l < r.first; });
  const NameRec& rec = *std::prev(it);
  if (rec.prefix == nullptr) {
    return rec.custom;
  }
  std::string name = rec.prefix;
  name += std::to_string(rec.index);
  name += rec.mid;
  if (rec.suffix != nullptr) {
    name += std::to_string(rec.index2 + (line - rec.first));
    name += rec.suffix;
  }
  return name;
}

}  // namespace tlbsim
