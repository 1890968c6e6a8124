// CoherenceModel: MESI-ish state transitions, cost classes, counters.
#include "src/cache/coherence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/rng.h"

namespace tlbsim {
namespace {

class CoherenceTest : public ::testing::Test {
 protected:
  Topology topo_;
  CacheCosts costs_;
  CoherenceModel model_{topo_, costs_};
};

TEST_F(CoherenceTest, ColdMissFillsFromMemory) {
  LineId l = model_.AllocateLine("x");
  EXPECT_EQ(model_.Access(0, l, AccessType::kRead), costs_.memory_fill);
  EXPECT_EQ(model_.global_stats().memory_fills, 1u);
}

TEST_F(CoherenceTest, RepeatReadIsL1Hit) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kRead);
  EXPECT_EQ(model_.Access(0, l, AccessType::kRead), costs_.l1_hit);
}

TEST_F(CoherenceTest, OwnerWriteAfterFillIsHit) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model_.Access(0, l, AccessType::kWrite), costs_.l1_hit);
}

TEST_F(CoherenceTest, CrossSocketReadTransfer) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  // CPU 28 is on socket 1.
  EXPECT_EQ(model_.Access(28, l, AccessType::kRead), costs_.cross_socket_transfer);
  EXPECT_EQ(model_.global_stats().cross_socket_transfers, 1u);
}

TEST_F(CoherenceTest, SameSocketReadTransfer) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model_.Access(4, l, AccessType::kRead), costs_.same_socket_transfer);
}

TEST_F(CoherenceTest, SmtSiblingTransferIsCheapest) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model_.Access(1, l, AccessType::kRead), costs_.smt_transfer);
}

TEST_F(CoherenceTest, ReadDowngradesOwnerThenBothHit) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  model_.Access(2, l, AccessType::kRead);
  // Both copies now shared: reads hit everywhere.
  EXPECT_EQ(model_.Access(0, l, AccessType::kRead), costs_.l1_hit);
  EXPECT_EQ(model_.Access(2, l, AccessType::kRead), costs_.l1_hit);
}

TEST_F(CoherenceTest, WriteInvalidatesSharers) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kRead);   // fill, cpu0 owner
  model_.Access(2, l, AccessType::kRead);   // shared 0,2
  model_.Access(28, l, AccessType::kRead);  // shared 0,2,28
  uint64_t inv_before = model_.global_stats().invalidations;
  model_.Access(0, l, AccessType::kWrite);  // must invalidate 2 and 28
  EXPECT_EQ(model_.global_stats().invalidations - inv_before, 2u);
  // After the write, reader 2 misses again.
  EXPECT_GT(model_.Access(2, l, AccessType::kRead), costs_.l1_hit);
}

TEST_F(CoherenceTest, AtomicRmwBehavesLikeWrite) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kRead);
  model_.Access(2, l, AccessType::kRead);
  uint64_t inv_before = model_.global_stats().invalidations;
  model_.Access(2, l, AccessType::kAtomicRmw);
  EXPECT_EQ(model_.global_stats().invalidations - inv_before, 1u);
  EXPECT_EQ(model_.Access(2, l, AccessType::kWrite), costs_.l1_hit);
}

TEST_F(CoherenceTest, UpgradeCostReflectsFarthestSharer) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kRead);
  model_.Access(28, l, AccessType::kRead);  // cross-socket sharer
  EXPECT_EQ(model_.Access(0, l, AccessType::kWrite), costs_.cross_socket_transfer);
}

TEST_F(CoherenceTest, PingPongCountsTransfersPerBounce) {
  LineId l = model_.AllocateLine("x");
  model_.Access(0, l, AccessType::kWrite);
  uint64_t t0 = model_.global_stats().transfers;
  for (int i = 0; i < 10; ++i) {
    model_.Access(28, l, AccessType::kWrite);
    model_.Access(0, l, AccessType::kWrite);
  }
  EXPECT_EQ(model_.global_stats().transfers - t0, 20u);
}

TEST_F(CoherenceTest, PerLineStatsTracked) {
  LineId a = model_.AllocateLine("a");
  LineId b = model_.AllocateLine("b");
  model_.Access(0, a, AccessType::kWrite);
  model_.Access(2, a, AccessType::kWrite);
  model_.Access(0, b, AccessType::kRead);
  auto sa = model_.StatsFor(a);
  auto sb = model_.StatsFor(b);
  EXPECT_EQ(sa.accesses, 2u);
  EXPECT_EQ(sa.transfers, 1u);
  EXPECT_EQ(sb.accesses, 1u);
  EXPECT_EQ(sb.transfers, 0u);
}

TEST_F(CoherenceTest, NamesRoundTrip) {
  LineId a = model_.AllocateLine("my.line");
  EXPECT_EQ(model_.NameOf(a), "my.line");
  EXPECT_EQ(model_.NameOf(CoherenceModel::LineOfAddress(0x1000)), "<data>");
}

TEST_F(CoherenceTest, LineOfAddressGroups64Bytes) {
  EXPECT_EQ(CoherenceModel::LineOfAddress(0x1000), CoherenceModel::LineOfAddress(0x103F));
  EXPECT_NE(CoherenceModel::LineOfAddress(0x1000), CoherenceModel::LineOfAddress(0x1040));
}

TEST_F(CoherenceTest, ResetStatsClearsGlobalAndPerLine) {
  LineId a = model_.AllocateLine("a");
  model_.Access(0, a, AccessType::kWrite);
  model_.ResetStats();
  EXPECT_EQ(model_.global_stats().accesses, 0u);
  EXPECT_EQ(model_.StatsFor(a).accesses, 0u);
}

TEST_F(CoherenceTest, EvictAllForcesMemoryFill) {
  LineId a = model_.AllocateLine("a");
  model_.Access(0, a, AccessType::kWrite);
  model_.EvictAll(a);
  EXPECT_EQ(model_.Access(0, a, AccessType::kRead), costs_.memory_fill);
}

// Degenerate topology: smt=1. NearestHolder can never report kSmtSibling, so
// a transfer from the adjacent cpu id is charged at the same-socket rate.
TEST(CoherenceDegenerateTest, NoSmtTransferFromAdjacentCpuIsSameSocket) {
  Topology topo{.sockets = 2, .cores_per_socket = 4, .smt = 1};
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId l = model.AllocateLine("x");
  model.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model.Access(1, l, AccessType::kRead), costs.same_socket_transfer);
  // Across the socket boundary (cpus_per_socket = 4) it's still cross-socket.
  model.Access(4, l, AccessType::kWrite);
  model.EvictAll(l);
  model.Access(4, l, AccessType::kWrite);
  EXPECT_EQ(model.Access(0, l, AccessType::kRead), costs.cross_socket_transfer);
}

// Degenerate topology: sockets=1. NearestHolder never reports kCrossSocket —
// the farthest any holder can be is the shared L3 — and upgrade costs are
// capped accordingly.
TEST(CoherenceDegenerateTest, SingleSocketNeverPaysCrossSocket) {
  Topology topo{.sockets = 1, .cores_per_socket = 4, .smt = 2};
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId l = model.AllocateLine("x");
  model.Access(0, l, AccessType::kWrite);
  EXPECT_EQ(model.Access(1, l, AccessType::kRead), costs.smt_transfer);
  EXPECT_EQ(model.Access(6, l, AccessType::kRead), costs.same_socket_transfer);
  // Upgrade with sharers spread over the whole (single-socket) machine.
  EXPECT_EQ(model.Access(0, l, AccessType::kWrite), costs.same_socket_transfer);
  EXPECT_EQ(model.global_stats().cross_socket_transfers, 0u);
}

// NearestHolder must pick the cheapest of several holders, also in the
// degenerate single-socket case where the candidates are sibling vs. L3.
TEST(CoherenceDegenerateTest, SingleSocketNearestOfManyHoldersIsSibling) {
  Topology topo{.sockets = 1, .cores_per_socket = 4, .smt = 2};
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId l = model.AllocateLine("x");
  model.Access(6, l, AccessType::kRead);  // far corner holds it first
  model.Access(1, l, AccessType::kRead);  // then cpu 0's smt sibling
  EXPECT_EQ(model.Access(0, l, AccessType::kRead), costs.smt_transfer);
}

// Single-cpu machine: every access after the fill is a hit; no transfer class
// is ever exercised.
TEST(CoherenceDegenerateTest, SingleCpuMachineOnlyFillsAndHits) {
  Topology topo{.sockets = 1, .cores_per_socket = 1, .smt = 1};
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId l = model.AllocateLine("x");
  EXPECT_EQ(model.Access(0, l, AccessType::kRead), costs.memory_fill);
  EXPECT_EQ(model.Access(0, l, AccessType::kWrite), costs.l1_hit);
  EXPECT_EQ(model.Access(0, l, AccessType::kAtomicRmw), costs.l1_hit);
  EXPECT_EQ(model.global_stats().transfers, 0u);
  EXPECT_EQ(model.global_stats().invalidations, 0u);
}

// --- differential test against the map + vector directory ---------------

// The directory as it was before named lines went dense and sharers became a
// cpu mask: one unordered_map per bank, a vector of sharers in insertion
// order, and Topology::Between per holder. CoherenceModel must reproduce
// every cost and counter it produces.
class ReferenceDirectory {
 public:
  using GlobalStats = CoherenceModel::GlobalStats;
  using LineStats = CoherenceModel::LineStats;

  ReferenceDirectory(const Topology& topo, const CacheCosts& costs) : topo_(topo), costs_(costs) {}

  void ConfigureBanks(int banks, int cpus_per_bank) {
    if (banks < 1) banks = 1;
    if (cpus_per_bank < 1) cpus_per_bank = 1;
    std::vector<Bank> old = std::move(banks_);
    banks_.assign(static_cast<size_t>(banks), Bank{});
    cpus_per_bank_ = cpus_per_bank;
    for (Bank& b : old) {
      for (auto& [id, e] : b.line_map) {
        int holder = e.state.owner >= 0
                         ? e.state.owner
                         : (e.state.sharers.empty() ? 0 : e.state.sharers[0]);
        banks_[BankIndexFor(holder)].line_map.emplace(id, std::move(e));
      }
      Accumulate(banks_[0].stats, b.stats);
    }
  }

  void EvictAll(LineId line) {
    for (Bank& b : banks_) b.line_map.erase(line);
  }

  Cycles Access(int cpu, LineId line, AccessType type) {
    Bank& bank = banks_[BankIndexFor(cpu)];
    Entry& e = bank.line_map[line];
    GlobalStats& g = bank.stats;
    State& s = e.state;
    ++e.stats.accesses;
    ++g.accesses;
    bool is_write = type != AccessType::kRead;
    bool cpu_is_owner = s.owner == cpu;
    bool cpu_is_sharer = std::find(s.sharers.begin(), s.sharers.end(), cpu) != s.sharers.end();
    if (!s.valid_anywhere) {
      s.valid_anywhere = true;
      s.owner = cpu;
      s.sharers.clear();
      ++g.memory_fills;
      return costs_.memory_fill;
    }
    if (!is_write) {
      if (cpu_is_owner || cpu_is_sharer) {
        ++e.stats.hits;
        ++g.hits;
        return costs_.l1_hit;
      }
      Topology::Distance d = NearestHolder(cpu, s);
      ++e.stats.transfers;
      ++g.transfers;
      if (d == Topology::Distance::kCrossSocket) {
        ++e.stats.cross_socket_transfers;
        ++g.cross_socket_transfers;
      }
      if (s.owner >= 0) {
        s.sharers.push_back(s.owner);
        s.owner = -1;
      }
      s.sharers.push_back(cpu);
      return Cost(d);
    }
    if (cpu_is_owner && s.sharers.empty()) {
      ++e.stats.hits;
      ++g.hits;
      return costs_.l1_hit;
    }
    Topology::Distance farthest = Topology::Distance::kSelf;
    uint64_t invalidated = 0;
    auto consider = [&](int holder) {
      if (holder == cpu) return;
      ++invalidated;
      Topology::Distance d = topo_.Between(cpu, holder);
      if (static_cast<int>(d) > static_cast<int>(farthest)) farthest = d;
    };
    if (s.owner >= 0) consider(s.owner);
    for (int sh : s.sharers) consider(sh);
    Cycles cost = cpu_is_owner || cpu_is_sharer ? Cost(farthest) : Cost(NearestHolder(cpu, s));
    if (invalidated > 0) {
      ++e.stats.transfers;
      ++g.transfers;
      if (farthest == Topology::Distance::kCrossSocket) {
        ++e.stats.cross_socket_transfers;
        ++g.cross_socket_transfers;
      }
    } else {
      ++e.stats.hits;
      ++g.hits;
    }
    e.stats.invalidations += invalidated;
    g.invalidations += invalidated;
    s.owner = cpu;
    s.sharers.clear();
    return cost;
  }

  void ResetStats() {
    for (Bank& b : banks_) {
      b.stats = GlobalStats{};
      for (auto& [id, e] : b.line_map) e.stats = LineStats{};
    }
  }

  GlobalStats global_stats() const {
    GlobalStats sum;
    for (const Bank& b : banks_) Accumulate(sum, b.stats);
    return sum;
  }

  LineStats StatsFor(LineId line) const {
    LineStats sum;
    for (const Bank& b : banks_) {
      auto it = b.line_map.find(line);
      if (it == b.line_map.end()) continue;
      sum.accesses += it->second.stats.accesses;
      sum.hits += it->second.stats.hits;
      sum.transfers += it->second.stats.transfers;
      sum.cross_socket_transfers += it->second.stats.cross_socket_transfers;
      sum.invalidations += it->second.stats.invalidations;
    }
    return sum;
  }

 private:
  struct State {
    int owner = -1;
    std::vector<int> sharers;
    bool valid_anywhere = false;
  };
  struct Entry {
    State state;
    LineStats stats;
  };
  struct Bank {
    std::unordered_map<LineId, Entry> line_map;
    GlobalStats stats;
  };

  static void Accumulate(GlobalStats& into, const GlobalStats& from) {
    into.accesses += from.accesses;
    into.hits += from.hits;
    into.transfers += from.transfers;
    into.cross_socket_transfers += from.cross_socket_transfers;
    into.invalidations += from.invalidations;
    into.memory_fills += from.memory_fills;
  }

  size_t BankIndexFor(int cpu) const {
    if (banks_.size() == 1) return 0;
    size_t b = static_cast<size_t>(cpu) / static_cast<size_t>(cpus_per_bank_);
    return b < banks_.size() ? b : banks_.size() - 1;
  }

  Topology::Distance NearestHolder(int cpu, const State& s) const {
    Topology::Distance best = Topology::Distance::kCrossSocket;
    bool found = false;
    auto consider = [&](int holder) {
      Topology::Distance d = topo_.Between(cpu, holder);
      if (!found || static_cast<int>(d) < static_cast<int>(best)) {
        best = d;
        found = true;
      }
    };
    if (s.owner >= 0) consider(s.owner);
    for (int sh : s.sharers) consider(sh);
    return best;
  }

  Cycles Cost(Topology::Distance d) const {
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

  Topology topo_;
  CacheCosts costs_;
  std::vector<Bank> banks_{1};
  int cpus_per_bank_ = 1 << 30;
};

struct DiffCase {
  const char* name;
  Topology topo;
  int initial_banks;
};

void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

class CoherenceDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

void ExpectSameStats(const CoherenceModel& model, const ReferenceDirectory& ref,
                     const std::vector<LineId>& lines, int step) {
  auto g = model.global_stats();
  auto rg = ref.global_stats();
  ASSERT_EQ(g.accesses, rg.accesses) << "step " << step;
  ASSERT_EQ(g.hits, rg.hits) << "step " << step;
  ASSERT_EQ(g.transfers, rg.transfers) << "step " << step;
  ASSERT_EQ(g.cross_socket_transfers, rg.cross_socket_transfers) << "step " << step;
  ASSERT_EQ(g.invalidations, rg.invalidations) << "step " << step;
  ASSERT_EQ(g.memory_fills, rg.memory_fills) << "step " << step;
  for (LineId l : lines) {
    auto s = model.StatsFor(l);
    auto rs = ref.StatsFor(l);
    ASSERT_EQ(s.accesses, rs.accesses) << "line " << l << " step " << step;
    ASSERT_EQ(s.hits, rs.hits) << "line " << l << " step " << step;
    ASSERT_EQ(s.transfers, rs.transfers) << "line " << l << " step " << step;
    ASSERT_EQ(s.cross_socket_transfers, rs.cross_socket_transfers)
        << "line " << l << " step " << step;
    ASSERT_EQ(s.invalidations, rs.invalidations) << "line " << l << " step " << step;
  }
}

// Seeded random Access sequences with EvictAll, ResetStats, late line
// allocation and ConfigureBanks mid-sequence (including re-banking a
// directory that already holds copies of one line in several banks).
TEST_P(CoherenceDifferentialTest, MatchesMapAndVectorDirectory) {
  const DiffCase& c = GetParam();
  const int cpus = c.topo.num_cpus();
  const int per_socket = c.topo.cpus_per_socket();
  for (uint64_t seed : {1ULL, 2ULL, 104729ULL}) {
    CacheCosts costs;
    CoherenceModel model(c.topo, costs);
    ReferenceDirectory ref(c.topo, costs);
    auto configure = [&](int banks) {
      model.ConfigureBanks(banks, cpus / banks);
      ref.ConfigureBanks(banks, cpus / banks);
    };
    if (c.initial_banks > 1) configure(c.initial_banks);
    std::vector<LineId> lines;
    auto allocate = [&](int n) {
      for (int i = 0; i < n; ++i) {
        lines.push_back(model.AllocateLine("line", static_cast<uint64_t>(i), ""));
      }
    };
    allocate(24);
    for (uint64_t a = 0; a < 12; ++a) {
      lines.push_back(CoherenceModel::LineOfAddress(a * 64 + 0x10000));
    }
    Rng rng(seed);
    for (int step = 0; step < 20000; ++step) {
      if (step == 7000) allocate(8);  // named ids that first appear after banking
      int64_t op = rng.UniformInt(0, 999);
      if (op < 15) {
        LineId l = lines[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(lines.size()) - 1))];
        model.EvictAll(l);
        ref.EvictAll(l);
      } else if (op < 17) {
        const int choices[] = {1, 8, c.topo.sockets};
        configure(choices[rng.UniformInt(0, 2)]);
      } else if (op < 18) {
        model.ResetStats();
        ref.ResetStats();
      } else {
        // Mostly one socket's cpus (the sharded contract), sometimes any cpu.
        int cpu;
        if (rng.Chance(0.8)) {
          int socket = static_cast<int>(rng.UniformInt(0, c.topo.sockets - 1));
          cpu = socket * per_socket + static_cast<int>(rng.UniformInt(0, per_socket - 1));
        } else {
          cpu = static_cast<int>(rng.UniformInt(0, cpus - 1));
        }
        LineId l = lines[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(lines.size()) - 1))];
        int64_t t = rng.UniformInt(0, 9);
        AccessType type = t < 6 ? AccessType::kRead
                          : t < 9 ? AccessType::kWrite
                                  : AccessType::kAtomicRmw;
        ASSERT_EQ(model.Access(cpu, l, type), ref.Access(cpu, l, type))
            << "seed " << seed << " step " << step << " cpu " << cpu << " line " << l;
      }
      if (step % 100 == 99) {
        ExpectSameStats(model, ref, lines, step);
      }
    }
    ExpectSameStats(model, ref, lines, -1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CoherenceDifferentialTest,
    ::testing::Values(DiffCase{"Default1Bank", Topology{}, 1},
                      DiffCase{"Default8Banks", Topology{}, 8},
                      DiffCase{"EightSocket1Bank", Topology::EightSocket(), 1},
                      DiffCase{"EightSocket8Banks", Topology::EightSocket(), 8}),
    [](const ::testing::TestParamInfo<DiffCase>& info) { return info.param.name; });

// Per-bank storage follows the lines a bank touched, not the named-id space:
// at 224 cpus the cfd[c][t] lines number cpus^2, and a bank that kept an entry
// per named id would hold 8 x 50 176 of them.
TEST(CoherenceFootprintTest, BanksHoldOnlyTouchedNamedLines) {
  Topology topo = Topology::EightSocket();
  const int cpus = topo.num_cpus();
  const int per_socket = topo.cpus_per_socket();
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  model.ConfigureBanks(topo.sockets, per_socket);
  std::vector<LineId> cfd(static_cast<size_t>(cpus) * static_cast<size_t>(cpus));
  for (int c = 0; c < cpus; ++c) {
    for (int t = 0; t < cpus; ++t) {
      cfd[static_cast<size_t>(c) * static_cast<size_t>(cpus) + static_cast<size_t>(t)] =
          model.AllocateLine("cfd", static_cast<uint64_t>(c), ".", static_cast<uint64_t>(t), "");
    }
  }
  // Every socket-local pair (c, t) is touched by its own socket: the sender
  // writes, the target reads.
  size_t touched = 0;
  for (int c = 0; c < cpus; ++c) {
    for (int t = 0; t < cpus; ++t) {
      if (c / per_socket != t / per_socket) continue;
      LineId l = cfd[static_cast<size_t>(c) * static_cast<size_t>(cpus) + static_cast<size_t>(t)];
      model.Access(c, l, AccessType::kWrite);
      model.Access(t, l, AccessType::kRead);
      ++touched;
    }
  }
  EXPECT_EQ(touched, static_cast<size_t>(topo.sockets * per_socket * per_socket));
  EXPECT_EQ(model.DirectoryEntries(), touched);
  EXPECT_LT(model.DirectoryEntries(), cfd.size());
}

// A named range hands out the ids and names the same lines get from one
// AllocateLine call each, and lines allocated around it keep theirs.
TEST(CoherenceNamesTest, RangesMatchPerLineAllocation) {
  CacheCosts costs;
  CoherenceModel ranged(Topology{}, costs);
  CoherenceModel single(Topology{}, costs);
  EXPECT_EQ(ranged.AllocateLine(std::string("mm0.tlb_gen")),
            single.AllocateLine(std::string("mm0.tlb_gen")));
  EXPECT_EQ(ranged.AllocateLine("cpu", 3, ".tlbstate"),
            single.AllocateLine("cpu", 3, ".tlbstate"));
  LineId first = ranged.AllocateLines("cpu", 3, ".cfd[", 17, "]");
  for (uint64_t t = 0; t < 17; ++t) {
    EXPECT_EQ(first + t, single.AllocateLine("cpu", 3, ".cfd[", t, "]"));
  }
  LineId empty = ranged.AllocateLines("cpu", 4, ".cfd[", 0, "]");  // takes no id
  LineId slot = ranged.AllocateLine("q", 1, ".slot[", 9, "]");
  EXPECT_EQ(empty, slot);
  EXPECT_EQ(slot, single.AllocateLine("q", 1, ".slot[", 9, "]"));
  EXPECT_EQ(ranged.AllocateLines("cpu", 5, ".cfd[", 1, "]"),
            single.AllocateLine("cpu", 5, ".cfd[", 0, "]"));
  EXPECT_EQ(ranged.AllocateLine(std::string("late custom")),
            single.AllocateLine(std::string("late custom")));
  LineId last = ranged.AllocateLine("mm", 2, ".mmap_sem");
  EXPECT_EQ(last, single.AllocateLine("mm", 2, ".mmap_sem"));
  for (LineId id = 0; id <= last + 2; ++id) {
    EXPECT_EQ(ranged.NameOf(id), single.NameOf(id)) << "id " << id;
  }
  EXPECT_EQ(ranged.NameOf(first + 16), "cpu3.cfd[16]");
  EXPECT_EQ(ranged.NameOf(last - 1), "late custom");
  EXPECT_EQ(ranged.NameOf(last), "mm2.mmap_sem");
  EXPECT_EQ(ranged.NameOf(CoherenceModel::LineOfAddress(0x1000)), "<data>");
}

}  // namespace
}  // namespace tlbsim
