// MESI-style cacheline coherence cost model.
//
// The simulator does not move real bytes; it tracks, per 64-byte line, which
// CPUs hold it and in what state, and charges each access the cycle cost of
// the coherence action it would trigger on real hardware (L1 hit, sibling/
// same-socket/cross-socket cache-to-cache transfer, or memory fill). This is
// the substrate for the paper's cacheline-consolidation optimization (§3.3):
// fewer distinct contended lines => fewer cross-core transfers per shootdown.
//
// Lines are identified by opaque LineIds. Kernel data structures allocate
// named lines via AllocateLine() (one id) or AllocateLines() (a run of
// consecutive ids under one name record, e.g. an initiator's cfd[0..n)
// lines); data memory derives LineIds from physical addresses via
// LineOfAddress(). A range costs one name record however long it is; NameOf
// finds a line's record by binary search.
//
// Directory layout. Named ids are dense from 1, so each bank keeps them in
// two vectors: a per-bank slot index (named id -> 1 + position, 0 = never
// touched here) and a dense entry array holding only the lines that bank has
// touched. Address-derived data lines (bit 63 set) are sparse and stay in a
// per-bank hash map. The slot index costs 4 bytes per named id per bank; an
// entry array over every named id would cost 88 bytes per id per bank, and
// named ids grow with cpus^2 (the cfd[c][t] ids: 50 176 of them at 224
// cpus, most never used), so a bank stores entries only for lines it
// actually touched.
//
// Holder masks. A line's sharers are a fixed 256-bit cpu mask (Topology
// presets reach 224 cpus). The nearest holder, the farthest other holder and
// the invalidation count then come from ANDs against the accessing cpu's
// precomputed core and socket masks and a popcount, instead of a
// Topology::Between per holder. `first_sharer` remembers the first sharer in
// insertion order, which ConfigureBanks uses to home a line with no owner.
#ifndef TLBSIM_SRC_CACHE_COHERENCE_H_
#define TLBSIM_SRC_CACHE_COHERENCE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/topology.h"
#include "src/sim/time.h"

namespace tlbsim {

using LineId = uint64_t;

enum class AccessType {
  kRead,
  kWrite,
  kAtomicRmw,  // locked read-modify-write; coherence-wise like a write
};

// Cycle costs of coherence actions. Defaults approximate a Skylake-era Xeon.
struct CacheCosts {
  Cycles l1_hit = 4;
  Cycles smt_transfer = 20;           // sibling thread, same L1/L2
  Cycles same_socket_transfer = 70;   // via shared L3 / snoop
  Cycles cross_socket_transfer = 140; // across the interconnect
  Cycles memory_fill = 220;           // no cached copy anywhere
};

class CoherenceModel {
 public:
  // Fixed-width cpu set (see the header comment).
  struct CpuMask {
    static constexpr int kMaxCpus = 256;
    std::array<uint64_t, kMaxCpus / 64> w{};

    void Set(int cpu) { w[static_cast<size_t>(cpu) >> 6] |= 1ULL << (cpu & 63); }
    void Reset(int cpu) { w[static_cast<size_t>(cpu) >> 6] &= ~(1ULL << (cpu & 63)); }
    bool Test(int cpu) const { return (w[static_cast<size_t>(cpu) >> 6] >> (cpu & 63)) & 1; }
    void Clear() { w = {}; }
    bool Any() const { return (w[0] | w[1] | w[2] | w[3]) != 0; }
    bool Intersects(const CpuMask& o) const {
      return ((w[0] & o.w[0]) | (w[1] & o.w[1]) | (w[2] & o.w[2]) | (w[3] & o.w[3])) != 0;
    }
    // True if some bit is set here but not in `o`.
    bool AnyOutside(const CpuMask& o) const {
      return ((w[0] & ~o.w[0]) | (w[1] & ~o.w[1]) | (w[2] & ~o.w[2]) | (w[3] & ~o.w[3])) != 0;
    }
    int Count() const {
      return std::popcount(w[0]) + std::popcount(w[1]) + std::popcount(w[2]) +
             std::popcount(w[3]);
    }
  };

  struct LineState {
    int owner = -1;                // CPU holding Modified/Exclusive, or -1
    int first_sharer = -1;         // first cpu added to `sharers` since it was last empty
    CpuMask sharers;               // CPUs holding Shared (excludes owner)
    bool valid_anywhere = false;   // false until first access (memory fill)
  };

  struct LineStats {
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t transfers = 0;              // cache-to-cache transfers
    uint64_t cross_socket_transfers = 0;
    uint64_t invalidations = 0;          // remote copies invalidated by writes
  };

  struct GlobalStats {
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t transfers = 0;
    uint64_t cross_socket_transfers = 0;
    uint64_t invalidations = 0;
    uint64_t memory_fills = 0;
  };

  CoherenceModel(const Topology& topo, const CacheCosts& costs);

  // Allocates a fresh LineId for a named kernel object (name kept for
  // diagnostics / the Figure-4 harness).
  LineId AllocateLine(std::string name);

  // Allocation-free variants for hot construction paths (per-mm and per-cpu
  // objects are built inside sweep jobs, thousands of times per bench): the
  // name is stored as {literal, index, literal[, index, literal]} pieces and
  // only materialized if NameOf is actually called. The char* arguments must
  // be string literals (or otherwise outlive the model).
  LineId AllocateLine(const char* prefix, uint64_t index, const char* suffix);
  LineId AllocateLine(const char* prefix, uint64_t index, const char* mid, uint64_t index2,
                      const char* suffix);
  // Hands out `count` consecutive ids and returns the first; id first + k is
  // named prefix + index + mid + k + suffix (e.g. "cpu3.cfd[17]"), exactly as
  // `count` AllocateLine(prefix, index, mid, k, suffix) calls would name it.
  LineId AllocateLines(const char* prefix, uint64_t index, const char* mid, uint64_t count,
                       const char* suffix);

  // Derives a LineId for a physical data address (separate id space from
  // named lines).
  static LineId LineOfAddress(uint64_t phys_addr) {
    return (phys_addr >> 6) | (1ULL << 63);
  }

  // Performs the access, updates MESI state and counters, and returns the
  // cycle cost charged to `cpu`.
  Cycles Access(int cpu, LineId line, AccessType type);

  // Drops a line from every cache (e.g. clflush); free for accounting.
  void EvictAll(LineId line);

  // Protocol sharding: banks the directory per socket. Accesses resolve into
  // the *accessing* cpu's socket bank; under the socket-confinement contract
  // (every line is only ever touched by one socket) that is the line's home
  // socket, each bank is mutated exclusively by its shard's host thread, and
  // the per-bank MESI trajectories replay the serial ones exactly. Must be
  // called before any Access (typically by Machine construction); banks <= 1
  // keeps the legacy single-directory shape.
  void ConfigureBanks(int banks, int cpus_per_bank);
  int banks() const { return static_cast<int>(banks_.size()); }  // tlblint: setup

  // Summed over banks (one bank — the legacy single directory — by default).
  GlobalStats global_stats() const;
  void ResetStats();

  // Per-line statistics (zero-initialized for untouched lines).
  LineStats StatsFor(LineId line) const;
  // Diagnostic name of a named line ("<data>" for address-derived ids).
  // Composed on demand — named lines store their name in pieces.
  std::string NameOf(LineId line) const;

  // Directory entries held, summed over banks (a line touched from two banks
  // counts twice). An evicted named line keeps its (reset) entry.
  size_t DirectoryEntries() const;

 private:
  struct Entry {
    LineState state;
    LineStats stats;
  };

  // One directory bank: its lines plus its aggregate counters. Everything a
  // shard window touches through Access() lives in its own socket's bank.
  struct Bank {
    std::vector<uint32_t> slot_of;  // named id -> 1 + index into `named`; 0 = absent
    std::vector<Entry> named;       // named lines this bank touched, first-touch order
    std::unordered_map<LineId, Entry> data;  // address-derived lines
    GlobalStats stats;

    const Entry* Find(LineId line, bool is_named) const;
    Entry& FindOrAdd(LineId line, bool is_named);
  };

  // Per-cpu neighbourhoods for the holder-mask distance tests.
  struct CpuMasks {
    CpuMask core;    // SMT siblings, self included
    CpuMask socket;  // same socket, self included
  };

  // Deferred name of a run of named lines starting at `first` (see the
  // AllocateLine overloads and AllocateLines). Either `custom` is set (a run
  // of one), or line first + k is named
  // prefix + index + mid [+ (index2 + k) + suffix].
  struct NameRec {
    LineId first = 0;
    const char* prefix = nullptr;
    uint64_t index = 0;
    const char* mid = nullptr;
    uint64_t index2 = 0;
    const char* suffix = nullptr;
    std::string custom;
  };

  // Named ids are the ones AllocateLine handed out; everything else (the
  // address-derived data lines) goes through the hash map.
  bool IsNamed(LineId line) const { return line - 1 < next_named_ - 1; }

  // Topology::Between(cpu, other) from `cpu`'s core and socket masks.
  Topology::Distance DistanceTo(int cpu, int other) const;
  // Distance from `cpu` to the nearest current holder of `s`.
  Topology::Distance NearestHolder(int cpu, const LineState& s) const;
  Cycles TransferCost(Topology::Distance d) const;
  // Adds `cpu` to the sharers, recording it as first_sharer if the set was empty.
  static void AddSharer(LineState& s, int cpu);

  // tlblint: shard-local — resolves into the accessing cpu's own bank
  size_t BankIndexFor(int cpu) const {
    if (banks_.size() == 1) return 0;
    size_t b = static_cast<size_t>(cpu) / static_cast<size_t>(cpus_per_bank_);
    return b < banks_.size() ? b : banks_.size() - 1;
  }
  Bank& BankFor(int cpu) { return banks_[BankIndexFor(cpu)]; }  // tlblint: shard-local
  static void AccumulateStats(GlobalStats& into, const GlobalStats& from);

  const CacheCosts costs_;
  std::vector<CpuMasks> cpu_masks_;  // indexed by cpu
  std::vector<Bank> banks_{1};  // tlblint: banked(socket) single legacy directory until ConfigureBanks
  int cpus_per_bank_ = 1 << 30;
  // Records whose runs tile [1, next_named_), ascending by `first`.
  std::vector<NameRec> named_;
  LineId next_named_ = 1;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CACHE_COHERENCE_H_
