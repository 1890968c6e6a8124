// Software x86-64 4-level page tables (PML4 -> PDPT -> PD -> PT).
//
// Pure data structure: no virtual-time costs here. The hardware walker
// (src/hw/mmu.h) charges walk cycles and models the page-walk cache; the
// kernel charges PTE-update costs.
//
// 2MB huge pages are leaf entries at the PD level (PS bit set).
//
// NUMA: every paging-structure page carries a home memory node (set via
// set_alloc_node at creation — first-touch homing). The node-aware Walk
// overload reports how many visited levels lived on a remote node so the
// hardware walker can charge the extra DRAM latency.
//
// Replication (Mitosis-style, optimizations.h:pt_replication): one replica
// tree per memory node. The primary tree doubles as node 0's replica; nodes
// 1..n-1 get full copies homed entirely on their node. Every mutation
// (Map / SetPte / Unmap / PruneEmpty — including the hardware A/D assist)
// propagates to all replicas; the write observer fires once, on the primary.
// Node-aware walks go through the walker's local replica. The tlbcheck
// oracle verifies replica agreement at flush-acknowledgement time via
// FindReplicaDivergence.
#ifndef TLBSIM_SRC_MM_PAGE_TABLE_H_
#define TLBSIM_SRC_MM_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/mm/pte.h"

namespace tlbsim {

class PageTable;

// Observation hook for the tlbcheck oracle (src/check/): sees every leaf
// mutation (Map / SetPte / Unmap) with the before and after entries. The
// observer pointer is null unless checking is enabled.
class PteWriteObserver {
 public:
  virtual ~PteWriteObserver() = default;
  virtual void OnPteWrite(const PageTable& pt, uint64_t va, Pte old_pte, Pte new_pte,
                          PageSize size) = 0;
};

class PageTable {
 public:
  // Draws root_id from a process-wide counter — fine for standalone tables
  // (tests, EPT pairs) whose id never feeds simulated state.
  PageTable();
  // Deterministic root id, required for tables whose id reaches simulated
  // quantities (MmStruct derives coherence-line addresses from it): parallel
  // sweep jobs must not observe a cross-job allocation order.
  explicit PageTable(uint64_t root_id);
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  struct WalkResult {
    Pte pte;             // leaf entry (raw 0 if not present)
    PageSize size = PageSize::k4K;
    int levels_visited = 0;  // paging-structure levels touched by the walk
    int remote_levels = 0;   // of those, levels homed on a remote node
    bool leaf_remote = false;  // the level holding the final entry is remote
    bool present = false;
  };

  // Installs a leaf mapping. Intermediate tables are created on demand.
  // Precondition: `va` aligned to `size`; flags include kPresent.
  void Map(uint64_t va, uint64_t pfn, uint64_t flags, PageSize size = PageSize::k4K);

  // Replaces an existing leaf entry (mprotect / CoW break / clean). Returns
  // the previous entry. Precondition: a leaf exists at `va`.
  Pte SetPte(uint64_t va, Pte new_pte);

  // Removes the leaf mapping covering `va` if present; returns the old entry.
  Pte Unmap(uint64_t va);

  // Full software walk (no cost accounting).
  WalkResult Walk(uint64_t va) const { return Walk(va, -1); }

  // Node-aware walk: `walker_node` < 0 means NUMA-flat (no remote counting,
  // primary tree). Otherwise walks the walker's local replica when
  // replication is on, and fills remote_levels / leaf_remote against the
  // visited paging structures' home nodes.
  WalkResult Walk(uint64_t va, int walker_node) const;

  // Invokes `fn(va, pte, size)` for every present leaf in [lo, hi), in
  // ascending va order. `fn` may SetPte or Unmap the leaf it is handed (the
  // visit never reads that entry again), but must not Map, PruneEmpty or
  // write any other entry.
  template <typename Fn>
  void ForEachPresent(uint64_t lo, uint64_t hi, Fn&& fn) const {
    VisitPresent(*root_, lo, hi, fn);
  }

  // Frees empty intermediate tables under [lo, hi). Returns true if any
  // paging-structure page was freed (drives the freed-tables flag that gates
  // early acknowledgement, paper §3.2).
  bool PruneEmpty(uint64_t lo, uint64_t hi);

  // Unique id standing in for the root's physical address (CR3 target).
  uint64_t root_id() const { return root_id_; }

  // Number of live paging-structure pages (root included; primary tree).
  uint64_t node_count() const { return node_count_; }

  // --- NUMA ---
  // Home node for paging-structure pages created by subsequent Maps
  // (first-touch: the faulting CPU's node). Ignored while replication is on
  // (the primary is pinned to node 0, replicas to their own node).
  void set_alloc_node(int node) {
    if (replicas_.empty()) {
      alloc_node_ = node;
    }
  }
  int alloc_node() const { return alloc_node_; }

  // --- replication (Mitosis) ---
  // Creates replicas for nodes 1..num_nodes-1 (deep copies of the current
  // tree, homed on their node) and pins the primary to node 0. Idempotent
  // for num_nodes <= 1.
  void EnableReplication(int num_nodes);
  bool replicated() const { return !replicas_.empty(); }
  // Total replica count including the primary (0 when replication is off).
  int replica_count() const {
    return replicas_.empty() ? 0 : static_cast<int>(replicas_.size()) + 1;
  }
  // Root id of node `node`'s replica (node 0 = the primary root id); feeds
  // the per-replica page-table cacheline the kernel charges on propagation.
  uint64_t replica_root_id(int node) const;

  // Fault injection (tests): stop propagating mutations to replicas,
  // making them diverge from the primary.
  void set_skip_replica_propagation(bool skip) { skip_replica_propagation_ = skip; }

  // Replica-coherence scan for the tlbcheck oracle: first leaf where some
  // replica disagrees with the primary (either direction). Returns true and
  // fills `va`/`node` on divergence.
  bool FindReplicaDivergence(uint64_t* va, int* node) const;

  // tlbcheck hook: observer sees every leaf write (null when checking off).
  void set_write_observer(PteWriteObserver* obs) { write_observer_ = obs; }

 private:
  struct Node {
    std::array<Pte, kPtEntries> entries{};
    std::array<std::unique_ptr<Node>, kPtEntries> children;
    int node = 0;  // home memory node of this paging-structure page
  };

  struct Replica {
    std::unique_ptr<Node> root;
    int node;  // memory node this replica serves (1..n-1)
  };

  // Walks down to the node holding the leaf for (va, size), creating
  // intermediate nodes (homed on `home_node`) if `create`. `node_count` is
  // bumped per created node when non-null (primary bookkeeping).
  static Node* NodeForIn(Node* root, uint64_t va, PageSize size, bool create, int home_node,
                         uint64_t* node_count);
  Node* NodeFor(uint64_t va, PageSize size, bool create) {
    return NodeForIn(root_.get(), va, size, create, alloc_node_, &node_count_);
  }

  static WalkResult WalkIn(const Node* root, uint64_t va, int walker_node);
  template <typename Fn>
  static void VisitPresent(const Node& root, uint64_t lo, uint64_t hi, Fn&& fn) {
    if (lo < hi) {
      VisitLevel(root, kPtLevels - 1, 0, lo, hi, fn);
    }
  }
  // Recursive descent over the radix tree. `node` covers a region starting
  // at `base` that overlaps [lo, hi); only the entries overlapping it are
  // visited.
  template <typename Fn>
  static void VisitLevel(const Node& node, int level, uint64_t base, uint64_t lo, uint64_t hi,
                         Fn& fn) {
    const uint64_t shift = kPageShift + kPtIndexBits * static_cast<uint64_t>(level);
    uint64_t first = lo > base ? (lo - base) >> shift : 0;
    uint64_t last = (hi - 1 - base) >> shift;
    if (last >= kPtEntries) last = kPtEntries - 1;
    for (uint64_t i = first; i <= last; ++i) {
      uint64_t va = base + (i << shift);
      const Pte& e = node.entries[i];
      if (level == 0) {
        if (e.present()) {
          fn(va, e, PageSize::k4K);
        }
      } else if (level == 1 && e.present() && e.huge()) {
        fn(va, e, PageSize::k2M);
      } else if (node.children[i]) {
        VisitLevel(*node.children[i], level - 1, va, lo, hi, fn);
      }
    }
  }
  static std::unique_ptr<Node> CloneTree(const Node& src, int home_node);
  static bool PruneNode(Node& node, int level, uint64_t base, uint64_t lo, uint64_t hi,
                        uint64_t* node_count);

  // Applies the leaf store to every replica (primary already written).
  void PropagateStore(uint64_t va, PageSize size, Pte new_pte);

  std::unique_ptr<Node> root_;
  uint64_t root_id_;
  uint64_t node_count_ = 1;
  int alloc_node_ = 0;
  std::vector<Replica> replicas_;
  bool skip_replica_propagation_ = false;
  PteWriteObserver* write_observer_ = nullptr;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_MM_PAGE_TABLE_H_
