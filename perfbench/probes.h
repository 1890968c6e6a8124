// Per-layer host-cost probes: each times one layer's public API on state
// shaped like a workload's (directory size, mapped range, CPU set), so a
// probe's ns/op times the workload's op count estimates that layer's share.
#ifndef TLBSIM_PERFBENCH_PROBES_H_
#define TLBSIM_PERFBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "src/cache/topology.h"
#include "src/core/system.h"

namespace perfbench {

struct ProbeShape {
  tlbsim::Topology topo;
  std::vector<int> cpus;      // CPUs the workload keeps busy
  uint64_t lines = 64;        // coherence-directory lines the workload touches
  uint64_t mapped_pages = 1;  // 4K pages one process maps and walks
  uint64_t frames = 1;        // frames the workload holds allocated
  tlbsim::SystemConfig system;
  uint64_t seed = 1;
};

struct ProbeResults {
  double ns_per_event = 0;         // Engine Schedule + dispatch
  double ns_per_access = 0;        // CoherenceModel::Access
  double ns_per_invlpg = 0;        // Tlb::InvlPg on a filled TLB
  double ns_per_full_flush = 0;    // Tlb::FlushPcid on a filled TLB
  double ns_per_present_page = 0;  // PageTable::ForEachPresent, per leaf visited
  double ns_per_walk = 0;          // PageTable::Walk
  double ns_per_frame_alloc = 0;   // FrameAllocator Alloc + Unref
  double system_ms = 0;            // System construction
};

// Runs every probe (a few hundred ms in all); each figure is the median of
// several timed repetitions.
ProbeResults RunProbes(const ProbeShape& shape);

}  // namespace perfbench

#endif  // TLBSIM_PERFBENCH_PROBES_H_
