// Sysbench-like random-write + fdatasync workload (§5.2 / Figure 10).
//
// N threads of one process write random pages of a shared memory-mapped file
// on "emulated persistent memory"; every `sync_interval` writes a thread
// calls an fdatasync-equivalent that write-protects and cleans the file's
// dirty pages (one TLB flush per page in baseline Linux). All threads run on
// one NUMA node, as in the paper.
#ifndef TLBSIM_SRC_WORKLOADS_SYSBENCH_H_
#define TLBSIM_SRC_WORKLOADS_SYSBENCH_H_

#include <cstdint>

#include "src/core/system.h"
#include "src/sim/json.h"

namespace tlbsim {

struct SysbenchConfig {
  bool pti = true;
  OptimizationSet opts;
  int threads = 1;          // one per logical CPU of socket 0
  int file_pages = 4096;    // large enough that random writes rarely collide
                            // between syncs (every write faults for dirty tracking,
                            // as with the paper's 3GB file)
  int writes_per_thread = 160;
  int sync_interval = 16;   // fdatasync every N writes
  // Database bookkeeping per write (sysbench's own work): keeps the TLB path
  // a realistic fraction of the run instead of dominating it.
  Cycles db_work_cycles = 6000;
  uint64_t seed = 1;
  FlushBackendKind backend = FlushBackendKind::kIpi;
};

struct SysbenchResult {
  double writes_per_mcycle = 0.0;  // throughput in writes per 1e6 cycles
  Cycles total_cycles = 0;
  uint64_t shootdowns = 0;
  uint64_t responder_full_storm = 0;  // flush-storm promotions (§5.2)
  uint64_t skipped_gen = 0;
  Json metrics;  // full registry snapshot of the run (src/core/snapshot.h)
};

SysbenchResult RunSysbench(const SysbenchConfig& config);

}  // namespace tlbsim

#endif  // TLBSIM_SRC_WORKLOADS_SYSBENCH_H_
