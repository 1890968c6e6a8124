// High-churn mmap workloads for Optimization #7 (reuse_elision).
//
// Two shapes exercise the reuse table from both ends:
//
// ChurnArena — anonymous arena recycling. Each thread owns a small private
// arena it repeatedly touches, madvise(DONTNEED)s and retouches; the frame
// allocator hands the same frames back almost immediately, so with the
// optimization on most zap-time shootdowns are elided and close benignly at
// the refault. A scratch mmap/touch/munmap side-loop recycles frames across
// VMAs, driving the allocator hand-off (forced close) path.
//
// ChurnPagecache — file-backed page-cache turnover. Threads write a shared
// file mapping, periodically madvise(DONTNEED) their window and refault it
// from the page cache: the file keeps its frames alive, so every refault
// brings the identical (va, pfn) back with same-or-stricter permissions.
// Periodic msync-style cleaning interleaves real shootdown traffic with the
// elision windows.
//
// Both run every thread on socket 0 and are fully seeded/deterministic.
#ifndef TLBSIM_SRC_WORKLOADS_CHURN_H_
#define TLBSIM_SRC_WORKLOADS_CHURN_H_

#include <cstdint>

#include "src/core/system.h"
#include "src/sim/json.h"

namespace tlbsim {

struct ChurnConfig {
  bool pti = true;
  OptimizationSet opts;
  int threads = 4;          // one per logical CPU of socket 0
  int iters = 24;           // recycle rounds per thread
  int arena_pages = 16;     // per-thread arena (fits the reuse table)
  int scratch_pages = 4;    // mmap/touch/munmap side-loop (arena mode)
  int scratch_interval = 6; // scratch round every N iterations (arena mode)
  int window_pages = 16;    // per-thread file window (pagecache mode)
  int clean_interval = 6;   // msync-clean every N rounds (pagecache mode)
  // Application work per round, so flush savings are a realistic fraction.
  Cycles work_cycles = 4000;
  uint64_t seed = 1;
  FlushBackendKind backend = FlushBackendKind::kIpi;
};

struct ChurnResult {
  Cycles total_cycles = 0;
  double rounds_per_mcycle = 0.0;
  uint64_t flush_requests = 0;
  uint64_t shootdowns = 0;
  // Kernel reuse counters (all zero when opts.reuse_elision is off).
  uint64_t elided_flushes = 0;
  uint64_t elided_pages = 0;
  uint64_t benign_closes = 0;
  uint64_t forced_flushes = 0;
  uint64_t evictions = 0;
  uint64_t frame_handoffs = 0;
  Json metrics;  // full registry snapshot of the run (src/core/snapshot.h)
};

ChurnResult RunChurnArena(const ChurnConfig& config);
ChurnResult RunChurnPagecache(const ChurnConfig& config);

}  // namespace tlbsim

#endif  // TLBSIM_SRC_WORKLOADS_CHURN_H_
