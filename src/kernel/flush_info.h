// flush_tlb_info: the "work" descriptor of a TLB shootdown (paper §2.2),
// mirroring Linux's struct flush_tlb_info.
#ifndef TLBSIM_SRC_KERNEL_FLUSH_INFO_H_
#define TLBSIM_SRC_KERNEL_FLUSH_INFO_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/fixed_vec.h"
#include "src/mm/pte.h"

namespace tlbsim {

struct MmStruct;

inline constexpr uint64_t kFlushAll = ~0ULL;

struct FlushTlbInfo {
  MmStruct* mm = nullptr;
  uint64_t start = 0;
  uint64_t end = 0;  // kFlushAll => full flush required
  uint64_t new_tlb_gen = 0;
  int stride_shift = static_cast<int>(kPageShift);
  bool freed_tables = false;  // paging structures are being released (munmap)
  // §3.2: initiator grants responders permission to acknowledge at handler
  // entry. Never set together with freed_tables.
  bool early_ack_allowed = false;

  bool IsFull() const { return end == kFlushAll; }
  // Number of stride-sized pages covered (only meaningful when !IsFull()).
  uint64_t PageCount() const {
    if (IsFull() || end <= start) {
      return 0;
    }
    return (end - start + (1ULL << stride_shift) - 1) >> stride_shift;
  }
};

// Most infos one shootdown carries: §4.2 batching issues its shootdown as
// soon as this many flushes are pending.
inline constexpr size_t kFlushBatchSlots = 4;
using FlushInfos = FixedVec<FlushTlbInfo, kFlushBatchSlots>;

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_FLUSH_INFO_H_
