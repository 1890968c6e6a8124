// Per-CPU kernel state: cpu_tlbstate, the SMP call-function queue, and the
// deferred-flush bookkeeping used by the paper's optimizations.
//
// Cacheline layout is explicit because it *is* the experiment (§3.3):
//   Split layout (baseline Linux, Figure 4a):
//     - tlbstate_line: loaded_mm / generations / lazy flag (false sharing);
//     - csq_line:      call-single-queue head;
//     - each CFD has its own line holding {func, info*, flags};
//     - flush_tlb_info lives on the initiator's *stack* line (extra TLB
//       pressure: stacks are 4KB-mapped, globals 2MB-mapped).
//   Consolidated layout (Figure 4b):
//     - the lazy flag is colocated with the csq head (read together);
//     - flush_tlb_info is inlined into the CFD (one line carries everything).
//
// CFDs are created on first use. A CPU reserves one line id per possible
// target up front (one named range, so ids and names do not depend on which
// CFDs a run uses), but builds target t's Cfd only when CfdFor(t) is first
// called. A 224-cpu System would otherwise build 50 176 Cfds, while a
// socket-confined run uses at most cpus_per_socket per initiator. Only the
// initiator's own (shard) thread calls CfdFor on its PerCpu.
#ifndef TLBSIM_SRC_KERNEL_PERCPU_H_
#define TLBSIM_SRC_KERNEL_PERCPU_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/coherence.h"
#include "src/kernel/flush_info.h"
#include "src/sim/flag.h"

namespace tlbsim {

struct MmStruct;

// Call-function data: one entry per (initiator, target) pair, like Linux's
// per-cpu cfd_data. The `done` flag models the csd lock/flags word the
// initiator spins on.
struct Cfd {
  explicit Cfd(Engine* engine) : done(engine) {}

  LineId line = 0;  // the CFD cacheline
  SimFlag done;     // acknowledgement (csd flags)
  // The shootdown work. With cacheline consolidation and a single info, the
  // info travels inside the CFD line; otherwise the responder additionally
  // reads the initiator's stack flush_tlb_info line (split layout). A
  // vector, not a FlushInfos: most CFDs carry one info, and assignment
  // reuses the capacity, so only a CFD's first (or first wider) use
  // allocates.
  std::vector<FlushTlbInfo> work;
  int initiator = -1;
  bool in_flight = false;
  Cfd* csq_next = nullptr;  // link in the target's CfdQueue
};

// The call-single-queue: a FIFO threaded through Cfd::csq_next, like Linux's
// llist of csds. A CFD sits in at most one queue (it is not reused while in
// flight), so enqueueing needs no node allocation.
class CfdQueue {
 public:
  bool empty() const { return head_ == nullptr; }
  Cfd* front() const { return head_; }
  void push_back(Cfd* cfd) {
    cfd->csq_next = nullptr;
    (tail_ != nullptr ? tail_->csq_next : head_) = cfd;
    tail_ = cfd;
  }
  void pop_front() {
    head_ = head_->csq_next;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
  }

 private:
  Cfd* head_ = nullptr;
  Cfd* tail_ = nullptr;
};

// The deferred user-address-space flush state (paper §3.4): either a merged
// selective range or a full-flush indication, consumed on return to user.
struct DeferredUserFlush {
  bool full = false;
  bool any = false;
  uint64_t start = UINT64_MAX;
  uint64_t end = 0;
  int stride_shift = static_cast<int>(kPageShift);
  uint64_t pages = 0;

  void Reset() { *this = DeferredUserFlush{}; }

  void MergeRange(uint64_t s, uint64_t e, int stride, uint64_t threshold) {
    any = true;
    if (full) {
      return;
    }
    if (s < start) {
      start = s;
    }
    if (e > end) {
      end = e;
    }
    if (stride > stride_shift) {
      stride_shift = stride;
    }
    pages = (end - start + (1ULL << stride_shift) - 1) >> stride_shift;
    if (pages > threshold) {
      full = true;
    }
  }

  void MarkFull() {
    any = true;
    full = true;
  }
};

struct PerCpu {
  PerCpu(Engine* engine, CoherenceModel* coherence, int cpu, int num_cpus)
      : engine_(engine), cfds_(static_cast<size_t>(num_cpus)) {
    // Allocation-free naming (names materialize only if NameOf is called):
    // PerCpu construction runs once per CPU per simulated System, thousands
    // of times across a bench sweep.
    uint64_t c = static_cast<uint64_t>(cpu);
    tlbstate_line = coherence->AllocateLine("cpu", c, ".tlbstate");
    csq_line = coherence->AllocateLine("cpu", c, ".call_single_queue");
    stack_info_line = coherence->AllocateLine("cpu", c, ".stack_flush_info");
    first_cfd_line_ =
        coherence->AllocateLines("cpu", c, ".cfd[", static_cast<uint64_t>(num_cpus), "]");
  }
  PerCpu(const PerCpu&) = delete;
  PerCpu& operator=(const PerCpu&) = delete;

  // This CPU's call-function data for `target`, built on first use with line
  // first_cfd_line + target ("cpu<c>.cfd[<target>]").
  Cfd& CfdFor(int target) {
    std::unique_ptr<Cfd>& cfd = cfds_[static_cast<size_t>(target)];
    if (cfd == nullptr) {
      cfd = std::make_unique<Cfd>(engine_);
      cfd->line = first_cfd_line_ + static_cast<LineId>(target);
    }
    return *cfd;
  }
  // Indexed by target; null where CfdFor was never called.
  const std::vector<std::unique_ptr<Cfd>>& cfds() const { return cfds_; }

  // --- cpu_tlbstate ---
  MmStruct* loaded_mm = nullptr;
  uint64_t loaded_mm_tlb_gen = 0;  // generation this CPU's TLB is sync'd to
  bool is_lazy = false;            // running a kernel thread on a borrowed mm
  // Leaving lazy mode: the lazy flag is already down but the catch-up flush
  // has not run yet; shootdowns completing in this window legitimately leave
  // the CPU behind (tlbcheck must not flag it).
  bool catching_up = false;

  // --- deferred flushes (PTI / §3.4) ---
  DeferredUserFlush deferred_user;

  // NMI-safety: count of flushes accepted (acked) but not yet applied on this
  // CPU; nmi_uaccess_okay() must fail while nonzero (paper §3.2).
  int unfinished_flushes = 0;

  // --- batching (§4.2) ---
  bool batched_mode = false;
  // The paper's munmap-only extension (§5.3): this CPU advertises that it is
  // inside a batching-safe syscall and initiators may skip its IPI; it
  // catches up at the mmap_sem-release barrier. msync/fdatasync batching
  // defers its own flushes but does NOT set this.
  bool ipi_defer_mode = false;
  FlushInfos batched;  // up to kBatchSlots pending infos
  static constexpr size_t kBatchSlots = kFlushBatchSlots;

  // --- SMP layer ---
  CfdQueue csq;  // call single queue (pending CFDs)
  // Initiator-owned flush info used by the split layout ("on the stack").
  FlushTlbInfo stack_info;

  // --- cachelines ---
  LineId tlbstate_line;
  LineId csq_line;
  LineId stack_info_line;

 private:
  Engine* engine_;
  LineId first_cfd_line_ = 0;
  std::vector<std::unique_ptr<Cfd>> cfds_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_PERCPU_H_
